(** The QoS-broker wire protocol: newline-delimited JSON over a stream
    socket (DESIGN.md §14).

    Every request is one JSONL line [{"id":N,"req":"<verb>",...}]; every
    reply is one line [{"id":N,"ok":true,"re":"<kind>",...}] (or
    [{"id":N,"ok":false,"error":"..."}]).  Subscribed connections
    additionally receive {e pushed} lines — trace events and wall
    heartbeats in the {!Trace} JSONL dialect — which carry an ["ev"] key
    and never an ["id"], so a client can always tell a reply from a
    push.

    The codec is pure (no sockets, no channels): {!Serve_server} and
    {!Serve_client} frame the lines, this module only converts.  QoS
    specs are validated here, at the protocol boundary ({!Qos.make}
    rules plus a level cap), so a broker never sees a malformed
    contract.

    {b Fuzz bridge.}  {!request_of_op} maps the fuzzer's closed op
    language ({!Op.t}) onto live requests through {!Fuzz.reduce}, the
    reduction [Fuzz.replay] applies, so a recorded fuzz script replays
    over the socket against the same state trajectory; {!op_of_request}
    prints a request back into the op language where possible. *)

type request =
  | Admit of { src : int; dst : int; qos : Qos.t }
  | Teardown of { channel : int }
  | Change_qos of { channel : int; qos : Qos.t }
  | Fail of { edge : int }
  | Repair of { edge : int }
  | Set_auto of bool
  | Redistribute
  | Stats
  | Snapshot
  | Metrics
  | Subscribe of [ `Trace | `Heartbeat ]
  | Ping
  | Shutdown

(** Per-victim outcome of an edge failure, mirrored onto the wire so a
    replaying client can maintain its view of the live set. *)
type recovery_wire = {
  rw_channel : int;
  rw_outcome : [ `Switched | `Dropped | `Restored | `Backup_lost ];
  rw_reprotected : bool;  (** a new backup was re-established. *)
}

type response =
  | Admitted of { channel : int; level : int }
  | Admit_rejected of { reason : string }
      (** an admission rejection is a valid outcome ([ok:true]), not a
          protocol error. *)
  | Torn_down of { channel : int }
  | Qos_changed of { channel : int; accepted : bool }
  | Edge_failed of { edge : int; fresh : bool; recoveries : recovery_wire list }
  | Edge_repaired of { edge : int; was_failed : bool }
  | Auto_set of { on : bool }
  | Redistributed
  | Stats_reply of {
      live : int;
      total_reserved : int;  (** Kbps. *)
      average_kbps : float;
      dropped : int;
      failed_edges : int;
      requests : int;  (** requests dispatched by the broker so far. *)
    }
  | Snapshot_reply of Jsonx.t  (** one {!Trace.Snapshot} document. *)
  | Metrics_reply of Jsonx.t  (** the {!Metrics.snapshot} document. *)
  | Subscribed of { stream : string }
  | Pong
  | Shutting_down
  | Error_reply of { message : string }

val max_levels : int
(** Upper bound on [Qos.levels] accepted from the wire (the broker's
    level histogram is sized to it). *)

val request_to_json : ?trace:Reqtrace.ctx -> id:int -> request -> Jsonx.t
(** [?trace] appends the optional request-tracing context as a
    [{"trace":{"rid":N,"t_sched":S}}] field — backward compatible: old
    servers ignore unknown fields, old clients never send it. *)

val request_of_json : Jsonx.t -> (int * request, string) result

val trace_ctx_of_json : Jsonx.t -> Reqtrace.ctx option
(** The request line's tracing context, if it carries a well-formed one
    ([rid] must be a non-negative integer — negative rids are the
    server's own namespace).  Malformed [trace] fields read as [None]
    rather than poisoning the request: tracing is best-effort metadata,
    never a reason to reject a decodable request. *)

val request_verb : request -> string
(** The wire verb of a request — the same string its JSONL line's
    ["req"] field carries. *)

val response_to_json : id:int -> response -> Jsonx.t
val response_of_json : Jsonx.t -> (int * response, string) result

val is_push : Jsonx.t -> bool
(** [true] for pushed stream lines (["ev"] present, no ["id"]) — see the
    framing rule above. *)

val request_of_op :
  nodes:int ->
  edges:int ->
  live:int list ->
  failed:int list ->
  Op.t ->
  request option
(** Reduce a fuzz op to a live request against the current service
    state with {!Fuzz.reduce}: [live] is the sorted live channel-id
    list, [failed] the sorted failed-edge list.  [None] when the op is a
    no-op there (terminate/chqos on an empty live set, fail/repair with
    no edges, admit on a sub-2-node network). *)

val op_of_request : nodes:int -> request -> Op.t option
(** Print a request back into the closed op language — the inverse of
    {!request_of_op} up to re-reduction: reducing the returned op on the
    same state yields the original request.  [nodes] inverts the admit
    dst skew.  [None] for requests outside the language (stats,
    subscribe, …), QoS specs not in [Fuzz.qos_palette], and admits whose
    endpoints are not wire-valid for [nodes]. *)
