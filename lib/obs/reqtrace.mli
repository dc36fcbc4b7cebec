(** Request-scoped tracing for the serving plane: a propagatable trace
    context, a closed per-request stage taxonomy, and a recorder that
    turns one completed request into mergeable per-stage timers, SLO
    good/bad counts, and [Req_*] trace events (DESIGN.md §15).

    The context travels on the wire as an optional [trace] field of the
    request line; the server decomposes every request — traced or not —
    into the stage taxonomy on the monotonic {!Clock} and feeds one
    {!observe} per completion.  Stages carry {e durations}, never
    timestamps, so server records join client-side {!Trace.Req_client}
    records across process (and clock-origin) boundaries: the client
    latency minus the server stage sum {e is} network + socket-queue
    time. *)

type ctx = { rid : int; t_sched : float }
(** The propagated context: [rid] is the client-assigned request id
    (the open-loop schedule index — globally unique across worker
    connections), [t_sched] the operation's scheduled due time within
    the replay.  Servers assign negative rids to untraced requests so
    the two spaces never collide. *)

(** The closed stage taxonomy.  Every served request decomposes into
    these five (the analyzer adds a sixth, derived, [network] residual
    for joined requests). *)
type stage =
  | Queue  (** socket readable → dispatch started. *)
  | Parse  (** JSONL line → decoded request. *)
  | Service  (** broker dispatch minus redistribution. *)
  | Redistribute  (** incremental water-filling flush. *)
  | Write  (** reply serialisation + socket write. *)

val all_stages : stage list
(** In pipeline order: queue, parse, service, redistribute, write. *)

val stage_name : stage -> string

val timer_name : stage -> string
(** The metrics timer fed per stage: [req.<stage_name>].  The total
    lands in [req.total]. *)

(** A request that missed the SLO, handed to the exemplar sink. *)
type exemplar = {
  ex_rid : int;
  ex_verb : string;
  ex_ok : bool;
  ex_total_s : float;
  ex_stages : (stage * float) list;
}

val exemplar_note : exemplar -> Trace.event
(** The exemplar as a [Note { name = "slow_request"; ... }] trace event
    carrying the per-stage breakdown. *)

type t

val create : ?slo:float -> ?on_exemplar:(exemplar -> unit) -> Obs.t -> t
(** A recorder over [obs]: per-stage timers [req.<stage>] + [req.total]
    in its metrics registry, trace events through its tracer.  [slo]
    (seconds, positive — raises [Invalid_argument] otherwise) arms SLO
    counting: requests at or under the threshold count good, the rest
    bad and are handed to [on_exemplar] (default: dropped).  Without
    [slo], {!slo_counts} stays [(0, 0)]. *)

val observe :
  t ->
  rid:int ->
  verb:string ->
  ok:bool ->
  stages:(stage * float) list ->
  total_s:float ->
  unit
(** Record one completed request.  [total_s] should be the stage sum.
    Emits the [Req_begin]/[Req_stage]*/[Req_end] trio when the context
    is tracing. *)

val slo_counts : t -> int * int
(** Cumulative [(good, bad)] — a {!Snapshot.source}'s [slo] accessor. *)
