(** The open-loop load generator behind [drqos_cli loadgen].

    A replay draws its arrival schedule up front, deterministically in
    the seed, and fires it across worker domains with
    {!Sweep.open_loop}: each worker owns one connection and a churn of
    admit/teardown/chqos requests that steers its owned population
    toward a live target (the paper's λ/μ operating point), with
    read-side requests and optional fail/repair injection sprinkled
    in.  Latency is measured from each operation's {e scheduled}
    time, so a saturated daemon is charged for the queueing it causes.

    Workers send every request through a {!call} function: the replay
    binds it to a {!Serve_client} connection, a test can bind it to
    {!Serve_broker.dispatch} in process. *)

type arrivals = [ `Poisson | `Bursty ]
(** [`Poisson]: exponential inter-arrivals at the rate.  [`Bursty]:
    on/off — 100 ms bursts at twice the rate separated by 100 ms
    silences, the same average rate. *)

(** {1 Workers} *)

type call = Reqtrace.ctx option -> Serve_proto.request -> Serve_proto.response
(** Send one request, stamped with the tracing context when given, and
    return its reply. *)

type worker

val worker : call:call -> seed:int -> int -> worker
(** [worker ~call ~seed w]: worker [w]'s state, its choices drawn from
    a PRNG seeded [seed + 1000 (w + 1)]. *)

val step :
  ?trace:Reqtrace.ctx -> nodes:int -> target:int -> fail_edges:int -> worker -> string
(** One scheduled operation; returns the wire verb it sent.  70% of
    steps churn — admit below [target] owned connections, tear one down
    at it — 20% change the QoS of an owned connection, the rest read
    stats/ping/snapshot; with [fail_edges > 0], 1% fail an edge id
    below [fail_edges] or repair the last one failed.  Admissions pick
    distinct endpoints below [nodes].  [trace] stamps every request the
    step sends. *)

val finish : worker -> unit
(** Repair every edge the worker failed and has not repaired, leaving
    the daemon healthy for the next client. *)

val owned : worker -> int list
(** Channels the worker admitted and still holds. *)

val failed : worker -> int list
(** Edges the worker failed and has not repaired. *)

val errors : worker -> int
(** Unexpected replies: an error where none can occur. *)

(** {1 Replay} *)

type result = {
  summary : Perf_record.serve;
  wall_s : float;  (** monotonic, start to last completion. *)
  gc : Perf_record.gc;  (** calling domain only. *)
  schedule : float array;
  verbs : string array;  (** per operation; [""] if it never ran. *)
  latencies : float array;  (** per operation, open-loop; [-1.] if it never ran. *)
}

val run :
  seed:int ->
  nodes:int ->
  requests:int ->
  rate:float ->
  arrivals:arrivals ->
  jobs:int ->
  live_target:int ->
  fail_edges:int ->
  tracing:bool ->
  ?slo:float ->
  Serve_server.address ->
  result
(** Replay [requests] operations at [rate] against the daemon at the
    address, on [jobs] worker domains (one connection each, dialled
    with retries), steering toward [live_target] live connections split
    across the workers.  With [tracing], operation [i] carries the
    context [{rid = i; t_sched}] so the daemon's stage records join the
    client log.  [slo] counts operations within / beyond that latency
    into [slo_good] / [slo_bad] (both 0 without it).  Raises
    [Unix.Unix_error] when a worker cannot connect. *)

val write_client_log : out_channel -> result -> unit
(** One [req_client] trace line per completed operation, rid = schedule
    index — the client half [drqos_cli latency] joins against the
    daemon's [--trace] stream. *)

val write_percentiles : out_channel -> result -> unit
(** The latency percentiles as a TSV table (gnuplot/pandas ready). *)

val stage_p99s : Serve_server.address -> (string * float) list
(** The daemon's per-stage [req.*] p99s off its [metrics] reply, in
    pipeline order with [req.total] last; [[]] when the daemon cannot
    be reached or reports none. *)

val shutdown : Serve_server.address -> bool
(** Ask the daemon to shut down; [true] when it acknowledged. *)
