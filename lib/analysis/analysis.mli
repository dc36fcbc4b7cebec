(** Offline analytics over recorded JSONL traces.

    A trace written by [--trace] is replayed event by event
    ({!Trace.of_json} over {!Jsonx.fold_lines}) into derived views the
    paper's evaluation reasons about:

    - per-channel bandwidth-level {e timelines} and the aggregate
      time-weighted {e residency} of channel-time in each level;
    - the rejection breakdown and per-kind event counts;
    - rate estimates [(λ, μ, γ, P_f, P_s)] measured from the trace
      itself;
    - causality {e windows} around each link failure (how many retreats,
      upgrades, backup activations and drops follow, and how fast the
      first activation lands);
    - an {e audit} comparing the empirical residency against the
      analytic stationary vector of the paper's chain
      ({!Model.synthetic} + {!Ctmc.stationary}) for the same rates;
    - profiler views: span aggregates, rebuilt by replaying [Span_end]
      events through {!Span.add}, and a Chrome/Perfetto trace-event
      export.

    Everything here is a pure function of the trace bytes, so analyses
    are reproducible: same file, same output. *)

type t
(** A replayed trace. *)

val of_events : (float * Trace.event) list -> t
(** Replay an in-memory event list (in trace order). *)

val of_file : string -> t
(** Stream a JSONL trace file.  Raises [Sys_error] if it is unreadable
    and {!Jsonx.Line_error} on a malformed line — both JSON syntax
    errors and well-formed lines that are not trace events
    ({!Trace.of_json} errors), with the 1-based line number. *)

val load : string list -> (t, string) result
(** Replay several trace files as one concatenated stream, in order
    (e.g. a daemon trace and its client log, joined by rid).  [Error]
    on the first file that cannot be read or has a malformed line, with
    the message ready to print (["path:line: message"] for the
    latter). *)

(** {1 Basic views} *)

val event_count : t -> int

val horizon : t -> float
(** Largest event timestamp; [0.] for an empty trace. *)

val event_counts : t -> (string * int) list
(** Events per {!Trace.kind}, name-sorted. *)

val rejections : t -> (string * int) list
(** Rejection count per reason, name-sorted. *)

val channels : t -> int list
(** Every channel id seen, ascending. *)

val timeline : t -> int -> (float * int) list
(** [(time, level)] steps of one channel in time order, starting at its
    first appearance; empty for unknown ids.  A channel first seen
    through a level-change event (admission emits the water-filling
    upgrades {e before} the [admit] record) starts at that event's
    [from_level].  A [backup_activate] steps its channel to level 0,
    and a [restore] ends the old id (the connection goes on under the
    fresh id of the [admit] before it). *)

(** {1 Residency} *)

val residency : ?levels:int -> t -> float array
(** Fraction of total channel-time spent at each bandwidth level,
    time-weighted across all channels; live channels are closed at the
    trace horizon.  The array covers the highest level observed (or
    [levels] when larger); all zeros when no channel-time was
    accumulated. *)

(** {1 Rate estimation} *)

type rates = {
  lambda : float;  (** (admits + rejections) at [t > 0] per unit time. *)
  mu : float;  (** terminations at [t > 0] per unit time. *)
  gamma : float;  (** link failures per unit time. *)
  p_f : float;  (** mean fraction of existing channels directly chained. *)
  p_s : float;  (** mean fraction indirectly chained. *)
  arrivals : int;  (** admission attempts behind [lambda]. *)
  chain_samples : int;
      (** channel-pairs behind [p_f]/[p_s]: the sum over measured
          admissions of the live-channel count at that instant. *)
}

val estimate_rates : t -> rates
(** Measured from the trace: only events at [t > 0] count (the bulk
    load happens before the simulation clock starts), and [p_f]/[p_s]
    are ratios of chained-set sizes to the live-channel population at
    each admission.  Load-phase admissions skip the indirect set, so a
    trace dominated by them biases [p_s] low — override it in {!audit}
    when that matters.  All zeros when the trace spans no time. *)

(** {1 Failure causality} *)

type failure_window = {
  fail_time : float;
  retreats : int;
  upgrades : int;
  activations : int;
  drops : int;
  first_activation_dt : float option;
      (** Delay from the failure to the first backup activation inside
          the window; [None] if none landed. *)
}

val failure_windows : ?window:float -> t -> failure_window list
(** One record per [link_fail], counting the response events inside
    [[fail_time, fail_time + window]] (default 10 time units; failure
    handling is immediate in the simulator, so even [window = 0.] sees
    the synchronous response).  Windows of consecutive failures may
    overlap; each event then counts in every window containing it. *)

(** {1 Empirical-vs-analytic audit} *)

type audit = {
  levels : int;
  rates_used : rates;
  empirical : float array;  (** {!residency}, padded to [levels]. *)
  analytic : float array;
      (** stationary vector of the regularised synthetic chain. *)
  linf : float;  (** max_i |empirical_i - analytic_i|. *)
  l1 : float;  (** sum_i |empirical_i - analytic_i|. *)
}

val audit :
  ?levels:int ->
  ?lambda:float ->
  ?mu:float ->
  ?gamma:float ->
  ?p_f:float ->
  ?p_s:float ->
  t ->
  audit
(** Compare the trace's empirical level residency against the paper's
    chain solved for the same parameters: {!estimate_rates} supplies
    every rate not overridden, {!Model.synthetic} builds the chain, and
    {!Ctmc.stationary} on {!Model.build_regularized} solves it.  Raises
    [Invalid_argument] (via {!Model.validate}) if the resulting
    parameters are malformed, e.g. an overridden [p_f + p_s > 1]. *)

(** {1 Profiler views} *)

val top_spans : ?limit:int -> t -> Span.agg list
(** The [span_end] events fed through {!Span.add} into a [~keep:0]
    profiler: its {!Span.aggregate} (self time descending, name breaking
    ties), truncated to [limit] (default all).  For a trace carrying
    every span one profiler closed (no worker profilers merged into
    it), this equals that profiler's aggregate. *)

val max_span_depth : t -> int
(** Deepest [span_begin] nesting observed; [0] for a span-free trace. *)

(** {1 Telemetry views}

    Replayed {!Trace.Snapshot} / {!Trace.Heartbeat} streams (the
    heartbeat JSONL written by [--heartbeat] runs).  A concatenated
    sweep file carries one stream per point; streams are delimited by
    their sequence numbers restarting at 0. *)

val snapshots : t -> (float * Trace.snapshot) list
(** Event-time snapshots with their simulation-time stamps, in trace
    order. *)

val heartbeats : t -> (float * Trace.heartbeat) list
(** Wall-clock heartbeats with their stamps, in trace order. *)

val ops_series : t -> (float * float) list
(** Event-dispatch rate over simulation time: one [(time, d_events/dt)]
    point per consecutive snapshot pair of the same stream (sequence
    increasing, time strictly advancing — pairs across stream
    boundaries in a concatenated file are skipped). *)

val stalls : ?factor:float -> ?expected:float -> t -> (float * float) list
(** Wall-clock stalls in the heartbeat stream: [(wall_s, gap)] for every
    inter-heartbeat gap exceeding [factor] (default 3, must be positive)
    times the expected cadence ([expected] seconds; default: the median
    observed gap).  A gapped stream is how a hung or GC-thrashing run
    shows up while the simulation clock stands still.  Empty when fewer
    than two heartbeats of one stream exist. *)

(** {1 Request anatomy}

    Replayed request-tracing records (DESIGN.md §15): the server's
    [Req_begin]/[Req_stage]/[Req_end] trios and the load generator's
    [Req_client] lines join {e by rid} into one record per request, so
    a server trace and a client trace concatenated into one replay
    yield client-observed latency {e and} its server-side stage
    decomposition side by side. *)

type request_record = {
  rq_rid : int;
  rq_verb : string;
  rq_ok : bool;
  rq_total_s : float;  (** server-side stage sum (from [Req_end]). *)
  rq_stages : (string * float) list;  (** stage durations, trace order. *)
  rq_has_begin : bool;
  rq_complete : bool;  (** a [Req_end] was seen. *)
  rq_client : (string * float * float) option;
      (** [(verb, sched_s, latency_s)] from the joined [Req_client]
          line, when the client side of this rid is in the trace. *)
}

(** Per-stage latency anatomy over the completed requests. *)
type stage_stat = {
  st_stage : string;
  st_count : int;
  st_total_s : float;
  st_p50_s : float;  (** exact (sorted-sample) quantiles, not binned. *)
  st_p95_s : float;
  st_p99_s : float;
  st_tail_share : float;
      (** the stage's share of total server time across the {e tail}
          requests (total at or above the p99 of totals) — where the
          p99 mass actually goes. *)
}

val requests : t -> request_record list
(** One record per rid seen, rid-ascending. *)

val request_check : t -> string list
(** Consistency violations, rid-ascending: a [Req_end] without its
    [Req_begin], duplicate [Req_end]s on one rid, negative stage or
    total seconds.  Empty for a well-formed trace — the [latency
    --check] gate. *)

val stage_anatomy : t -> stage_stat list
(** Stats per stage name in pipeline order ({!Reqtrace.all_stages}
    first, unknown names after), over completed requests only; empty
    when the trace carries no [Req_end]. *)

(** Client/server attribution over the completed requests that joined
    a client record.  The sums cover requests whose client latency is
    positive. *)
type attribution = {
  at_joined : int;  (** completed requests with a client record. *)
  at_client_s : float;  (** sum of client-observed latencies. *)
  at_server_s : float;
      (** sum of the latency the server stages explain:
          min(latency, stage sum) per request. *)
  at_bound_s : float;
      (** sum of max(latency, stage sum) — what stages + network
          residual attribute. *)
  at_attributed_95 : int;  (** requests at least 95% attributed. *)
  at_over : int;
      (** over-attributed requests: stage sum past the client clock. *)
}

val attribution : t -> attribution

val requests_to_perfetto : t -> Jsonx.t
(** The completed requests as a Chrome/Perfetto document with one
    thread per stage plus a [network+queue] residual track for joined
    requests.  Requests are laid end-to-end on a synthetic axis (each
    starts where the previous one's span ended), so slices show each
    request's anatomy without requiring a shared clock origin. *)

val to_perfetto : t -> Jsonx.t
(** The trace as a Chrome/Perfetto trace-event document
    ([{"traceEvents": [...]}], [ts] in microseconds): profiler spans as
    ["B"]/["E"] pairs on one track (wall time since the profiler epoch),
    simulation phases as ["B"]/["E"], telemetry snapshots as ["C"]
    counter samples (live channels) and every
    other event as an instant ["i"] on a second track (simulation time),
    with ["M"] metadata naming both.  Timestamps are clamped
    non-decreasing per track, so the file always loads. *)
