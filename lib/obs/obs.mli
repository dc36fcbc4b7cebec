(** The observability context: a {!Metrics} registry, a {!Trace} tracer,
    a {!Span} profiler and a simulation clock, bundled so instrumented
    components take one value.

    Components take [?obs] and default to {!null}: a context reaches a
    component only as an argument, so nothing is recorded unless the
    caller — CLI, bench harness — passes a live one.  The clock maps
    trace timestamps to simulation time; {!Scenario.run} points it at
    its engine. *)

type t

val null : t
(** The shared disabled context: no-op metrics, no tracer, clock pinned
    at [0.].  {!set_clock} ignores it. *)

val create :
  ?metrics:Metrics.t ->
  ?trace:Trace.t ->
  ?spans:Span.t ->
  unit ->
  t
(** All components default to their disabled instances. *)

val metrics : t -> Metrics.t
val spans : t -> Span.t

val enabled : t -> bool
(** True when any component — metrics, tracer or profiler — is live. *)

val tracing : t -> bool
(** {!Trace.enabled} on the tracer — guard event construction with this
    so a disabled context allocates nothing. *)

val profiling : t -> bool
(** True when a span profiler is attached. *)

val set_clock : t -> (unit -> float) -> unit
val now : t -> float

val fork : t -> t
(** A worker-private context mirroring [t]: fresh metrics and span
    components (each enabled iff [t]'s is), no tracer (traces do not
    cross domains), an independent clock. *)

val absorb : into:t -> t -> unit
(** Merge a {!fork}ed worker's metrics and span aggregates back into
    [into] ({!Metrics.merge_into}, {!Span.merge_into}); call it after
    joining the worker's domain.  A no-op when the two contexts are the
    same. *)

val counter : t -> string -> Metrics.counter
val gauge : t -> string -> Metrics.gauge
val timer : t -> string -> Metrics.timer

val event : t -> Trace.event -> unit
(** Emit at the current clock to the tracer; no-op when it is off. *)

val span : t -> string -> (unit -> 'a) -> 'a
(** [span t name f] runs [f], records its wall time under the metrics
    timer [phase.<name>] and — when a profiler is attached — as a
    hierarchical {!Span} record (self vs total time, GC word deltas).
    The tracer sees the span too: [Span_begin]/[Span_end] events when
    profiling, the legacy flat [Phase_begin]/[Phase_end] pair otherwise.
    When the context is fully disabled the thunk runs untouched. *)

val metrics_json : t -> Jsonx.t

val close : t -> unit
(** Close the tracer's sink (idempotent, see {!Trace.close}). *)

val close_at_exit : t -> unit
(** Register an [at_exit] hook that closes the tracer: entry points call
    this so a raised exception or mid-run [exit] cannot lose buffered
    trace output.  Pair with [Fun.protect ~finally:(fun () -> close t)]
    around the run itself to flush on the normal path too. *)
