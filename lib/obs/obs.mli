(** The observability context: a {!Metrics} registry, a {!Trace} tracer,
    a {!Span} profiler, a {!Flight} recorder, and a simulation clock,
    bundled so instrumented components take one value.

    Components accept [?obs] at creation and default to the process-wide
    {!default} (initially {!null}, so nothing is recorded until an
    entry point — CLI, bench harness — installs a real context).  The
    clock maps trace timestamps to simulation time; {!Scenario.run}
    points it at its engine. *)

type t

val null : t
(** The shared disabled context: no-op metrics, no tracer, clock pinned
    at [0.].  {!set_clock} ignores it. *)

val create :
  ?metrics:Metrics.t ->
  ?trace:Trace.t ->
  ?spans:Span.t ->
  ?flight:Flight.t ->
  unit ->
  t
(** All components default to their disabled instances. *)

val metrics : t -> Metrics.t
val spans : t -> Span.t
val flight : t -> Flight.t

val enabled : t -> bool
(** True when any component — metrics, tracer, profiler or flight
    recorder — is live. *)

val tracing : t -> bool
(** True when the tracer {e or the flight recorder} is live — guard
    event construction with this so a disabled context allocates
    nothing.  The flight recorder consumes the same {!Trace.event}
    stream, so it keeps its ring populated even when no trace sink is
    attached. *)

val profiling : t -> bool
(** True when a span profiler is attached. *)

val set_clock : t -> (unit -> float) -> unit
val now : t -> float

val default : unit -> t
val set_default : t -> unit
(** The default context is {e domain-local}: each domain starts at
    {!null}, and installing a context in one domain is invisible to the
    others.  Worker domains (see [Sweep]) install a {!fork} of the
    caller's context so nothing they record crosses a domain boundary
    until the merge at join time. *)

val fork : t -> t
(** A worker-private context mirroring [t]: fresh metrics and span
    components (each enabled iff [t]'s is), no tracer or flight recorder
    (traces do not cross domains), an independent clock. *)

val absorb : into:t -> t -> unit
(** Merge a {!fork}ed worker's metrics and span aggregates back into
    [into] ({!Metrics.merge_into}, {!Span.merge_into}); call it after
    joining the worker's domain.  A no-op when the two contexts are the
    same. *)

val counter : t -> string -> Metrics.counter
val gauge : t -> string -> Metrics.gauge
val timer : t -> string -> Metrics.timer

val event : t -> Trace.event -> unit
(** Emit at the current clock to the trace sink (when tracing) and the
    flight recorder (when enabled); no-op when both are off. *)

val set_flight_dump : t -> string -> unit
(** Arm the crash dump: if the process exits — or {!dump_flight} is
    called, e.g. from a [Fun.protect] finaliser on the failure path —
    before {!cancel_flight_dump}, the flight recorder's contents are
    written to the given path as JSONL.  Ignored on {!null}. *)

val cancel_flight_dump : t -> unit
(** Disarm: the run completed normally, keep no black box. *)

val dump_flight : t -> string option
(** Write the armed dump now (idempotent: at most one dump per arming;
    skipped when disarmed or the recorder is empty).  Returns the path
    written.  {!install}'s [at_exit] hook calls this too, so an uncaught
    exception still produces the black box. *)

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

val install : t -> unit
(** {!set_default} plus an [at_exit] hook that writes any armed flight
    dump and closes the tracer: entry points call this so a raised
    exception or mid-run [exit] cannot lose buffered trace output or
    the crash black box.  Pair with
    [Fun.protect ~finally:(fun () -> close t)] around the run itself to
    flush on the normal path too. *)
