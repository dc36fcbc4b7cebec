(** Discrete-event simulation engine.

    A thin deterministic loop over {!Event_queue}: events are closures run
    at their scheduled time, in time order (insertion order within a
    tie).  Handlers may schedule further events freely. *)

type t

val create : ?capacity:int -> ?obs:Obs.t -> unit -> t
(** An engine at time [0.].  [capacity] pre-sizes the event queue for
    an expected number of concurrently-scheduled events (see
    {!Event_queue.create}).

    [obs] (default {!Obs.default}) receives the engine's instrumentation:
    counter [engine.events] (dispatched events) and gauge
    [engine.queue_depth] (live events sampled before each dispatch, peak
    = high watermark); each {!run} is the span [engine.run], whose
    [phase.engine.run] timer records its wall time.  With a disabled
    context the per-event overhead is one branch. *)

val now : t -> float
(** Current simulation time: the timestamp of the event being handled, or
    [0.] before the first event. *)

val schedule : t -> delay:float -> (t -> unit) -> unit
(** [schedule t ~delay f] runs [f] at [now t +. delay]; [delay >= 0]. *)

val schedule_at : t -> time:float -> (t -> unit) -> unit
(** Absolute-time variant; [time >= now t]. *)

val pending : t -> int

val dispatched : t -> int
(** Total events dispatched over the engine's lifetime.  Unlike the
    [engine.events] counter this is tracked on the engine itself, so it
    works with a disabled metrics registry and never aggregates across
    engines. *)

val on_heartbeat : t -> every:float -> (t -> unit) -> unit
(** Call the function every [every] simulation-time units during {!run},
    starting at [now t +. every].  Boundaries are fired {e before}
    dispatching the first event at-or-after them, with the clock set to
    the boundary instant — the cadence is a pure function of the event
    stream, so heartbeat-driven telemetry is deterministic.  When a run
    stops at a finite [until], the boundaries it contains fire as the
    clock closes on [until].  At most one callback; a second call
    replaces the first.  [every > 0]. *)

val on_wall_heartbeat : t -> every_s:float -> (t -> unit) -> unit
(** Call the function roughly every [every_s] wall-clock seconds during
    {!run}.  The clock is polled every 64 dispatched events, so a beat
    fires at the first such poll past the interval — cheap, but neither
    exact nor deterministic (intended for live progress/GC telemetry
    only).  At most one callback; a second call replaces the first.
    [every_s > 0]. *)

val run : ?until:float -> t -> int
(** Process events until the queue drains or the next event would
    exceed [until].  Returns the number of events handled.  When stopped
    by [until], the clock is advanced to [until] (so time-weighted
    statistics can be closed there). *)

val step : t -> bool
(** Handle exactly one event; [false] if the queue was empty. *)
