(** Periodic run-telemetry heartbeats, emitted as trace events.

    An emitter turns live simulation state (read through a {!source} of
    accessors) into {!Trace.Snapshot} events on an event-time cadence
    and, optionally, {!Trace.Heartbeat} events on a wall-clock cadence:

    - {e event-time snapshots} ([sim_every] simulation-time units,
      ticked by {!Engine}'s heartbeat hook) carry ops, live connections
      by QoS level, their sampled high watermark, hottest links, and
      counter deltas — all derived from simulation
      state only, so equal runs produce byte-identical streams whatever
      [--jobs] is;
    - {e wall heartbeats} ([wall_every] seconds) add real throughput and
      GC rate (minor/major allocation, heap size).  They carry
      wall-clock values and are excluded from determinism gates.

    Each tick emits one timestamped {!Trace.event} into a {!Trace.sink};
    the owner picks the serialisation ({!Trace.jsonl_sink} for a
    heartbeat file).  {!Analysis} and [drqos_cli top] replay the stream
    as {!Trace.snapshot} and {!Trace.heartbeat} records. *)

type source = {
  sim_time : unit -> float;
  events : unit -> int;  (** monotone dispatched-event count. *)
  live_by_level : unit -> int array;
  hot : unit -> (int * int) list;  (** hottest links, hottest first. *)
  counters : unit -> (string * int) list;
      (** name-sorted cumulative registry counters. *)
  slo : unit -> int * int;
      (** cumulative SLO [(good, bad)] request counts for this run.
          The emitter differences successive reads into the snapshot's
          rolling burn rate; counts must be per-run (not
          registry-cumulative) so the stream stays byte-identical
          across worker-pool widths.  [(0, 0)] when no SLO applies. *)
}

type t

val create : ?sim_every:float -> ?wall_every:float -> sink:Trace.sink -> unit -> t
(** An emitter with the given cadences ([sim_every] in simulation time
    units, [wall_every] in seconds; each optional, raising
    [Invalid_argument] when non-positive).  Call {!start} before
    ticking.  The emitter never closes [sink]; its owner does. *)

val sim_every : t -> float option
val wall_every : t -> float option

val start : t -> source -> unit
(** Attach the accessors and reset deltas, peaks and sequence numbers;
    the first {!tick} reports deltas relative to this instant. *)

val tick : t -> unit
(** Emit one event-time {!Trace.Snapshot}, stamped with the source's
    [sim_time] (no-op before {!start}). *)

val wall_tick : t -> unit
(** Emit one wall-clock {!Trace.Heartbeat} (no-op before {!start}). *)

val emitted : t -> int
(** Total events emitted (snapshots + heartbeats). *)
