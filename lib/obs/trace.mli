(** Typed trace events and pluggable sinks.

    Every event the paper's evaluation reasons about — admissions,
    rejections, elastic retreats/upgrades, failures, backup activations —
    has a dedicated constructor, so instrumented code cannot emit a
    malformed record.  Events are serialised on one JSONL line each:

    {v {"t": <sim time>, "ev": "<kind>", ...event fields} v}

    Emission through a disabled tracer is one load and one branch; call
    sites should still guard event {e construction} with {!enabled} so a
    disabled trace allocates nothing. *)

(** Periodic event-time heartbeat ({!Snapshot} module).  Every field
    derives from simulation state only, so equal runs emit
    byte-identical snapshot streams whatever [--jobs] is. *)
type snapshot = {
  seq : int;  (** per-emitter sequence number, from 0. *)
  events : int;  (** engine events dispatched so far. *)
  d_events : int;  (** events since the previous snapshot. *)
  live : int;  (** live connections. *)
  live_by_level : int list;  (** live connections per QoS level. *)
  peak_live : int;  (** high watermark of sampled [live]. *)
  hot : (int * int) list;
      (** hottest links as [(link, churn count)], the service's exact
          per-link counts, hottest first. *)
  counters : (string * int) list;
      (** metrics-registry counter deltas since the previous snapshot,
          name-sorted, zero deltas omitted. *)
  slo_good : int;  (** cumulative requests that met the SLO. *)
  slo_bad : int;  (** cumulative requests that missed it. *)
  slo_burn : float;
      (** bad fraction over the interval since the previous snapshot
          ([d_bad / (d_good + d_bad)]; 0 when idle) — the rolling burn
          rate. *)
}

(** Periodic wall-clock heartbeat: real throughput and GC rate.  Carries
    wall-clock values, so it is {e not} byte-reproducible — the
    deterministic stream gates exclude it. *)
type heartbeat = {
  seq : int;
  wall_s : float;  (** wall time since the emitter started. *)
  d_events : int;  (** events since the previous heartbeat. *)
  ops_per_s : float;  (** [d_events] over the wall interval. *)
  minor_words : float;  (** GC allocation since the previous beat. *)
  major_words : float;
  heap_words : int;  (** current major-heap size. *)
}

type event =
  | Admit of { channel : int; direct : int; indirect : int }
      (** Connection admitted; [direct]/[indirect] count the chained
          channels its arrival retreated (the paper's §3.1 sets). *)
  | Reject of { reason : string }
      (** ["no_primary_route"] or ["no_backup_route"]. *)
  | Terminate of { channel : int }
  | Upgrade of { channel : int; from_level : int; to_level : int }
      (** Elastic water-filling raised the channel: one event per
          channel per flush, [to_level - from_level] increments. *)
  | Retreat of { channel : int; from_level : int; to_level : int }
      (** Channel fell back toward its floor. *)
  | Link_fail of { edge : int }
  | Link_repair of { edge : int }
  | Backup_activate of { channel : int; reprotected : bool }
      (** A backup became the primary; [reprotected] is whether a new
          backup was found afterwards. *)
  | Backup_lost of { channel : int; replaced : bool }
  | Drop of { channel : int }
  | Restore of { channel : int; with_backup : bool }
      (** Reactive from-scratch re-establishment (ablation baseline). *)
  | Solve of { what : string; states : int; seconds : float }
  | Phase_begin of { name : string }
  | Phase_end of { name : string; seconds : float }
  | Span_begin of { name : string; wall_s : float }
      (** A profiler span opened; [wall_s] is wall time since the
          profiler's epoch (the ["t"] field stays simulation time). *)
  | Span_end of {
      name : string;
      wall_s : float;  (** wall time at close. *)
      total_s : float;
      self_s : float;  (** total minus direct children's totals. *)
      minor_words : float;  (** GC allocation over the span. *)
      major_words : float;
    }
  | Note of { name : string; fields : (string * Jsonx.t) list }
      (** Escape hatch for component-specific events. *)
  | Req_begin of { rid : int; verb : string }
      (** A served request entered dispatch.  [rid] is the propagated
          trace context id (client-assigned, non-negative) or a
          server-assigned negative id for untraced requests. *)
  | Req_stage of { rid : int; stage : string; seconds : float }
      (** One stage of a served request ({!Reqtrace.stage_name}:
          queue/parse/service/redistribute/write).  Durations, not
          timestamps, so records from different processes join. *)
  | Req_end of { rid : int; verb : string; ok : bool; total_s : float }
      (** Request completed; [total_s] is the sum of its stage
          durations, [ok] false for error replies. *)
  | Req_client of {
      rid : int;
      verb : string;
      sched_s : float;  (** scheduled due time within the replay. *)
      latency_s : float;
          (** scheduled-due → completion on the client's monotonic
              clock (coordinated-omission-safe). *)
    }
      (** The client-side record of one traced request; joins against
          the server's [Req_*] records on [rid] — the difference
          between [latency_s] and the server's stage sum is network +
          socket-queue time. *)
  | Snapshot of snapshot
  | Heartbeat of heartbeat

val kind : event -> string
(** The ["ev"] discriminator, e.g. ["backup_activate"]. *)

val to_json : time:float -> event -> Jsonx.t

val of_json : Jsonx.t -> (float * event, string) result
(** Inverse of {!to_json}: a timestamped event from one trace document.
    Total over everything {!to_json} writes; [Error] describes the
    missing/ill-typed field or unknown kind.  [lib/analysis] replays
    recorded JSONL traces through this. *)

val all_samples : event list
(** One sample per constructor — extend together with the type.  The
    serialisation round-trip test iterates this list, so a constructor
    added without {!to_json}/{!of_json} support (or without a sample
    here) fails CI. *)

(** A sink consumes timestamped events; [close] flushes and releases the
    underlying resource. *)
type sink = { emit : float -> event -> unit; close : unit -> unit }

val null_sink : sink

val jsonl_sink : out_channel -> sink
(** One compact JSON document per line; [close] closes the channel. *)

val console_sink : out_channel -> sink
(** Human-readable one-line rendering; [close] flushes but does not
    close. *)

type t

val disabled : t
val create : sink -> t
val enabled : t -> bool

val emit : t -> time:float -> event -> unit
(** No-op on a disabled tracer. *)

val close : t -> unit
(** Idempotent: the first call closes the sink, later calls are no-ops —
    so entry points may guard the same tracer with both [Fun.protect]
    and [at_exit]. *)
