(** Hierarchical wall-clock span profiler.

    A profiler owns a stack of open spans; entering a span pushes a
    frame, exiting pops it and produces a {!record} carrying the span's
    {e total} wall time, its {e self} time (total minus the total time
    of its direct children), and the GC minor/major words it allocated
    (children included).  Per-name aggregates are kept unbounded; full
    per-instance records are retained up to a cap so a long profiled run
    cannot exhaust memory.

    The profiler is single-domain state.  Worker domains get their own
    via [Obs.fork]; {!merge_into} folds a worker's aggregates back at
    join time.

    {!Obs.span} drives this module and, when a tracer is live, emits
    each enter/exit as [Span_begin]/[Span_end] trace events — which is
    how span timings reach a recorded JSONL trace and, from there, the
    Perfetto export ([drqos_cli analyze --perfetto]). *)

type record = {
  name : string;
  depth : int;  (** 0 = no enclosing span. *)
  start_s : float;  (** wall seconds since profiler creation. *)
  total_s : float;
  self_s : float;  (** [total_s] minus the direct children's totals. *)
  minor_words : float;  (** GC delta over the span, children included. *)
  major_words : float;
}

type agg = {
  agg_name : string;
  count : int;
  agg_total_s : float;
  agg_self_s : float;
  agg_minor_words : float;
  agg_major_words : float;
}

type t

val disabled : t
(** The shared no-op profiler: {!enter} returns [None], {!wrap} runs the
    thunk untouched (no clock or GC reads). *)

val create : ?keep:int -> unit -> t
(** A live profiler whose epoch is now.  [keep] (default 4096) caps the
    retained per-instance records; aggregates are never dropped. *)

val enabled : t -> bool

val depth : t -> int
(** Currently open spans. *)

type frame

val enter : t -> string -> frame option
(** Open a span; [None] on a disabled profiler. *)

val exit : t -> frame -> record option
(** Close a span.  The frame must be the innermost open one (raises
    [Invalid_argument] otherwise — spans are strictly nested). *)

val add : t -> record -> unit
(** Count one completed record: into its name's aggregate, and into the
    retained records while fewer than [keep] are held (else the drop
    tally).  {!exit} does exactly this with the record it builds;
    replaying a trace's [Span_end] events through [add] on a [~keep:0]
    profiler rebuilds the live profiler's {!aggregate}.  No-op on a
    disabled profiler. *)

val frame_start : frame -> float

val wrap : t -> string -> (unit -> 'a) -> 'a
(** [wrap t name f] = enter, run [f], exit (even on raise). *)

val records : t -> record list
(** Completed spans in completion order, capped at [keep]. *)

val dropped_records : t -> int
(** Records lost to the cap (aggregates still counted them). *)

val aggregate : t -> agg list
(** Per-name totals, sorted by self time descending (name-ordered within
    ties). *)

val merge_into : into:t -> t -> unit
(** Fold [src]'s aggregates into [into] (worker-domain join).  Records
    do not transfer — they count into [src]'s drop tally.  A no-op when
    either side is disabled; raises [Invalid_argument] when both are the
    same live profiler. *)

val to_json : t -> Jsonx.t
(** The aggregate table as
    [[{"name", "count", "total_s", "self_s", "minor_words",
    "major_words"}, ...]] — the ["spans"] section of the bench
    harness's [BENCH_<exp>.json] records. *)
