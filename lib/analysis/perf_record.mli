(** [BENCH_*.json] perf records: the one module that knows their format.

    Two writers produce them — the bench harness ([Exp.with_record]
    writes [BENCH_<experiment>.json]) and the load generator
    ([loadgen --out] writes [BENCH_serve.json]) — and one reader
    compares them ([drqos_cli perfdiff], behind [scripts/perf_diff.sh]).
    A record is one JSON object; every key in it is built and read here,
    so callers hand over typed values and get typed values back. *)

type scale = Full | Quick  (** written as ["full"] / ["quick"]. *)

type gc = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
}
(** GC deltas over a measured region.  [Gc.quick_stat] is per-domain,
    so allocation inside worker domains is not in them (the bench
    records carry it in their span aggregates instead). *)

val with_gc : (unit -> 'a) -> 'a * gc
(** [with_gc f] runs [f] and returns its result with the calling
    domain's GC delta across the call — the one GC-delta helper both
    writers use. *)

type plateau = { live : int; ops : int; ops_per_sec : float; us_per_op : float }
(** One point of the scale bench's cost-vs-live-population curve. *)

type latency = { p50 : float; p95 : float; p99 : float; p999 : float; max : float }

type serve = {
  requests : int;  (** operations replayed. *)
  rate_rps : float;  (** offered load. *)
  live_target : int;
  arrivals : string;  (** arrival process name. *)
  achieved_rps : float;
  max_lag_s : float;
  latency_s : latency;  (** client-side, open-loop. *)
  rejected : int;
  stale : int;
  errors : int;
  slo_good : int;
  slo_bad : int;
}
(** What one load-generator replay measured. *)

type t
(** A record, built or loaded. *)

val bench :
  experiment:string ->
  scale:scale ->
  jobs:int ->
  wall_s:float ->
  gc:gc ->
  metrics:Metrics.t ->
  spans:Span.t ->
  ?plateaus:plateau list ->
  unit ->
  t
(** A bench experiment's record: wall time, GC deltas, the metrics
    registry ({!Metrics.snapshot}, under ["metrics"]), the span aggregate
    table ({!Span.to_json}) and, for the scale bench, its plateau
    curve. *)

val serve :
  scale:scale ->
  jobs:int ->
  wall_s:float ->
  gc:gc ->
  stage_p99_s:(string * float) list ->
  serve ->
  t
(** A load-generator replay's record ([experiment = "serve"]), with the
    daemon's per-stage p99s ([req.*] timer name, seconds). *)

val write : out_channel -> t -> unit
(** The record as one JSON line. *)

val load : string -> (t, string) result
(** Read a record; [Error] names the file and the problem (unreadable,
    not JSON, or no numeric ["wall_s"]).  Keys this module does not
    know are ignored. *)

val wall_s : t -> float

val major_words : t -> float option
(** The GC delta's major-heap words, when the record carries them. *)

val tables : t -> (string * (string * float) list) list
(** The record's per-name value tables, in a fixed order, each
    possibly empty: ["span (self_s)"] (span name → self time) and
    ["stage (p99_s)"] (serve stage → p99). *)

val join :
  (string * float) list ->
  (string * float) list ->
  (string * float option * float option) list
(** Two tables over the sorted union of their names. *)

val pct_change : float -> float -> float
(** [pct_change base fresh]: percent change, [0.] when [base <= 0]. *)

val regressed : max_pct:float -> float -> float -> bool
(** [regressed ~max_pct base fresh]: [fresh] exceeds [base] by more
    than [max_pct] percent — the [perfdiff --max-regress] gate. *)
