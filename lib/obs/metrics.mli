(** Named counters, gauges, and latency timers.

    Instruments are interned by name in a registry and keep a pointer
    back to it, so a disabled registry reduces every record call to one
    load and one branch — no allocation, no hashing.  Hot paths mint
    their instruments once (at component creation) and call {!incr} /
    {!set} / {!observe} unconditionally.

    A snapshot serialises the whole registry to a {!Jsonx} document with
    deterministic (name-sorted) field order. *)

type t
type counter
type gauge
type hwm
type timer

val create : unit -> t
(** A fresh, live registry. *)

val disabled : t
(** The shared always-off registry: instruments minted from it are
    no-ops forever. *)

val enabled : t -> bool

val counter : t -> string -> counter
(** Interned by name: two calls with the same name return the same
    counter. *)

val incr : counter -> unit
val add : counter -> int -> unit
val count : counter -> int

val gauge : t -> string -> gauge
val set : gauge -> float -> unit
val value : gauge -> float

val hwm : t -> string -> hwm
(** A high-watermark gauge: records only the largest value observed.
    Unlike {!gauge}, whose last value is order-dependent under parallel
    merges, a watermark max-merges exactly — the combined value is the
    true peak across domains in any absorb order. *)

val observe_hwm : hwm -> float -> unit
val hwm_value : hwm -> float
(** Largest value ever observed; [0.] before the first update. *)

val timer : t -> string -> timer

val observe : timer -> float -> unit
(** Record one span of [seconds]. *)

val time : timer -> (unit -> 'a) -> 'a
(** Run the thunk and record its wall-clock duration (even on raise).
    When the registry is disabled the thunk runs without any clock
    reads. *)

val timer_count : timer -> int
val timer_total : timer -> float

val timer_max : timer -> float
(** Largest duration ever observed (exact, from the running stats, not
    the histogram); [0.] on an empty timer.  Max-merges exactly across
    {!merge_into}, so a parallel run's merged maximum is the true
    worst case. *)

val timer_quantile : timer -> float -> float
(** Approximate duration quantile from a fixed log-bucket histogram
    (20 buckets per decade over 1 ns .. 1000 s — ~12% relative
    resolution), deterministic with no sampling seed.  [q] in [0, 1];
    0 on an empty timer; raises [Invalid_argument] outside the range. *)

val counter_values : t -> (string * int) list
(** Cumulative counter values, name-sorted; [[]] on a disabled
    registry.  {!Snapshot} diffs successive calls into per-interval
    deltas. *)

val merge_into : into:t -> t -> unit
(** Fold [src]'s instruments into [into], interning by name: counters and
    timer observations add exactly (so a parallel sweep merging private
    worker registries counts the same as a sequential run); gauge peaks
    and high watermarks take the max (order-independent), gauge last
    values are best-effort (taken from the source when it recorded any
    update).  A no-op when [into] is disabled; raises [Invalid_argument]
    when both arguments are the same registry. *)

val snapshot : t -> Jsonx.t
(** [{"enabled": bool, "counters": {...}, "gauges": {name: {value, peak,
    updates}}, "hwm": {name: {value, updates}}, "timers": {name: {count,
    total_s, mean_s, min_s, max_s, p50_s, p95_s, p99_s}}}] — the
    percentile fields come from {!timer_quantile}'s log-bucket
    histogram. *)
