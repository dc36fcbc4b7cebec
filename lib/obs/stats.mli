(** Streaming sample statistics for simulation output analysis: the
    accumulator behind {!Metrics} timers, replication summaries and
    packet delays.  Time-weighted averages are {!Scenario}'s own
    integrals, and duration histograms live in the {!Metrics} timers. *)

(** Streaming mean/variance (Welford's algorithm): numerically stable,
    O(1) memory. *)
module Welford : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  (** 0 when empty. *)

  val variance : t -> float
  (** Unbiased sample variance; 0 with fewer than two samples. *)

  val stddev : t -> float
  val min_value : t -> float
  val max_value : t -> float

  val confidence_interval : t -> float * float
  (** Normal-approximation 95% CI around the mean ([z = 1.96]).
      Degenerate (mean, mean) with fewer than two samples. *)

  val merge : t -> t -> t
  (** Combine two accumulators (Chan's parallel update). *)
end
