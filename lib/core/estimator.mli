(** Measurement of the Markov model's parameters from a running
    simulation — §3.3 of the paper.

    The paper's transition probabilities cannot be derived in closed form
    on irregular topologies, so they are measured: this module consumes
    the {!Drcomm.report} of each churn event and accumulates

    - [P_f]: probability that an existing channel shares at least one
      link with a newly-arrived channel (ratio of sums across events);
    - [P_s]: probability that an existing channel is indirectly chained
      with a newly-arrived channel;
    - [A]: level-transition matrix of directly-chained channels at
      arrivals (and, recorded separately, at failures);
    - [B]: level-transition matrix of indirectly-chained channels at
      arrivals;
    - [T]: level-transition matrix of directly-chained channels at
      terminations.

    All matrices are conditional on the channel being affected, include
    the diagonal (no-change) outcomes, and are returned row-stochastic;
    rows never observed default to the identity row. *)

type t

val create : levels:int -> t
(** [levels] is the N of the target Markov chain (levels of the QoS
    spec). *)

val observe_arrival : t -> Drcomm.report -> unit
val observe_termination : t -> Drcomm.report -> unit
val observe_failure : t -> Drcomm.report -> unit
(** Failure transitions are kept out of [A] (the paper folds them in via
    the same matrix; we record them separately so that choice can be
    validated — see {!f_matrix}). *)

val arrivals : t -> int
val failures : t -> int

val p_f : t -> float
(** Sum of direct counts / sum of existing counts over arrival events;
    0 if nothing observed. *)

val p_s : t -> float

val p_f_termination : t -> float
(** Same ratio measured at terminations — a consistency check: in steady
    state it should approximate {!p_f}. *)

val a_matrix : t -> Matrix.t
val b_matrix : t -> Matrix.t
val t_matrix : t -> Matrix.t
val f_matrix : t -> Matrix.t
(** Transition matrix measured at failures only. *)

val a_row_count : t -> int -> int
(** Number of observations behind row [i] of [A] (to judge confidence). *)

val adaptations : t -> int
(** Level changes observed across all events (transitions with
    [before <> after]) — the re-adjustment traffic the paper's Table 1
    discussion attributes to small increment sizes. *)

val adaptation_rate : t -> float
(** {!adaptations} per observed churn event (arrivals + terminations +
    failures); 0 when nothing observed. *)

val to_json : t -> Jsonx.t
(** Event totals and the measured chaining probabilities, for the
    metrics manifest [drqos_cli run] writes. *)

val pp_summary : Format.formatter -> t -> unit
