(** Continuous-time Markov chains on a finite state space.

    This module replaces the SHARPE tool the paper used: it builds the
    infinitesimal generator from a list of transition rates and solves for
    the stationary distribution directly (exact for the paper's N <= 9
    chains).  The steady state is the one Markov computation the paper's
    evaluation needs, so that is all this module solves. *)

type t

val create : int -> t
(** [create n] is a chain on states [0 .. n-1] with no transitions yet. *)

val add_rate : t -> src:int -> dst:int -> float -> unit
(** Accumulates rate onto the [src -> dst] transition.  [src <> dst],
    rate >= 0 (zero is accepted and ignored). *)

val rate : t -> src:int -> dst:int -> float

val generator : t -> Matrix.t
(** The generator matrix [q]: off-diagonals are the accumulated rates,
    each diagonal entry is minus its row sum. *)

val stationary : ?obs:Obs.t -> t -> float array
(** Stationary probability vector [pi] ([pi q = 0], [sum pi = 1]).
    Raises {!Linsolve.Singular} when the chain is reducible.

    [obs] (default {!Obs.null}) receives the solve: counter
    [markov.stationary_solves], timer [markov.stationary_s], one
    [Solve] trace event, and {!Linsolve.solve_left_nullvector}'s
    residual gauge. *)

val mean_reward : ?obs:Obs.t -> t -> (int -> float) -> float
(** [mean_reward c reward] is [sum_i pi_i * reward i] — e.g. the paper's
    average reserved bandwidth when [reward i = b_min + i * delta].
    [obs] observes the {!stationary} solve. *)
