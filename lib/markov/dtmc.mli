(** Discrete-time Markov chains: the row-stochastic check that {!Model}
    applies to the level-transition matrices (A, B, T) measured from
    simulation. *)

val validate : Matrix.t -> unit
(** Checks the matrix is square, entries are in [0, 1] and rows sum to 1
    (tolerance 1e-9).  Raises [Invalid_argument] otherwise. *)
