(** Direct solution of small dense linear systems. *)

exception Singular
(** Raised when elimination meets a pivot column that is numerically zero. *)

val gaussian : Matrix.t -> float array -> float array
(** [gaussian a b] solves [a x = b] by Gaussian elimination with partial
    pivoting.  [a] must be square with [rows a = Array.length b].
    Raises {!Singular} if [a] is (numerically) singular.  [a] and [b] are
    not modified. *)

val solve_left_nullvector : ?obs:Obs.t -> Matrix.t -> float array
(** [solve_left_nullvector q] returns the probability vector [pi] with
    [pi q = 0] and [sum pi = 1] — the stationary distribution of the CTMC
    whose generator is [q].  Implemented by replacing one equation of the
    transposed system with the normalisation constraint.  Raises
    {!Singular} when the chain is reducible (no unique stationary
    vector).  When [obs] (default {!Obs.null}) has live metrics, the
    gauge [linalg.nullvector_residual] records the raw solve's
    residual. *)

val residual : Matrix.t -> float array -> float array -> float
(** [residual a x b] is the infinity norm of [a x - b]; a cheap a-posteriori
    accuracy check. *)

val approx_eq : ?eps:float -> float -> float -> bool
(** [approx_eq a b] is [Float.abs (a -. b) <= eps] (default [eps] 1e-9) —
    the project's one named epsilon comparison.  Raw [=] / [<>] on
    computed floats is rejected by the linter (rule R1): use
    [Float.equal] where bit-exact identity is the intent (tie-breaking,
    sentinel values, division-by-zero guards) and this helper where
    tolerance is.  [nan] is never approximately equal to anything. *)
