(** Dense row-major matrices over [float].

    This is the small numeric substrate needed to solve the paper's Markov
    chains (N x N with N <= a few dozen); it favours clarity and exactness
    of the API over raw speed. *)

type t

val create : int -> int -> t
(** [create rows cols] is the all-zero matrix. *)

val identity : int -> t

val of_arrays : float array array -> t
(** Copies its input.  All rows must have equal length; raises
    [Invalid_argument] otherwise. *)

val to_arrays : t -> float array array
(** Fresh copy of the contents. *)

val rows : t -> int
val cols : t -> int

val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit
val add_to : t -> int -> int -> float -> unit
(** [add_to m i j x] adds [x] to element [(i, j)]. *)

val copy : t -> t
val transpose : t -> t

val mul_vec : t -> float array -> float array
(** [mul_vec m v] is [m v]. *)

val row_sums : t -> float array

val max_abs : t -> float
(** Largest absolute element (infinity-like norm over entries). *)

val equal : t -> t -> bool
(** Element-wise comparison with absolute tolerance 1e-12. *)
