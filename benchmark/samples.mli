(** Raw per-operation samples and exact quantiles over them.

    The benchmark keeps every sample and sorts them, instead of reading
    the ~12%-resolution log buckets of {!Metrics} timers: a 10% bound
    needs a finer instrument than that.  A failed operation enters the
    sample as [infinity], so it counts as missing every latency limit. *)

type t

val create : unit -> t
val add : t -> float -> unit

val add_failed : t -> unit
(** Record a failed operation ([infinity]). *)

val count : t -> int

val failed : t -> int
(** The samples that are failed operations. *)

val sum : t -> float
(** Sum of the samples ([infinity] once any failed). *)

val mean : t -> float
(** [0.] on an empty sample. *)

val to_array : t -> float array
(** A copy of the samples, in the order they were added. *)

val sorted : t -> float array
(** A sorted copy of the samples. *)

val quantile_sorted : float array -> float -> float
(** [quantile_sorted a q] is the nearest-rank [q]-quantile of the sorted
    array [a]: the sample of rank [ceil (q * n)], and the minimum at
    [q = 0].  Raises [Invalid_argument] on an empty array or [q] outside
    [[0, 1]]. *)

val quantile : t -> float -> float
(** {!quantile_sorted} over {!sorted}. *)
