(** Priority queue of timed events: a binary heap with O(log n)
    insertion and extraction.

    Ties in time are broken by insertion order, so simulations are fully
    deterministic. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** [capacity] pre-sizes the heap for an expected number of
    concurrently-scheduled events (default: grow on demand) — avoids
    the doubling cascade when a simulation schedules millions of events
    up front. *)

val add : 'a t -> time:float -> 'a -> unit
(** Schedules a payload.  [time] must be finite; raises otherwise. *)

val pop : 'a t -> (float * 'a) option
(** Earliest event, removed; among equal times, the first added. *)

val peek_time : 'a t -> float option

val size : 'a t -> int
(** Number of scheduled events. *)
