(** Extra-resource adaptation policies — §2.2 of the paper — as
    first-class values.

    When bandwidth beyond the floors is available, the network walks
    eligible channels and grants one increment at a time (water-filling).
    A policy owns that walk: it decides {e who gets the next increment}
    and {e in what discipline} the grants are issued.  The paper
    evaluates with equal utilities ("fair distribution"); the
    coefficient/proportional and max-utility schemes it describes are
    also provided, and compared in the ablation benches.

    Policies used to be a closed variant baked into the service; they are
    now values, so alternative redistribution strategies (slice-weighted,
    survivability-priced, …) plug in without touching the hot path. *)

type claim = { utility : float; extras_granted : int }
(** A channel's standing in the current water-filling round:
    [extras_granted] counts increments already granted above the floor. *)

(** What the redistribution core hands a policy: how to read a
    candidate's claim, whether one more increment fits on its whole
    path, how to grant it, and the deterministic last-resort tie-break
    (the service compares channel ids).  The element type stays abstract
    to the policy — it never inspects channels directly.

    Within one [run], [grant] must be the only write and [can_upgrade]
    a pure query.  A grant raises the granted candidate's
    [extras_granted] by exactly one, leaves its utility and every other
    claim as they were, and only takes capacity, so once [can_upgrade]
    answers [false] for a candidate it keeps answering [false] until the
    run ends. *)
type 'a env = {
  claim : 'a -> claim;
  can_upgrade : 'a -> bool;
  grant : 'a -> unit;
  tie : 'a -> 'a -> int;
}

type t = {
  name : string;  (** stable identifier; {!of_string} accepts it. *)
  order : claim -> claim -> int;
      (** total preorder: negative when the first claim deserves the
          next increment more. *)
  run : 'a. 'a env -> 'a list -> unit;
      (** water-fill the candidates to a fixed point: afterwards no
          candidate may have [can_upgrade] true.  Must terminate —
          every grant consumes one increment of finite link capacity. *)
}

val make :
  name:string ->
  order:(claim -> claim -> int) ->
  style:[ `Rounds | `Exact | `Drain ] ->
  t
(** Build a policy from an ordering and a grant discipline:

    - [`Rounds]: sort the candidates once by [order]; each round walks
      the previous round's survivors in that order, grants one
      increment to every one that fits and keeps only those, until
      none is left.  A refused candidate is dropped, since a refusal is
      final within a run.  Contract: [order] must compare two claims
      the same after both gain one extra, as equal-share's does; then
      the survivors are still sorted after a round, and the grants are
      those of re-sorting every candidate before each round.  An order
      such as extras per unit of utility breaks it: use [`Exact];
    - [`Exact]: each step filters the previous step's eligible
      candidates, re-sorts them and grants exactly the best one.  Exact
      for every [order];
    - [`Drain]: sort once, then drain each candidate to its ceiling
      before the next sees anything.

    Ties under [order] break via the environment's [tie]. *)

val equal_share : t
(** ["equal-share"], [`Rounds] by fewest extras granted: round-robin by
    current extra allocation, lowest first.  With equal utilities this is
    the paper's fair distribution. *)

val proportional : t
(** ["proportional"], [`Exact] by fewest increments per unit of utility —
    the coefficient scheme (Han, PhD 1998) on the increment grid. *)

val max_utility : t
(** ["max-utility"], [`Drain] by highest utility: the highest-utility
    channel takes all it can before anyone else — may monopolise, as the
    paper warns. *)

val pp : Format.formatter -> t -> unit
(** Prints {!val-name}. *)

val name : t -> string

val equal : t -> t -> bool
(** By {!val-name} — policy values carry closures, so structural
    equality would raise. *)

val of_string : string -> t option
(** Resolves the built-in policies by name (plus the historical aliases
    [equal], [coefficient], [max]). *)

val all : t list
(** The built-in policies, in presentation order. *)

val compare_claims : t -> claim -> claim -> int
(** [compare_claims t] is [t.order] — kept as a function for callers
    that only rank claims. *)
