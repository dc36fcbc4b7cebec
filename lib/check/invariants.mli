(** Strengthened whole-system invariants over a live {!Drcomm} service.

    {!Drcomm.check_invariants} audits the service's own records; the
    checks here go further and cross-examine layers against each other:
    the network layer must hold {e exactly} the reservations and backup
    registrations implied by the channel table, failed edges must carry
    no live path, auto-redistribution must leave a water-filling fixed
    point, and — the paper's central safety claim — no {e single} edge
    failure may over-subscribe any link through backup activation.

    Every check raises [Failure] with a human-readable diagnosis; the
    fuzzer turns that into a shrunk reproducer. *)

(** {1 Metrics consistency} *)

(** Expected values of the [drcomm.*] event counters, as predicted from
    the reports returned by the mutating calls.  (Upgrade/retreat
    counters are deliberately absent: their totals are not derivable
    from reports alone.) *)
type counters = {
  admits : int;
  rejects : int;
  terminations : int;
  link_failures : int;
  link_repairs : int;
  backup_activations : int;
  backup_losses : int;
  drops : int;
  restores : int;
}

val read_counters : Metrics.t -> counters
val pp_counters : Format.formatter -> counters -> unit

val check_counters : expected:counters -> Metrics.t -> unit
(** The registry's [drcomm.*] counters must equal [expected] exactly —
    an event counted without happening (or vice versa) is a bug even
    when the data path is correct. *)

(** {1 State invariants} *)

val check_failed_edge_unroutability : Drcomm.t -> unit
(** No live channel's primary may traverse a failed edge, and no held
    (passive) backup may cross one either — a backup over a failed edge
    could never activate, yet would keep occupying pool demand. *)

val check_link_accounting : Drcomm.t -> unit
(** Rebuild every link's primary reservations, backup registrations
    (floor {e and} primary-edge key), per-edge activation demands and
    totals from the channel table, and require the {!Link_state} layer
    to match exactly. *)

val check_redistribution_complete : Drcomm.t -> unit
(** With auto-redistribution on: no elastic channel below its ceiling
    may have an increment of spare on every link of its path.  No-op
    while auto-redistribution is off. *)

val check_incremental_equivalence : Drcomm.t -> unit
(** With auto-redistribution on: a full water-filling pass
    ({!Drcomm.redistribute_all}) over the current state must change no
    reservation — the incremental dirty-link machinery already sits at
    the global fixed point.  No-op while auto-redistribution is off. *)

val check_single_failure_safety : Drcomm.t -> unit
(** For every usable edge, hypothetically fail it: victims release
    their floors, each victim's first still-usable backup activates at
    its floor; no link may exceed capacity.  Skipped while any link's
    guarantee constraint is (legitimately, transiently) broken after a
    multi-failure forced activation. *)

val check_all :
  ?expected:counters -> ?metrics:Metrics.t -> ?deep:bool -> Drcomm.t -> unit
(** {!Drcomm.check_invariants} plus every check above.  [deep] (default
    [true]) includes {!check_single_failure_safety}, the only
    superlinear one.  Counters are checked when both [expected] and
    [metrics] are given. *)
