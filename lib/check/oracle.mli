(** Differential oracles: regimes where two independent implementations
    of the paper's model must agree, or where an operation sequence must
    be an exact no-op.  All checks raise [Failure] with a diagnosis. *)

val check_gamma0_agreement : Qos.t -> unit
(** The average bandwidth of the paper's Markov chain built for a
    failure-free, direct-chain-free regime ([gamma = 0], [P_f = 0],
    adjacent-level upgrade matrices), where redistribution alone must
    drive the channel to its ceiling, must equal [b_max] within a
    relative [1e-6], and {!Ideal.bandwidth_capped} for an
    uncontended channel must saturate at [b_max] exactly — the
    simulator, chain and formula agree in the degenerate regime. *)

val check_unshared_at_ceiling : Drcomm.t -> unit
(** Simulator-side counterpart: with auto-redistribution on, an elastic
    channel sharing {e no} link (and whose links could hold its
    ceiling) must sit at its top level.  No-op when auto-redistribution
    is off. *)

val check_fail_repair_roundtrip : Drcomm.t -> edge:int -> unit
(** For a usable edge carrying {e no} primary channel (raises
    [Invalid_argument] otherwise): failing it, repairing it and
    re-running global redistribution must restore every channel's level
    and reservation, the total reserved bandwidth, and every link's
    primary totals exactly.  Only passive backups may have moved.
    Mutates [t] transiently (including one global redistribution pass
    up front, to pin the comparison at the water-filling fixed
    point). *)
