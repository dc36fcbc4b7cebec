(** Reservation bookkeeping for one directed link.

    A link carries three kinds of load:

    - {e primary reservations}: per-channel bandwidth actually reserved,
      [floor <= reserved <= b_max].  Anything above the channel's floor is
      "extra" and reclaimable at any time;
    - {e the backup pool}: bandwidth set aside for the backup channels
      registered here.  With multiplexing (the default, as in the paper),
      the pool is the worst-case {e single-failure} activation demand:
      [max over edges f of sum of floors over backups whose primary
      traverses f].  Without multiplexing it is the plain sum — the
      baseline the paper's backup-multiplexing argument beats;
    - nothing for activated backups: activation converts a backup into a
      primary reservation.

    Crucially (§2.2 of the paper), the backup pool is {e borrowable}:
    while no failure has activated the backups, elastic extras may occupy
    the pool's bandwidth.  Hence two distinct capacity constraints:

    - hard: [primary_total <= capacity] — physics;
    - guarantee: [primary_min_total + backup_pool <= capacity] — enforced
      at admission/registration time, so that retreating every extra
      always frees enough room to activate any single failure's backups. *)

type t

val create : ?multiplexing:bool -> capacity:Bandwidth.t -> unit -> t
(** [multiplexing] defaults to [true].  Raises [Invalid_argument] unless
    [0 < capacity < 2^32]: the per-edge demand index packs a demand,
    which never exceeds the capacity, into the low 32 bits of an int. *)

val capacity : t -> Bandwidth.t

(** {1 Primary reservations} *)

val reserve_primary : ?force:bool -> t -> channel:int -> b_min:Bandwidth.t -> unit
(** Admit a channel at its floor.  The normal admission test is
    {!admissible_primary} (floor fits beside other floors {e and} the
    backup pool).  [~force:true] — used when activating a backup, whose
    bandwidth was already accounted in the pool — only requires the floor
    to fit physically beside the other floors.  In both cases the caller
    must have reclaimed extras first so that [primary_total] stays within
    capacity; raises [Invalid_argument] otherwise. *)

val admissible_primary : t -> b_min:Bandwidth.t -> bool
(** [primary_min_total + backup_pool + b_min <= capacity]. *)

val set_primary : t -> channel:int -> Bandwidth.t -> unit
(** Adjust an existing reservation (elastic upgrade/retreat).  The new
    value must be >= the channel's floor and keep
    [primary_total <= capacity] — extras may borrow the backup pool.
    Raises [Invalid_argument] otherwise. *)

val release_primary : t -> channel:int -> unit
(** Remove a channel's reservation.  Raises [Not_found] if absent. *)

val primary_reservation : t -> channel:int -> Bandwidth.t option
val primary_channels : t -> (int * Bandwidth.t) list
(** [(channel, reserved)] pairs, unordered. *)

val iter_primary_channels : (int -> Bandwidth.t -> unit) -> t -> unit
val primary_count : t -> int
val primary_total : t -> Bandwidth.t
val primary_min_total : t -> Bandwidth.t

val extras_count : t -> int
(** How many primaries here currently hold bandwidth above their floor —
    O(1).  The service's retreat paths skip whole links on 0 instead of
    scanning their channel sets. *)

val iter_extras : (int -> Bandwidth.t -> unit) -> t -> unit
(** [(channel, reserved)] for every primary holding extras
    ([reserved > floor]).  A flat walk, and a no-op when
    [extras_count = 0]. *)

(** {1 Backup registrations} *)

val register_backup :
  t -> channel:int -> b_min:Bandwidth.t -> primary_edges:int array -> unit
(** Register a backup whose primary traverses the given undirected edges.
    Raises [Invalid_argument] if the resulting pool would violate the
    guarantee constraint, on double registration, or on a negative edge
    id or one of 2^30 or more (the demand index packs the id above the
    demand).

    The link keeps [primary_edges] itself, not a copy: every link of one
    backup path may register the same array (as [Drcomm] does, one array
    per backup path).  The caller must never mutate it afterwards. *)

val backup_pool_with : t -> b_min:Bandwidth.t -> primary_edges:int array -> Bandwidth.t
(** Pool size if such a backup were added — the backup admission test is
    [primary_min_total + backup_pool_with <= capacity].  With multiplexing
    this is [max backup_pool (b_min + backup_demand_for_edge e)] over the
    primary's edges [e]: one {!backup_demand_for_edge} per edge, and no
    allocation.  It is often just the current pool (free
    dependability — the paper's key resource saving).  Without
    multiplexing it is [backup_dedicated_demand + b_min]. *)

val backup_headroom :
  t -> b_min:Bandwidth.t -> primary_edges:int array -> at_most:Bandwidth.t -> Bandwidth.t
(** The backup headroom capped at [at_most], for [b_min >= 0] and
    [at_most >= 0]: with
    [h = capacity - primary_min_total - backup_pool_with ~b_min ~primary_edges],
    [-1] when [h < 0] (the backup does not fit) and [min at_most h]
    otherwise.  So [backup_headroom ~at_most:0 >= 0] is the backup
    admission test, [primary_min_total + backup_pool_with <= capacity].

    It answers [at_most] in O(1), reading no per-edge demand, when
    [capacity - primary_min_total - backup_pool - b_min >= at_most].
    The shortcut is exact: every edge's demand is at most {!backup_pool}
    (a stale maximum is recomputed first), so the new pool is at most
    [backup_pool + b_min] and [h] is at least that bound.  Without
    multiplexing the pool is the plain sum and the bound is [h] itself.
    A route search passes its path's bottleneck so far as [at_most], so
    the demands are read only where this link could lower it; a search
    that needs only the verdict passes [0]. *)

val unregister_backup : t -> channel:int -> unit
val has_backup : t -> channel:int -> bool
val backup_channels : t -> int list

val iter_backup_channels : (int -> unit) -> t -> unit
(** Every channel with a backup registered here — a flat walk over the
    indexed set (the failure path resolves a failed edge's victims from
    its two directed links instead of scanning every connection). *)

val backup_pool : t -> Bandwidth.t
(** With multiplexing this is served from an incrementally maintained
    cache: registrations update it in place, and only an unregistration
    that removed demand at the cached maximum forces a lazy recompute,
    one walk over the demand index's array.  Amortised O(1) on the
    admission hot path. *)

val multiplexing : t -> bool

val backup_registration : t -> channel:int -> (Bandwidth.t * int list) option
(** The registered floor and the primary's undirected edges for one
    channel's backup here, if any — what external auditors (the fuzzer's
    cross-layer invariants) compare against the service's own records.
    The list is a fresh copy of the registered array. *)

val backup_demand_for_edge : t -> int -> Bandwidth.t
(** Activation demand this link would face if the given undirected edge
    failed: sum of floors of backups registered here whose primary
    traverses it.  0 for edges no registered primary uses.  With
    multiplexing, {!backup_pool} is the max of these over all edges.
    Read from an open-addressing table over one int array, each entry
    packing an edge id and its demand: the edge's home slot is read
    inline, the probe runs on only when another edge holds it, and the
    read allocates nothing. *)

val edge_demands : t -> (int * Bandwidth.t) list
(** Every [(edge, demand)] pair with non-zero recorded demand,
    unordered: an edge whose demand falls to 0 leaves the index. *)

val backup_dedicated_demand : t -> Bandwidth.t
(** What the pool would be {e without} multiplexing: the plain sum of
    registered backup floors.  [backup_pool <= backup_dedicated_demand];
    the gap is the overbooking saving on this link. *)

(** {1 Capacity queries} *)

val spare : t -> Bandwidth.t
(** [capacity - primary_total]: bandwidth an elastic upgrade may take
    right now (extras borrow the inactive backup pool). *)

val reclaimable_headroom : t -> Bandwidth.t
(** [capacity - primary_min_total - backup_pool]: what admission control
    may count on after reclaiming all extras. *)

val guarantee_holds : t -> bool
(** Whether [primary_min_total + backup_pool <= capacity].  Always true
    outside failure recovery; may transiently fail after a failure
    converts backups to primaries (multi-failure corner), until churn or
    repair restores it. *)

val check_invariant : t -> unit
(** Raises [Failure] if internal accounting is inconsistent or the hard
    capacity constraint is violated.  The demand index is recomputed
    from the registrations and compared, and the table itself is
    audited: no entry with a zero demand, every entry reachable from its
    home slot without crossing an empty slot, and a live count equal to
    the occupied slots. *)
