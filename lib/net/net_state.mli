(** Whole-network resource state: one {!Link_state} per directed link of a
    topology, plus the set of currently-failed edges.

    Failures are per {e undirected} edge (a cable cut takes out both
    directions), matching the paper's single-component failure model. *)

type t

val create : ?multiplexing:bool -> ?capacity:Bandwidth.t -> Graph.t -> t
(** Every link gets the same [capacity] (default
    {!Bandwidth.paper_link_capacity}); the paper notes this uniformity is
    an intranet-style assumption that is easy to relax — use
    {!set_capacity} to do so. *)

val create_heterogeneous :
  ?multiplexing:bool -> capacity_of:(Dirlink.id -> Bandwidth.t) -> Graph.t -> t

val graph : t -> Graph.t
val multiplexing : t -> bool

val scratch : t -> Paths.scratch
(** The network's one route-search scratch, created with it and sized to
    its graph; every search on this network runs on it.  A network and
    its scratch belong to one domain, and no search may start from
    inside a callback of another search on the same network (see
    {!Paths.scratch}). *)

val link : t -> Dirlink.id -> Link_state.t
(** Raises [Invalid_argument] for an out-of-range id. *)

val link_count : t -> int

(** {1 Failures} *)

val fail_edge : t -> int -> unit
(** Mark an undirected edge failed.  Idempotent. *)

val repair_edge : t -> int -> unit
val edge_failed : t -> int -> bool

val failed_edges : t -> int list
(** The currently-failed edges in ascending order — O(failed · log
    failed) off a maintained set, not a scan over every edge. *)

val failed_count : t -> int
(** O(1). *)

val usable_edge : t -> int -> bool
(** [not (edge_failed t e)] — the routing filter. *)

(** {1 Whole-network queries} *)

val iter_links : (Dirlink.id -> Link_state.t -> unit) -> t -> unit

val total_primary_reserved : t -> int
(** Sum of primary reservations over all links (Kbps-links). *)

val total_backup_pool : t -> int

val utilisation : t -> float
(** [ (total primary + total backup pool) / total capacity ]. *)

val multiplexing_gain : t -> float
(** Ratio of the bandwidth that {e dedicated} backup reservations would
    consume (the plain per-link sums) to what the multiplexed pools
    actually hold; >= 1, and 1 exactly when nothing multiplexes (or no
    backups exist).  The paper's overbooking saving, as a single
    number. *)

val check_invariants : t -> unit
(** {!Link_state.check_invariant} on every link. *)
