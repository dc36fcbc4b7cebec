(** Bounded-flooding route discovery — §3.1 of the paper, after Kweon &
    Shin (CSE-TR-388-99).

    A connection request floods outward from the source within a hop
    bound; each node forwards copies only over links that could still
    admit the connection, and each copy carries its path's {e bandwidth
    allowance} (the bottleneck of what the links could give).  The first
    copy to reach the destination — i.e. a minimum-hop admissible route,
    ties broken toward the best allowance — becomes the primary channel's
    route.  A later, link-disjoint copy becomes the backup's route.

    We model the {e outcome} of this protocol exactly (which route wins)
    rather than simulating individual request packets; the message-count
    cost model of flooding is exposed separately for the overhead bench.

    Every search runs on the network's scratch ({!Net_state.scratch}) and
    allocates nothing graph-sized; a search must not be started from
    inside another search on the same network. *)

type request = {
  src : int;
  dst : int;
  floor : Bandwidth.t;  (** the connection's B_min. *)
  hop_bound : int;  (** flooding boundary; copies beyond it are dropped. *)
}

val request : ?hop_bound:int -> src:int -> dst:int -> floor:Bandwidth.t -> unit -> request
(** [hop_bound] defaults to 16 (effectively unbounded on our graphs). *)

val primary_route : Net_state.t -> request -> Paths.path option
(** Minimum-hop route on which every directed link passes the primary
    admission test ({!Link_state.admissible_primary} — floors plus backup
    pool fit after reclaiming extras), avoiding failed edges.  Ties broken
    toward the largest reclaimable allowance.  [None] if no admissible
    route exists within the hop bound. *)

val backup_route :
  ?banned_edges:int list ->
  Net_state.t -> request -> primary_edges:int list -> Paths.path option
(** Route for the backup channel: every directed link must be able to
    register a backup of [floor] given the primary's (undirected) edges
    (multiplexing aware), avoiding failed edges.  Fully link-disjoint
    from the primary if one exists; otherwise {e maximally} disjoint
    (minimises shared edges, as the paper allows when no disjoint path
    exists).  [banned_edges] are excluded outright — used to keep
    multiple backups of one connection mutually disjoint.  [None] if
    even that fails. *)

val message_count : Graph.t -> request -> int
(** Number of request-copy transmissions bounded flooding would send:
    every usable directed link within [hop_bound] hops of the source
    forwards at most one copy.  Used by the flooding-overhead bench. *)
