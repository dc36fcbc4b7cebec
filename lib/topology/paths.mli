(** Shortest-path queries over {!Graph}.

    A [path] records both the node sequence and the edge-id sequence; the
    network layer reserves bandwidth by edge id, so the edge list is the
    authoritative part. *)

type path = { nodes : int list; edges : int list }
(** [nodes] has one more element than [edges]; [List.nth nodes k] and
    [List.nth nodes (k+1)] are the endpoints of [List.nth edges k]. *)

val hop_count : path -> int
(** Number of edges. *)

val is_valid : Graph.t -> path -> bool
(** Structural check: consecutive nodes joined by the listed edges, no
    repeated node (simple path). *)

val hops_from : ?usable:(int -> bool) -> Graph.t -> int -> int array
(** [hops_from g src] gives BFS hop distances from [src]; [-1] marks
    unreachable nodes.  [usable] filters edges (default: all usable). *)

val shortest_path : ?usable:(int -> bool) -> Graph.t -> int -> int -> path option
(** Minimum-hop path from [src] to [dst] among edges satisfying [usable].
    [None] when disconnected.  [Some {nodes = [src]; edges = []}] when
    [src = dst]. *)

(** {1 Search scratch}

    Graph-sized working arrays for {!dijkstra} and for the bounded
    flooding search of [Flooding], kept across calls so that a search
    allocates nothing that outlives it.  An entry counts only while its
    stamp equals the generation of the search that wrote it, so a new
    search starts in O(1) by taking {!next_gen} — no array is cleared.

    A scratch also holds a flat copy of its graph's adjacency, which the
    searches walk instead of {!Graph.neighbors}.  So a graph must never
    be mutated ({!Graph.add_edge}) after a scratch is built for it.

    One scratch serves one search at a time: never share one across
    domains, and never start a search on it from inside a callback
    ([weight], [usable], an allowance) of a search running on it. *)

type scratch = {
  adj_off : int array;
      (** node → its first entry in [adj_node] and [adj_edge]; node
          [u]'s entries end before [adj_off.(u + 1)].  Length: nodes + 1. *)
  adj_node : int array;  (** the neighbours, in {!Graph.neighbors} order. *)
  adj_edge : int array;  (** the edge to each neighbour. *)
  mutable gen : int;  (** the latest generation handed out. *)
  reached : int array;
      (** node → generation that reached it; [hops], [allow], [dist] and
          the via arrays hold data for a node only at that generation. *)
  settled : int array;  (** node → generation that settled it (Dijkstra). *)
  hops : int array;  (** node → hop distance (flooding). *)
  allow : int array;  (** node → best bottleneck allowance (flooding). *)
  dist : float array;  (** node → tentative distance (Dijkstra). *)
  via_node : int array;  (** node → the node it was reached from. *)
  via_edge : int array;  (** node → the edge it was reached over. *)
  frontier : int array;
  next : int array;  (** flooding's two level buffers, node-sized. *)
  into_dst : int array;
      (** node → generation of the flooding search whose destination
          it neighbours. *)
  into_dst_edge : int array;
      (** node → its edge into that destination, at that generation. *)
  edge_mark : int array;
      (** edge → a generation the caller stamps, e.g. a backup search's
          primary edges; never written here. *)
  usable_memo : int array;
      (** edge → [gen] or [-gen]: {!dijkstra}'s cache of [usable e]. *)
  mutable heap_key : float array;
  mutable heap_node : int array;
  mutable heap_size : int;  (** {!dijkstra}'s binary min-heap. *)
}

val scratch : Graph.t -> scratch
(** A fresh scratch sized to the graph's nodes and edges, with the
    graph's adjacency copied in. *)

val next_gen : scratch -> int
(** Start a generation: every stamp written before reads as stale.
    Returns the new generation (always positive). *)

val scratch_path : scratch -> src:int -> dst:int -> path
(** The route to [dst] recorded in the via arrays by the last search
    from [src], which must have reached [dst]. *)

val dijkstra :
  weight:(int -> float) -> ?usable:(int -> bool) -> scratch -> Graph.t -> int -> int ->
  (path * float) option
(** [dijkstra ~weight ?usable s g src dst] is a least-total-weight path
    from [src] to [dst] over the edges satisfying [usable], and its
    weight; [None] when [dst] is unreachable.  [weight e] must be >= 0
    for every edge.  The search runs on [s], which must be the scratch
    of [g]: it walks [s]'s copy of the adjacency, and raises
    [Invalid_argument] on a scratch built for another node or edge
    count.  It stops as soon as [dst] is settled, returning exactly the
    path a run over the whole graph would.  [usable] is called at most
    once per edge per call, and only for edges to an unsettled node. *)

val widest_path :
  width:(int -> float) -> Graph.t -> int -> int -> (path * float) option
(** Maximum-bottleneck path: maximises [min over edges of width e]; ties
    broken toward fewer hops.  Used to model the flooding variant that
    prefers the best bandwidth allowance. *)

val eccentricity : Graph.t -> int -> int
(** Greatest hop distance from a node to any reachable node. *)

val diameter : Graph.t -> int
(** Max eccentricity over nodes; 0 for empty/one-node graphs.  Only
    meaningful on connected graphs (unreachable pairs are ignored). *)

val average_hops : Graph.t -> float
(** Mean hop distance over all ordered connected pairs; 0 if none. *)
