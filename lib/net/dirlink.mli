(** Directed link identifiers.

    The paper counts links directionally (its 100-node network has "354
    edges" = twice the 177 undirected edges), and a real-time channel is a
    {e unidirectional} virtual circuit, so reservations live on directed
    links.  Each undirected edge [e] of the topology yields two directed
    links: id [2e] travelling from the smaller endpoint to the larger, and
    id [2e + 1] for the reverse. *)

type id = int

val count : Graph.t -> int
(** [2 * Graph.edge_count]. *)

val of_edge : Graph.t -> edge:int -> src:int -> id
(** The directed link over [edge] leaving node [src].  Raises
    [Invalid_argument] if [src] is not an endpoint of [edge]. *)

val of_step : src:int -> dst:int -> int -> id
(** [of_step ~src ~dst e] is [of_edge g ~edge:e ~src] for an entry
    [(dst, e)] of [src]'s adjacency list, computed without reading the
    graph: the endpoints of [e] are [src] and [dst], and the link from
    the lower to the higher is [2e].  Nothing checks that [e] joins the
    two nodes, so it is for walks over {!Graph.neighbors}; anything else
    calls {!of_edge}.  [Flooding]'s search computes the same formula
    inline over its scratch's copy of the adjacency; the tests pin it
    here against {!of_edge}. *)

val edge : id -> int
(** The underlying undirected edge. *)

val reverse : id -> id

val endpoints : Graph.t -> id -> int * int
(** [(src, dst)] of the directed link. *)

val of_path : Graph.t -> Paths.path -> id list
(** Directed links traversed by a path, in order. *)

val shares_edge : id list -> id list -> bool
(** Whether two directed-link lists traverse a common {e undirected} edge
    (the paper's link-sharing notion is direction-insensitive: a failure
    takes out both directions). *)
