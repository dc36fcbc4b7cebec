(** GT-ITM-style transit–stub ("tiered") topologies (Zegura, Calvert &
    Bhattacharjee, INFOCOM 1996) — the "Tier" model of the paper's Table 1.

    The graph has a two-level hierarchy: a small core of {e transit}
    domains, densely interconnected, and many {e stub} domains, each hung
    off a single transit node.  Traffic between stubs must cross the core,
    which is why this model saturates much earlier than a flat random
    graph of the same size — exactly the effect Table 1 reports. *)

type spec = {
  transit_domains : int;
  transit_size : int;  (** nodes per transit domain. *)
  stubs_per_transit_node : int;
  stub_size : int;  (** nodes per stub domain. *)
}
(** Each domain is a random spanning tree, which keeps it connected,
    plus each other intra-domain edge with probability 0.4. *)

val spec :
  transit_domains:int ->
  transit_size:int ->
  stubs_per_transit_node:int ->
  stub_size:int ->
  unit ->
  spec

val node_count : spec -> int

type info = {
  graph : Graph.t;
  transit_nodes : int list;
  stub_of_node : int array;  (** stub domain index per node; -1 for transit nodes. *)
}

val generate : Prng.t -> spec -> info
(** Always returns a connected graph.  Transit domains are joined in a
    randomised cycle (two inter-domain links each for modest core
    redundancy when there are >= 3 domains). *)

val paper_spec : spec
(** ~100-node instance comparable to the paper's Table 1 "Tier" network:
    1 transit domain of 4 nodes, 3 stubs per transit node, 8 nodes per
    stub (= 4 + 96 = 100 nodes). *)
