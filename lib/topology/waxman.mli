(** Waxman random graphs (Waxman, JSAC 1988) — the "Random" model of the
    paper, generated there with the GT-ITM package.

    Nodes are placed uniformly at random in a 100 × 100 square; the edge
    [{u, v}] appears with probability [alpha * exp (-d(u,v) / (beta * l))]
    where [d] is Euclidean distance and [l] the maximum possible distance.  Larger
    [alpha] gives denser graphs; larger [beta] gives relatively more long
    edges. *)

type spec = {
  nodes : int;
  alpha : float;  (** density knob, in (0, 1]. *)
  beta : float;  (** locality knob, in (0, 1]. *)
}

val spec : nodes:int -> alpha:float -> beta:float -> unit -> spec

val generate : Prng.t -> spec -> Graph.t
(** Draws a graph and then, if it came out disconnected, links the
    components with extra edges between their closest node pairs (the
    standard GT-ITM-style connectivity fix), so the result is always
    connected for [nodes >= 1]. *)

val expected_edges : Prng.t -> spec -> float
(** Monte-Carlo expectation of the raw (pre-connectivity-fix) edge count
    for a fresh node placement drawn from the given generator. *)

val calibrate_beta :
  Prng.t -> nodes:int -> alpha:float -> target_edges:int -> float
(** [calibrate_beta rng ~nodes ~alpha ~target_edges] finds, by bisection,
    a [beta] whose expected edge count is close to [target_edges].  Used to
    pin our 100-node instance to the paper's 354 edges. *)

val paper_spec : nodes:int -> spec
(** The paper's Fig. 2 configuration: [alpha = 0.33] and [beta] calibrated
    once (at 100 nodes) so that the 100-node instance has ~177 undirected
    edges = 354 unidirectional links, matching the paper's "354 edges" /
    "average degree 3.48" / "diameter 8" triple.  The same [alpha]/[beta]
    are reused at other node counts, which makes the edge count grow
    superlinearly exactly as in the paper's Fig. 3. *)
