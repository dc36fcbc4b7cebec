(** Active-replication baselines — §2.1.2 of the paper.

    The passive backup-channel scheme is motivated by comparison with two
    {e active} fault-tolerance schemes that spend redundant bandwidth all
    the time:

    - {b multiple-copy} (Ramanathan & Shin, TOCS 1992): every message is
      sent in full over [copies] mutually link-disjoint routes, so the
      connection reserves [copies * b] bandwidth in total;
    - {b dispersity routing} (Banerjea, SIGCOMM 1996): each message is
      split into [split] pieces plus [redundant] parity pieces, one piece
      per disjoint route at [ceil (b / split)] each; any [split] of the
      [split + redundant] routes reconstruct the message.

    Neither is elastic and neither needs activation on failure; both
    tolerate any single link failure by construction (when fully
    link-disjoint routes were found).  The bench compares their standing
    bandwidth cost and blocking against the backup-channel scheme. *)

type scheme =
  | Multiple_copy of int  (** number of copies, >= 2. *)
  | Dispersity of { split : int; redundant : int }
      (** [split >= 1], [redundant >= 1]. *)

val routes_needed : scheme -> int
val per_route_bandwidth : scheme -> Bandwidth.t -> Bandwidth.t
val total_bandwidth : scheme -> Bandwidth.t -> Bandwidth.t
(** Standing reservation across routes, per hop. *)

type t
type connection_id = int

val create : scheme -> Net_state.t -> t

val admit :
  t -> src:int -> dst:int -> bandwidth:Bandwidth.t ->
  [ `Admitted of connection_id | `Rejected ]
(** Reserves [per_route_bandwidth] on each of [routes_needed] mutually
    link-disjoint admissible routes; rejects when fewer disjoint routes
    exist, any lacks bandwidth, or any is longer than 16 hops. *)

val terminate : t -> connection_id -> unit
(** Raises [Not_found] on unknown id. *)

val count : t -> int
val routes : t -> connection_id -> Dirlink.id list list

val survives_failure : t -> connection_id -> edge:int -> bool
(** Whether the connection still delivers full messages if [edge] fails:
    multiple-copy needs >= 1 surviving route, dispersity needs >= [split]
    surviving routes. *)

val total_reserved : t -> int
(** Sum over connections and routes and hops of reserved bandwidth
    (Kbps-links) — the resource-cost metric of the comparison bench. *)
