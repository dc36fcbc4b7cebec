(** Packet-level simulation of established real-time channels — the
    run-time message-scheduling phase (§2.1.1; Kandlur, Shin & Ferrari,
    TPDS 1994) over a whole path, not just one link.

    Each directed link is a non-preemptive server at its line rate,
    choosing among queued packets by earliest {e local} deadline (EDF);
    a packet's end-to-end deadline budget is split evenly across its
    hops.  Sources are token-bucket-shaped.  Everything runs on the
    shared {!Engine}, so channel-level events (failures, re-routing)
    can be interleaved by the caller.  This is the project's one EDF
    scheduler: ablation F measures its delays, and
    [examples/packet_delay.ml] shows it protecting admitted channels. *)

type t

type flow_id = int

val create : ?propagation_delay:float -> ?obs:Obs.t -> Engine.t -> Graph.t ->
  rate_of:(Dirlink.id -> Bandwidth.t) -> t
(** One server per directed link of the graph.  [propagation_delay]
    (seconds per hop, default 0) is added after each transmission.
    [obs] (default {!Obs.null}) receives the counters
    [netsim.packets_sent], [netsim.packets_delivered] and
    [netsim.deadline_misses]. *)

val add_flow :
  t ->
  path:Dirlink.id list ->
  spec:Traffic_spec.t ->
  deadline:float ->
  stop:float ->
  flow_id
(** A shaped source injecting packets along [path] from now until
    [stop]; each packet must arrive within [deadline] seconds
    of its creation.  The source sends as fast as its token bucket
    allows, i.e. at sustained rate [spec.rate] after an initial burst.

    Raises [Invalid_argument] on an empty path or non-positive
    deadline. *)

(** Delivery statistics of one flow. *)
type stats = {
  sent : int;
  delivered : int;
  missed : int;  (** delivered after their deadline. *)
  in_flight : int;  (** still queued when the stats were read. *)
  delay : Stats.Welford.t;  (** end-to-end delay of delivered packets. *)
  worst_delay : float;
}

val stats : t -> flow_id -> stats
(** Raises [Not_found] for an unknown id. *)

val link_busy_time : t -> Dirlink.id -> float
(** Cumulated transmission time of a link's server — its utilisation is
    [busy / elapsed]. *)

val total_delivered : t -> int
