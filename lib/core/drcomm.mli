(** The dependable real-time communication service with elastic QoS —
    the network operation of §3.1 of the paper.

    A DR-connection gets a primary channel (admitted at its QoS floor,
    elastically upgraded afterwards) and one passive backup channel
    (link-disjoint where possible, multiplexed with other backups).  The
    service handles the four events that drive the paper's Markov model:

    - {b arrival}: bounded flooding finds the primary route; every
      existing primary sharing a (directed) link with it retreats to its
      floor; the backup route is found and registered; freed and spare
      bandwidth is redistributed by the adaptation policy;
    - {b termination}: reservations are released and neighbours upgrade;
    - {b link failure}: backups of the primaries crossing the failed edge
      activate (becoming primaries at the floor); extras on the activated
      links retreat; survivors re-establish new backups when possible;
    - {b link repair}: the edge becomes routable again.

    Every mutating call returns a report of the level transitions it
    caused, classified exactly as the paper's model needs them
    (directly-chained vs indirectly-chained), so the {!Estimator} can
    measure [P_f], [P_s], [A], [B], [T] without reaching into the
    service's internals.

    {b Scale.}  Connections are abstract handles; the service keeps them
    in a dense array with O(1) admit/terminate/sample, maintains every
    aggregate the probes read incrementally, and water-fills off a
    dirty-link set — see DESIGN.md §13.  Sustains ~10⁶ live connections
    on 1000+-node transit-stub topologies with flat per-operation cost
    (see BENCH_scale.json). *)

type t

type channel_id
(** Abstract handle to a DR-connection.  Handles stay valid identifiers
    after termination ({!mem} answers [false]); passing a dead handle to
    an accessor raises [Not_found].  Handles compare cheaply (by
    connection id) with the polymorphic comparison operators, and
    {!Channel_id} gives explicit operations. *)

(** Identity operations on connection handles. *)
module Channel_id : sig
  type t = channel_id

  val to_int : t -> int
  (** The connection's unique (per-service, monotonically assigned)
      integer id — for logs, traces, and keying external tables. *)

  val compare : t -> t -> int
  val equal : t -> t -> bool
  val hash : t -> int
  val pp : Format.formatter -> t -> unit
end

(** Service configuration — built by {!Config.make}, which validates the
    fields (so a [t] is well-formed by construction). *)
module Config : sig
  type t

  val make :
    ?policy:Policy.t ->
    ?hop_bound:int ->
    ?route_search:[ `Flooding | `Sequential of int ] ->
    ?require_backup:bool ->
    ?backups_per_connection:int ->
    ?restore_on_failure:bool ->
    unit ->
    t
  (** Defaults give the paper's baseline service: equal-share
      water-filling, hop bound 16, bounded flooding, one required backup
      per connection, no reactive restoration.

      - [route_search]: how routes are discovered (§2.1.1) — parallel
        bounded flooding (the paper's protocol, default) or sequential
        probing of the [k] shortest candidates.  Both apply identical
        admission tests.
      - [require_backup]: reject a connection that cannot get a backup
        channel (the paper's dependability QoS); [false] gives the
        non-dependable baseline.  Ignored when
        [backups_per_connection = 0].
      - [backups_per_connection]: the paper's "one or more backup
        channels" — how many mutually link-disjoint backups each
        connection tries to hold (default 1; acceptance only requires
        the first, the rest are best-effort).  With [k] backups a
        connection survives [k] successive primary failures without
        restoration.  [0] means no backups at all (pure elastic
        real-time service — ablation baseline).
      - [restore_on_failure]: when a failure leaves a connection without
        a usable backup, try to re-establish it from scratch (the
        {e reactive restoration} baseline the backup-channel scheme is
        designed to beat — restoration can fail under congestion, which
        is the paper's §1 motivation).  Default [false].

      Raises [Invalid_argument] on [hop_bound < 1], [`Sequential k] with
      [k < 1], or [backups_per_connection < 0]. *)

  val default : t
  (** [make ()]. *)

  val policy : t -> Policy.t
  val hop_bound : t -> int
end

val create : ?config:Config.t -> ?obs:Obs.t -> Net_state.t -> t
(** [obs] (default {!Obs.null}) receives the service's
    instrumentation: counters [drcomm.admits], [drcomm.rejects],
    [drcomm.terminations], [drcomm.elastic_upgrades],
    [drcomm.elastic_retreats], [drcomm.link_failures],
    [drcomm.link_repairs], [drcomm.backup_activations],
    [drcomm.backup_losses], [drcomm.drops], [drcomm.restores]; and the
    trace events [Admit], [Reject], [Terminate], [Upgrade], [Retreat],
    [Link_fail], [Link_repair], [Backup_activate], [Backup_lost],
    [Drop], [Restore].  Each level move is traced once: a retreat as
    one [Retreat] to the floor, a water-filling flush as one [Upgrade]
    per channel it raised, while [drcomm.elastic_upgrades] counts the
    increments.  Timestamps come from the context's clock (see
    {!Obs.set_clock}).

    Telemetry beyond the counters: the high watermark
    [drcomm.live_hwm] (peak live connections, max-merged across
    domains) and the always-on per-link churn count behind
    {!hot_links}. *)

val net : t -> Net_state.t
val config : t -> Config.t

(** {1 Connection lifecycle} *)

type reject_reason =
  | No_primary_route  (** flooding found no admissible route. *)
  | No_backup_route  (** primary found, but no backup and backups required. *)

(** One channel's level change: [before] and [after] are elastic levels
    (0 = floor).  [chained] tells how the channel was affected:
    [`Direct] shares a directed link with the triggering channel;
    [`Indirect] is indirectly chained to it (via a third channel). *)
type transition = {
  channel : channel_id;
  before : int;
  after : int;
  chained : [ `Direct | `Indirect ];
}

(** What an event did — input for parameter estimation and for tests. *)
type report = {
  existing : int;  (** channels present before the event (excl. subject). *)
  direct_count : int;  (** of which directly chained to the subject. *)
  indirect_count : int;  (** of which indirectly chained to the subject. *)
  transitions : transition list;
      (** every directly- or indirectly-chained channel, including those
          whose level did not change (diagonal transitions — the model
          needs the full conditional matrix). *)
}

type admit_result =
  | Admitted of channel_id * report
  | Rejected of reject_reason

val admit :
  ?want_indirect:bool ->
  ?want_report:bool ->
  t ->
  src:int ->
  dst:int ->
  qos:Qos.t ->
  admit_result
(** Establish a DR-connection.  [src <> dst]; both in range.  Every
    channel holding extras on the new primary's links retreats to its
    floor, found through the per-link extras index — the same retreat
    whatever the flags say.  The flags choose only whether the report's
    read-only census runs first: [~want_report:false] (default [true])
    skips it, so the report carries zero counts and empty transition
    lists; [~want_indirect:false] (default [true]) skips only its
    indirectly-chained half.  Use [~want_report:false] on the
    bulk-loading and churn hot paths where the report is discarded. *)

(** {1 Redistribution control}

    By default every mutating call water-fills the links it dirtied
    before returning.  For bulk loading, switch auto-redistribution off,
    load, then call {!redistribute_pending} (or {!redistribute_all}) —
    dirty links accumulate while auto-redistribution is off. *)

val set_auto_redistribute : t -> bool -> unit
val auto_redistribute : t -> bool

val set_time_redistribution : t -> bool -> unit
(** Arm (or disarm) redistribution time accounting: while armed, every
    non-empty water-filling flush adds its monotonic wall time to the
    {!redistribution_seconds} accumulator.  Off by default — the
    simulation paths must not pay two clock reads per churn event. *)

val redistribution_seconds : t -> float
(** Cumulative seconds spent in water-filling flushes since creation
    (while {!set_time_redistribution} was armed).  A server differences
    this around one dispatch to attribute the redistribution slice of a
    request's service time (DESIGN.md §15). *)

val redistribute_pending : t -> unit
(** Water-fill the channels touching the links dirtied since the last
    pass, then clear the dirty set.  O(affected), not O(live): links
    carrying no elastic primary are skipped outright.  No-op when
    nothing is dirty. *)

val redistribute_all : t -> unit
(** One global water-filling pass over all channels (marks every live
    channel's links dirty, then flushes).  The from-scratch recompute
    that {!redistribute_pending} is checked against. *)

val terminate : ?report:bool -> t -> channel_id -> report
(** Tear down a connection and redistribute.  [~report:false] (default
    [true]) skips the read-only directly-chained census (zero count,
    empty transition list); the teardown itself is the same either way.
    Raises [Not_found] for an unknown or already-terminated handle. *)

val change_qos : t -> channel_id -> Qos.t -> [ `Changed | `Rejected ]
(** Renegotiate a live connection's QoS contract in place (same primary
    and backup routes).  The new floor is admission-tested against
    floors-plus-pools on every link after reclaiming extras — exactly
    like a fresh arrival — and every backup is re-registered at the new
    floor.  All-or-nothing: on [`Rejected] the old contract is fully
    restored.  The channel restarts at its (new) floor and re-upgrades
    through redistribution.  Raises [Not_found] for a dead handle. *)

(** Outcome of one connection's recovery from a failure. *)
type recovery = {
  victim : channel_id;
  outcome :
    [ `Switched_to_backup of bool
      (** backup activated; the flag says whether a {e new} backup was
          re-established afterwards. *)
    | `Dropped  (** no usable backup: connection lost. *)
    | `Restored of bool
      (** no usable backup, but [restore_on_failure] re-established the
          connection from scratch (flag = got a new backup too). *)
    | `Backup_lost of bool
      (** only the backup crossed the failed edge; flag = new backup
          found. *) ];
}

type failure_report = { recoveries : recovery list; event : report }

val fail_edge : t -> int -> failure_report
(** Fail an undirected edge: activate backups, retreat extras on the
    activated links, redistribute.  Victims are resolved from the failed
    edge's two directed links (the per-link channel indexes), not by
    scanning the live set.  Idempotent on an already-failed edge (empty
    report). *)

val repair_edge : t -> int -> unit

(** {1 Queries} *)

val count : t -> int

val active_channels : t -> channel_id list
(** Every live connection, in internal (dense-array) order.  O(live) —
    prefer {!nth_channel} for sampling. *)

val nth_channel : t -> int -> channel_id
(** The live connection in slot [i], [0 <= i < count t] — O(1), for
    uniform sampling ([nth_channel t (rng (count t))]).  Slot order is
    arbitrary and changes on termination.  Raises [Invalid_argument] out
    of range. *)

val mem : t -> channel_id -> bool

val channel_of_id : t -> int -> channel_id option
(** The live connection whose {!Channel_id.to_int} is [id]; [None] for
    an id never issued or no longer live (terminated, dropped, or
    re-established by restoration under a fresh id).  O(1). *)

val level : t -> channel_id -> int
val reserved_bandwidth : t -> channel_id -> Bandwidth.t
val qos_of : t -> channel_id -> Qos.t
val primary_links : t -> channel_id -> Dirlink.id list

val backup_links : t -> channel_id -> Dirlink.id list option
(** First (activation-priority) backup; [None] when the connection
    currently has no backup channel. *)

val all_backup_links : t -> channel_id -> Dirlink.id list list
(** Every backup held, in activation order. *)

val has_backup : t -> channel_id -> bool

val level_histogram : t -> max_levels:int -> int array
(** [level_histogram t ~max_levels] counts live channels at each elastic
    level — O(levels) off the maintained histogram, not a scan; levels
    beyond [max_levels - 1] raise (they indicate a QoS spec inconsistent
    with the caller's assumption). *)

val total_reserved : t -> int
(** Sum of every channel's current reservation (Kbps; path-length
    independent — each channel counted once, not per link).  O(1),
    maintained. *)

val average_bandwidth : t -> float
(** [total_reserved / count]; 0 when empty. *)

val dropped_connections : t -> int
(** Cumulative count of connections lost to failures. *)

val hot_links : t -> k:int -> (Dirlink.id * int) list
(** The [k] highest-churn directed links of this service as [(link,
    churn)], hottest first, ties to the lower link id.  Churn is an
    exact count: one unit per link touched by each admission, upgrade,
    retreat or termination.  Links never touched are left out.
    O(links * k) per call. *)

val check_invariants : t -> unit
(** Full consistency audit: per-link accounting, level/reservation
    coherence on every link of every channel, backup registration
    coherence, {e and} a from-scratch recomputation of every maintained
    aggregate (dense index, level histogram, total reservation, per-link
    elastic counts) checked against the incremental state.  Raises
    [Failure] on any violation. *)
