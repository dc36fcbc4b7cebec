(** Seeded operation fuzzer for the {!Drcomm} service.

    A run draws a topology and an op script from one integer seed,
    executes the script against a fresh service, and audits the full
    {!Invariants} suite (plus predicted [drcomm.*] counters) after
    {e every} operation.  On a violation a delta-debugging pass shrinks
    the script to a locally-minimal failing sequence and renders it in a
    self-contained text format: the config line plus the script rebuild
    the exact network and replay the failure verbatim. *)

type family = Waxman | Torus | Transit_stub

val family_name : family -> string
val all_families : family list

type config = {
  family : family;
  seed : int;
  ops : int;
  nodes : int;  (** approximate — each family rounds to its own grid. *)
  capacity : int;
  backups_per_connection : int;
  restore_on_failure : bool;
  multiplexing : bool;
  policy : Policy.t;
  deep_every : int;
      (** run the superlinear single-failure-safety check every this
          many ops (0 = never). *)
}

val config :
  ?nodes:int ->
  ?capacity:int ->
  ?backups:int ->
  ?restore:bool ->
  ?multiplexing:bool ->
  ?policy:Policy.t ->
  ?deep_every:int ->
  family:family ->
  seed:int ->
  ops:int ->
  unit ->
  config
(** Defaults: 20 nodes, capacity 1200, 2 backups per connection, no
    restoration, multiplexing on, [Equal_share], deep check every 20
    ops. *)

val topology : config -> Graph.t
(** The seed-determined network a run executes on. *)

val qos_palette : Qos.t array
(** The specs [Admit]/[Change_qos] ops index into. *)

val gen_ops : config -> Op.t array
(** The seed-determined op script of a run. *)

val reduce :
  nodes:int -> edges:int -> live:int list -> failed:int list -> Op.t -> Op.t option
(** The one reduction of an op's raw draws against a state, shared by
    {!replay} and the wire bridge: [live] is the sorted live channel-id
    list, [failed] the sorted failed-edge list.  The result names its
    targets: [Admit] distinct node ids and a {!qos_palette} index,
    [Terminate]/[Change_qos] a live channel id (and a palette index),
    [Fail]/[Repair] an edge id ([Repair] of a healthy edge, a no-op,
    when nothing is failed).  [None] when the op has no target there
    (no live channel, no edge, fewer than two nodes). *)

type stats = {
  ops_run : int;
  admitted : int;
  rejected : int;
  terminated : int;
  qos_changed : int;
  qos_refused : int;
  edge_failures : int;
  edge_repairs : int;
  activations : int;
  drops : int;
  restores : int;
  backup_losses : int;
  live : int;  (** channels still up when the run ended. *)
}

type violation = { index : int; op : Op.t; message : string }

type run = {
  stats : stats;
  violation : violation option;
  flight : (float * Trace.event) list;
      (** black box: the last trace events before the run ended (ring of
          256), timestamped with the op index that emitted them.  Dump
          with {!Flight.dump_events}. *)
}

val replay :
  ?extra_invariant:(Drcomm.t -> unit) -> config -> Op.t array -> run
(** Execute a script (generated or parsed back from a reproducer)
    against a fresh service on the config's topology.
    [extra_invariant] runs after the per-op invariant suite — tests use
    it to inject artificial faults and exercise the shrinker. *)

type failure = {
  config : config;
  script : Op.t array;  (** minimal failing script (or the raw prefix). *)
  violation : violation;  (** as reported by replaying [script]. *)
  stats : stats;  (** of the original, unshrunk run. *)
  flight : (float * Trace.event) list;
      (** black box of the {e final} (shrunk) replay, so event times are
          op indices into [script]. *)
}

val run :
  ?extra_invariant:(Drcomm.t -> unit) ->
  ?shrink:bool ->
  config ->
  (stats, failure) result
(** Generate and execute the config's script; on violation, shrink
    (unless [~shrink:false]) and return the reproducer. *)

val to_script : failure -> string
(** Self-contained reproducer: header comments (config + diagnosis)
    followed by one op per line. *)

val parse_script : string -> (config * Op.t array, string) result
(** Parse a reproducer (or any hand-written script): [# fuzz k=v ...]
    comment lines set the config, other [#] lines are ignored, the rest
    must be {!Op.of_string}-parseable. *)
