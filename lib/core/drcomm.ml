(* The DR-connection service, rearchitected for scale: connections are
   abstract handles over a dense live array (O(1) admit/terminate/pick),
   every aggregate the probes read (count, total reservation, level
   histogram) is maintained incrementally, redistribution works off a
   dirty-link set accumulated by the mutating operations, and the failure
   path resolves a failed edge's victims from the edge's two directed
   links instead of scanning every connection. *)

module Config = struct
  type t = {
    policy : Policy.t;
    hop_bound : int;
    route_search : [ `Flooding | `Sequential of int ];
    require_backup : bool;
    backups_per_connection : int;
    restore_on_failure : bool;
  }

  let make ?(policy = Policy.equal_share) ?(hop_bound = 16)
      ?(route_search = `Flooding) ?(require_backup = true)
      ?(backups_per_connection = 1) ?(restore_on_failure = false) () =
    if hop_bound < 1 then invalid_arg "Drcomm.Config.make: hop_bound >= 1";
    (match route_search with
    | `Sequential k when k < 1 ->
      invalid_arg "Drcomm.Config.make: route_search candidates >= 1"
    | `Sequential _ | `Flooding -> ());
    if backups_per_connection < 0 then
      invalid_arg "Drcomm.Config.make: backups_per_connection >= 0";
    {
      policy;
      hop_bound;
      route_search;
      require_backup;
      backups_per_connection;
      restore_on_failure;
    }

  let default = make ()

  let policy t = t.policy
  let hop_bound t = t.hop_bound
end

(* [id] deliberately comes first: handles are compared structurally in a
   few generic contexts (sorting live sets, snapshot diffs), and ids are
   unique per service, so polymorphic compare resolves on the first field
   and never walks the mutable tail. *)
type channel = {
  id : int;
  src : int;
  dst : int;
  mutable qos : Qos.t; (* renegotiable, see change_qos *)
  mutable primary : Dirlink.id list;
  mutable primary_edges : int list;
  mutable backups : Dirlink.id list list; (* mutually link-disjoint *)
  mutable level : int;
  mutable slot : int; (* index in the live array; -1 once terminated *)
  mutable mark : int; (* visit stamp for allocation-free dedupe *)
}

type channel_id = channel

module Channel_id = struct
  type t = channel

  let to_int ch = ch.id
  let compare a b = Int.compare a.id b.id
  let equal a b = a.id = b.id
  let hash ch = ch.id
  let pp ppf ch = Format.pp_print_int ppf ch.id
end

type t = {
  net : Net_state.t;
  cfg : Config.t;
  by_id : channel Id_tbl.t; (* resolves link-recorded ids *)
  mutable live : channel array; (* dense: slots 0 .. n_live-1 *)
  mutable n_live : int;
  mutable next_id : int;
  mutable dropped : int;
  mutable auto_redistribute : bool;
  mutable mark_gen : int;
  (* Maintained aggregates: reading them never walks the live set. *)
  mutable total_res : int;
  mutable hist : int array; (* live channels per elastic level *)
  elastic_on_link : int array; (* per directed link: elastic primaries *)
  churn_on_link : int array; (* per directed link: operations that touched it *)
  (* The dirty-link set: directed links whose membership or reservation
     changed since the last water-filling pass. *)
  mutable dirty_links : int array;
  mutable dirty_n : int;
  dirty_mark : Bytes.t;
  (* Redistribution time accounting for request tracing: when armed,
     every non-empty water-filling flush adds its wall time here, so a
     caller can difference the accumulator around an operation and
     attribute that slice to a [redistribute] stage. *)
  mutable time_redist : bool;
  mutable redist_acc : float;
  obs : Obs.t;
  m_admits : Metrics.counter;
  m_rejects : Metrics.counter;
  m_terminations : Metrics.counter;
  m_upgrades : Metrics.counter;
  m_retreats : Metrics.counter;
  m_link_failures : Metrics.counter;
  m_link_repairs : Metrics.counter;
  m_backup_activations : Metrics.counter;
  m_backup_losses : Metrics.counter;
  m_drops : Metrics.counter;
  m_restores : Metrics.counter;
  live_hwm : Metrics.hwm;
}

let create ?(config = Config.default) ?(obs = Obs.null) net =
  {
    net;
    cfg = config;
    by_id = Id_tbl.create 256;
    live = [||];
    n_live = 0;
    next_id = 0;
    dropped = 0;
    auto_redistribute = true;
    mark_gen = 0;
    total_res = 0;
    hist = Array.make 8 0;
    elastic_on_link = Array.make (max 1 (Net_state.link_count net)) 0;
    churn_on_link = Array.make (max 1 (Net_state.link_count net)) 0;
    dirty_links = [||];
    dirty_n = 0;
    dirty_mark = Bytes.make (max 1 (Net_state.link_count net)) '\000';
    time_redist = false;
    redist_acc = 0.;
    obs;
    m_admits = Obs.counter obs "drcomm.admits";
    m_rejects = Obs.counter obs "drcomm.rejects";
    m_terminations = Obs.counter obs "drcomm.terminations";
    m_upgrades = Obs.counter obs "drcomm.elastic_upgrades";
    m_retreats = Obs.counter obs "drcomm.elastic_retreats";
    m_link_failures = Obs.counter obs "drcomm.link_failures";
    m_link_repairs = Obs.counter obs "drcomm.link_repairs";
    m_backup_activations = Obs.counter obs "drcomm.backup_activations";
    m_backup_losses = Obs.counter obs "drcomm.backup_losses";
    m_drops = Obs.counter obs "drcomm.drops";
    m_restores = Obs.counter obs "drcomm.restores";
    live_hwm = Metrics.hwm (Obs.metrics obs) "drcomm.live_hwm";
  }

let set_auto_redistribute t flag = t.auto_redistribute <- flag
let auto_redistribute t = t.auto_redistribute
let set_time_redistribution t flag = t.time_redist <- flag
let redistribution_seconds t = t.redist_acc

let net t = t.net
let config t = t.cfg

type reject_reason = No_primary_route | No_backup_route

type transition = {
  channel : channel_id;
  before : int;
  after : int;
  chained : [ `Direct | `Indirect ];
}

type report = {
  existing : int;
  direct_count : int;
  indirect_count : int;
  transitions : transition list;
}

type admit_result = Admitted of channel_id * report | Rejected of reject_reason

type recovery = {
  victim : channel_id;
  outcome :
    [ `Switched_to_backup of bool
    | `Dropped
    | `Restored of bool
    | `Backup_lost of bool ];
}

type failure_report = { recoveries : recovery list; event : report }

(* ------------------------------------------------------------------ *)
(* Internal helpers                                                    *)

let find ch = if ch.slot < 0 then raise Not_found else ch

let resolve t id =
  match Id_tbl.find_opt t.by_id id with
  | Some ch -> ch
  | None -> assert false (* every id recorded on a link is live *)

let bandwidth_at ch lvl = Qos.bandwidth_of_level ch.qos lvl

let next_mark t =
  t.mark_gen <- t.mark_gen + 1;
  t.mark_gen

let ensure_hist t lvl =
  if lvl >= Array.length t.hist then begin
    let bigger = Array.make (max (lvl + 1) (2 * Array.length t.hist)) 0 in
    Array.blit t.hist 0 bigger 0 (Array.length t.hist);
    t.hist <- bigger
  end

(* Aggregate-side of a level change; the caller owns link reservations. *)
let note_level t ch lvl =
  t.total_res <- t.total_res + bandwidth_at ch lvl - bandwidth_at ch ch.level;
  t.hist.(ch.level) <- t.hist.(ch.level) - 1;
  ensure_hist t lvl;
  t.hist.(lvl) <- t.hist.(lvl) + 1;
  ch.level <- lvl

let bump_elastic t ch delta =
  if Qos.is_elastic ch.qos then
    List.iter
      (fun dl -> t.elastic_on_link.(dl) <- t.elastic_on_link.(dl) + delta)
      ch.primary

let add_live t ch =
  if t.n_live = Array.length t.live then begin
    let bigger = Array.make (max 64 (2 * t.n_live)) ch in
    Array.blit t.live 0 bigger 0 t.n_live;
    t.live <- bigger
  end;
  ch.slot <- t.n_live;
  t.live.(t.n_live) <- ch;
  t.n_live <- t.n_live + 1;
  Id_tbl.replace t.by_id ch.id ch;
  ensure_hist t ch.level;
  t.hist.(ch.level) <- t.hist.(ch.level) + 1;
  t.total_res <- t.total_res + bandwidth_at ch ch.level

let remove_live t ch =
  let slot = ch.slot in
  let last = t.n_live - 1 in
  if slot < last then begin
    t.live.(slot) <- t.live.(last);
    t.live.(slot).slot <- slot
  end;
  t.live.(last) <- t.live.(last); (* slot [last] keeps a stale ref; n_live guards it *)
  t.n_live <- last;
  ch.slot <- -1;
  Id_tbl.remove t.by_id ch.id;
  t.hist.(ch.level) <- t.hist.(ch.level) - 1;
  t.total_res <- t.total_res - bandwidth_at ch ch.level

(* One churn unit per link the operation touched: admissions, retreats,
   upgrades and terminations all count, so the largest counts are the
   links the elastic machinery works hardest. *)
let add_churn t links =
  List.iter (fun dl -> t.churn_on_link.(dl) <- t.churn_on_link.(dl) + 1) links

(* Link writes, churn and counters go per increment; the trace records
   each move once, from [retreat_extras_on] and [redistribute_flush]. *)
let set_level t ch lvl =
  if lvl <> ch.level then begin
    let bw = bandwidth_at ch lvl in
    List.iter (fun dl -> Link_state.set_primary (Net_state.link t.net dl) ~channel:ch.id bw)
      ch.primary;
    add_churn t ch.primary;
    if lvl > ch.level then Metrics.incr t.m_upgrades else Metrics.incr t.m_retreats;
    note_level t ch lvl
  end

(* Distinct channels that [iter] yields on any of [links], except
   [exclude] — mark-stamp dedupe, no per-call tables.  Newest-first:
   the last channel found heads the list. *)
let distinct_on t ?(exclude = []) iter links =
  let gen = next_mark t in
  List.iter (fun ch -> ch.mark <- gen) exclude;
  let out = ref [] in
  let visit id =
    let ch = resolve t id in
    if ch.mark <> gen then begin
      ch.mark <- gen;
      out := ch :: !out
    end
  in
  List.iter (fun dl -> iter visit (Net_state.link t.net dl)) links;
  !out

(* The per-link walks: every primary, or only those holding extras (a
   link without extras allocates nothing). *)
let primaries f l = Link_state.iter_primary_channels (fun id _ -> f id) l

let extras f l =
  if Link_state.extras_count l > 0 then Link_state.iter_extras (fun id _ -> f id) l

(* ------------------------------------------------------------------ *)
(* Water-filling redistribution                                        *)

(* Admission and redistribution run once per churn event, so their spans
   fire only under a profiler — a trace-only or metrics-only run must not
   pay (or log) a span pair per operation. *)
let hot_span t name f = if Obs.profiling t.obs then Obs.span t.obs name f else f ()

let add_dirty t dl =
  if Bytes.get t.dirty_mark dl = '\000' then begin
    Bytes.set t.dirty_mark dl '\001';
    if t.dirty_n = Array.length t.dirty_links then begin
      let bigger = Array.make (max 64 (2 * t.dirty_n)) 0 in
      Array.blit t.dirty_links 0 bigger 0 t.dirty_n;
      t.dirty_links <- bigger
    end;
    t.dirty_links.(t.dirty_n) <- dl;
    t.dirty_n <- t.dirty_n + 1
  end

let add_dirty_path t links = List.iter (add_dirty t) links

(* A channel can take one more increment iff it is elastic, below its
   ceiling, and every link of its primary path has that much spare
   (extras may borrow inactive backup pool, see Link_state). *)
let can_upgrade t ch =
  ch.level < Qos.levels ch.qos - 1
  && List.for_all
       (fun dl -> Link_state.spare (Net_state.link t.net dl) >= ch.qos.Qos.increment)
       ch.primary

let grant_increment t ch = set_level t ch (ch.level + 1)

let claim ch = { Policy.utility = ch.qos.Qos.utility; extras_granted = ch.level }

(* Water-fill the channels touching the accumulated dirty links; the
   policy value owns the grant loop (see {!Policy}).  Links carrying no
   elastic primary are skipped without touching their channel sets.
   Terminates because every grant consumes one increment of finite link
   capacity. *)
let redistribute_flush t =
  if t.dirty_n > 0 then begin
    let t0 = if t.time_redist then Clock.now () else 0. in
    Fun.protect ~finally:(fun () ->
        if t.time_redist then t.redist_acc <- t.redist_acc +. (Clock.now () -. t0))
    @@ fun () ->
    hot_span t "drcomm.redistribute" @@ fun () ->
    let gen = next_mark t in
    let candidates = ref [] in
    for i = 0 to t.dirty_n - 1 do
      let dl = t.dirty_links.(i) in
      Bytes.set t.dirty_mark dl '\000';
      if t.elastic_on_link.(dl) > 0 then
        Link_state.iter_primary_channels
          (fun id _ ->
            let ch = resolve t id in
            if ch.mark <> gen then begin
              ch.mark <- gen;
              if Qos.is_elastic ch.qos then candidates := ch :: !candidates
            end)
          (Net_state.link t.net dl)
    done;
    t.dirty_n <- 0;
    match !candidates with
    | [] -> ()
    | candidates -> (
      (* Under a tracer, a channel's first grant of the flush notes its
         level (a second mark generation, so no new field), and each
         channel that rose gets one [Upgrade] after the run. *)
      let moved = if Obs.tracing t.obs then Some (next_mark t, ref []) else None in
      let grant ch =
        (match moved with
        | Some (first, acc) when ch.mark <> first ->
          ch.mark <- first;
          acc := (ch, ch.level) :: !acc
        | _ -> ());
        grant_increment t ch
      in
      let env =
        {
          Policy.claim;
          can_upgrade = (fun ch -> can_upgrade t ch);
          grant;
          tie = (fun a b -> compare a.id b.id);
        }
      in
      t.cfg.Config.policy.Policy.run env candidates;
      match moved with
      | None -> ()
      | Some (_, acc) ->
        List.iter
          (fun (ch, from_level) ->
            Obs.event t.obs
              (Trace.Upgrade { channel = ch.id; from_level; to_level = ch.level }))
          (List.rev !acc))
  end

let redistribute_pending t = redistribute_flush t

(* Global pass: water-fill every elastic channel (dirty = every link any
   channel uses).  Used after a bulk load with auto-redistribution off. *)
let redistribute_all t =
  for i = 0 to t.n_live - 1 do
    add_dirty_path t t.live.(i).primary
  done;
  redistribute_flush t

let maybe_redistribute t = if t.auto_redistribute then redistribute_flush t

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)

let snapshot_levels chans = List.map (fun ch -> (ch, ch.level)) chans

let transitions_of ~chained snap =
  List.map (fun (ch, before) -> { channel = ch; before; after = ch.level; chained }) snap

(* Indirectly-chained set at an arrival: channels on the links of the
   directly-chained channels' paths, that are not directly chained
   themselves (the paper's third-channel definition). *)
let indirect_set t ~direct =
  distinct_on t ~exclude:direct primaries (List.concat_map (fun ch -> ch.primary) direct)

(* ------------------------------------------------------------------ *)
(* Route discovery dispatch                                            *)

let find_primary_route t req =
  match t.cfg.Config.route_search with
  | `Flooding -> Flooding.primary_route t.net req
  | `Sequential candidates -> Sequential.primary_route t.net req ~candidates

let find_backup_route ?banned_edges t req ~primary_edges =
  match t.cfg.Config.route_search with
  | `Flooding -> Flooding.backup_route ?banned_edges t.net req ~primary_edges
  | `Sequential candidates ->
    Sequential.backup_route ?banned_edges t.net req ~candidates ~primary_edges

let unregister_backup_path t ch blinks =
  List.iter
    (fun dl -> Link_state.unregister_backup (Net_state.link t.net dl) ~channel:ch.id)
    blinks

(* Register one backup path's reservations, all-or-nothing: roll back
   the prefix on failure.  Every link of the path keeps the same array
   of primary edges; nothing mutates it. *)
let try_register_backup_path ?floor t ch blinks =
  let floor = Option.value ~default:ch.qos.Qos.b_min floor in
  let primary_edges = Array.of_list ch.primary_edges in
  let registered = ref [] in
  try
    List.iter
      (fun dl ->
        Link_state.register_backup (Net_state.link t.net dl) ~channel:ch.id
          ~b_min:floor ~primary_edges;
        registered := dl :: !registered)
      blinks;
    true
  with Invalid_argument _ ->
    unregister_backup_path t ch !registered;
    false

(* Establish further backup channels until the configured count is
   reached; each new backup is banned from the edges of the ones already
   held (mutual link-disjointness, so one failure never claims two).
   Returns how many were added. *)
let top_up_backups t ch =
  let floor = ch.qos.Qos.b_min in
  let req =
    Flooding.request ~hop_bound:t.cfg.Config.hop_bound ~src:ch.src ~dst:ch.dst
      ~floor ()
  in
  let added = ref 0 in
  let continue = ref true in
  while !continue && List.length ch.backups < t.cfg.Config.backups_per_connection do
    let banned_edges =
      List.concat_map (List.map Dirlink.edge) ch.backups |> List.sort_uniq compare
    in
    match find_backup_route ~banned_edges t req ~primary_edges:ch.primary_edges with
    | None -> continue := false
    | Some bpath ->
      let blinks = Dirlink.of_path (Net_state.graph t.net) bpath in
      if try_register_backup_path t ch blinks then begin
        ch.backups <- ch.backups @ [ blinks ];
        incr added
      end
      else continue := false
  done;
  !added

(* ------------------------------------------------------------------ *)
(* Admission                                                           *)

(* The one retreat (§3.1): every channel but [exclude] holding extras on
   [links] falls to its floor.  Retreating a floor-level channel is a
   no-op, so the per-link extras index finds every channel that moves.
   Each retreated path is dirtied whole — the spare it frees lies on all
   of it.  Returns the retreated channels with their earlier levels. *)
let retreat_extras_on t ?exclude links =
  List.map
    (fun ch ->
      let before = ch.level in
      set_level t ch 0;
      if Obs.tracing t.obs then
        Obs.event t.obs
          (Trace.Retreat { channel = ch.id; from_level = before; to_level = 0 });
      add_dirty_path t ch.primary;
      (ch, before))
    (distinct_on t ?exclude extras links)

let admit ?(want_indirect = true) ?(want_report = true) t ~src ~dst ~qos =
  hot_span t "drcomm.admit" @@ fun () ->
  let g = Net_state.graph t.net in
  let n = Graph.node_count g in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Drcomm.admit: endpoint out of range";
  if src = dst then invalid_arg "Drcomm.admit: src = dst";
  let floor = qos.Qos.b_min in
  let req = Flooding.request ~hop_bound:t.cfg.Config.hop_bound ~src ~dst ~floor () in
  let rejected reason =
    Metrics.incr t.m_rejects;
    if Obs.tracing t.obs then
      Obs.event t.obs
        (Trace.Reject
           {
             reason =
               (match reason with
               | No_primary_route -> "no_primary_route"
               | No_backup_route -> "no_backup_route");
           });
    Rejected reason
  in
  match find_primary_route t req with
  | None -> rejected No_primary_route
  | Some ppath -> (
    let plinks = Dirlink.of_path g ppath in
    let pedges = ppath.Paths.edges in
    let id = t.next_id in
    let existing = t.n_live in
    (* Directly-chained channels retreat to their floors (§3.1), making
       room for the new floor physically (extras may have filled the
       links).  The report's census is a read-only walk taken first: it
       counts sharers already at their floor too, which the extras index
       does not hold. *)
    let direct_snap, indirect_snap =
      if not want_report then ([], [])
      else
        let direct = distinct_on t primaries plinks in
        ( snapshot_levels direct,
          if want_indirect then snapshot_levels (indirect_set t ~direct) else [] )
    in
    ignore (retreat_extras_on t plinks);
    List.iter
      (fun dl ->
        Link_state.reserve_primary (Net_state.link t.net dl) ~channel:id ~b_min:floor)
      plinks;
    add_dirty_path t plinks;
    (* Backups are searched with the primary already in place, so the
       backup admission test sees the primary's floor on any link the
       routes would share (maximally-disjoint fallback).  The first
       backup decides acceptance; further ones (when configured) are
       best-effort. *)
    let ch =
      {
        id;
        src;
        dst;
        qos;
        primary = plinks;
        primary_edges = pedges;
        backups = [];
        level = 0;
        slot = -1;
        mark = 0;
      }
    in
    let got_backups = top_up_backups t ch in
    match got_backups with
    | 0 when t.cfg.Config.backups_per_connection > 0 && t.cfg.Config.require_backup ->
      (* Roll the primary back; the retreated channels re-upgrade. *)
      List.iter
        (fun dl -> Link_state.release_primary (Net_state.link t.net dl) ~channel:id)
        plinks;
      maybe_redistribute t;
      rejected No_backup_route
    | _ ->
      t.next_id <- id + 1;
      add_live t ch;
      bump_elastic t ch 1;
      add_churn t plinks;
      Metrics.observe_hwm t.live_hwm (float_of_int t.n_live);
      (* Freed extras and remaining spare are redistributed; the new
         channel participates too. *)
      maybe_redistribute t;
      let report =
        {
          existing;
          direct_count = List.length direct_snap;
          indirect_count = List.length indirect_snap;
          transitions =
            transitions_of ~chained:`Direct direct_snap
            @ transitions_of ~chained:`Indirect indirect_snap;
        }
      in
      Metrics.incr t.m_admits;
      if Obs.tracing t.obs then
        Obs.event t.obs
          (Trace.Admit
             {
               channel = id;
               direct = report.direct_count;
               indirect = report.indirect_count;
             });
      Admitted (ch, report))

(* ------------------------------------------------------------------ *)
(* Termination                                                         *)

let release_primary_reservations t ch =
  bump_elastic t ch (-1);
  List.iter
    (fun dl -> Link_state.release_primary (Net_state.link t.net dl) ~channel:ch.id)
    ch.primary

let unregister_backup_links t ch =
  List.iter (unregister_backup_path t ch) ch.backups;
  ch.backups <- []

let terminate ?(report = true) t handle =
  let ch = find handle in
  let direct_snap =
    if report then snapshot_levels (distinct_on t ~exclude:[ ch ] primaries ch.primary)
    else []
  in
  let existing = t.n_live - 1 in
  release_primary_reservations t ch;
  unregister_backup_links t ch;
  remove_live t ch;
  add_dirty_path t ch.primary;
  add_churn t ch.primary;
  maybe_redistribute t;
  Metrics.incr t.m_terminations;
  if Obs.tracing t.obs then Obs.event t.obs (Trace.Terminate { channel = ch.id });
  {
    existing;
    direct_count = List.length direct_snap;
    indirect_count = 0;
    transitions = transitions_of ~chained:`Direct direct_snap;
  }

(* ------------------------------------------------------------------ *)
(* QoS renegotiation                                                   *)

(* Replace a channel's QoS contract in place (same routes).  Treated like
   an arrival on its own links: extras there are reclaimed so the new
   floor can be judged against floors + pools only.  All-or-nothing: on
   any failure the old contract is restored exactly. *)
let change_qos t handle qos' =
  let ch = find handle in
  let id = ch.id in
  let old_qos = ch.qos in
  let old_floor = old_qos.Qos.b_min in
  let new_floor = qos'.Qos.b_min in
  let backups = ch.backups in
  (* Reclaim extras on the channel's links (including its own).  Its own
     path is dirtied even from its floor: the floor swap below changes
     the spare on every link of it. *)
  ignore (retreat_extras_on t ch.primary);
  add_dirty_path t ch.primary;
  (* Swap the primary floor link by link, tracking progress for
     rollback. *)
  let swapped = ref [] in
  (* Restores go through [~force]: the old floor was already held when
     this call started, so putting it back must never be re-admitted —
     on a link whose guarantee constraint is transiently broken (the
     multi-failure corner) the normal floors-plus-pool test would
     spuriously reject its own standing reservation. *)
  let restore_floor ~floor dl =
    let l = Net_state.link t.net dl in
    Link_state.release_primary l ~channel:id;
    Link_state.reserve_primary ~force:true l ~channel:id ~b_min:floor
  in
  let swap_back () =
    List.iter (restore_floor ~floor:old_floor) !swapped;
    swapped := []
  in
  let rollback () =
    maybe_redistribute t;
    `Rejected
  in
  let rec swap_all = function
    | [] -> `Ok
    | dl :: rest -> (
      let l = Net_state.link t.net dl in
      Link_state.release_primary l ~channel:id;
      match Link_state.reserve_primary l ~channel:id ~b_min:new_floor with
      | () ->
        swapped := dl :: !swapped;
        swap_all rest
      | exception Invalid_argument _ ->
        (* This link was already released: restore its old floor before
           unwinding the fully-swapped ones. *)
        Link_state.reserve_primary ~force:true l ~channel:id ~b_min:old_floor;
        swap_back ();
        rollback ())
  in
  match swap_all ch.primary with
  | `Rejected -> `Rejected
  | `Ok -> (
    (* Re-key every backup to the new floor, all-or-nothing. *)
    List.iter (unregister_backup_path t ch) backups;
    let rec rereg done_ = function
      | [] -> `Ok
      | b :: rest ->
        if try_register_backup_path ~floor:new_floor t ch b then rereg (b :: done_) rest
        else begin
          (* Roll everything back: restore the old floor first so the
             backup re-registrations see the original pools, then re-hold
             the backups.  A backup that no longer fits even then (it can
             only have been displaced by concurrent state we do not
             track) is dropped rather than crashing. *)
          List.iter (unregister_backup_path t ch) done_;
          swap_back ();
          ch.backups <-
            List.filter (try_register_backup_path ~floor:old_floor t ch) backups;
          maybe_redistribute t;
          `Rejected
        end
    in
    match rereg [] backups with
    | `Rejected -> `Rejected
    | `Ok ->
      (* The contract swap may change the floor (total reservation) and
         the channel's elasticity (the per-link elastic index). *)
      bump_elastic t ch (-1);
      ch.qos <- qos';
      bump_elastic t ch 1;
      t.total_res <- t.total_res + new_floor - old_floor;
      ch.level <- 0;
      maybe_redistribute t;
      `Changed)

(* ------------------------------------------------------------------ *)
(* Failures                                                            *)

let path_usable t links =
  List.for_all (fun dl -> Net_state.usable_edge t.net (Dirlink.edge dl)) links

(* Top-up after a recovery event; [true] when at least one backup is
   (still) held afterwards. *)
let try_new_backup t ch =
  ignore (top_up_backups t ch);
  ch.backups <> []

(* Convert one of [ch]'s backups into its primary.  The single-failure
   guarantee makes the floors fit; extras on the backup links are
   retreated first (they were borrowing the pool) and pushed onto the
   newest-first accumulator [retreated].  The channel's other backups
   are re-registered against the new primary's edges (their pool
   accounting was keyed by the old primary).  Returns [false] if floors
   do not fit (multi-failure corner) — the caller then drops the
   connection. *)
let activate_backup t ch blinks ~retreated =
  let floor = ch.qos.Qos.b_min in
  let fits =
    List.for_all
      (fun dl ->
        let l = Net_state.link t.net dl in
        Link_state.primary_min_total l + floor <= Link_state.capacity l)
      blinks
  in
  if not fits then false
  else begin
    let remaining = List.filter (fun b -> b != blinks) ch.backups in
    unregister_backup_path t ch blinks;
    (* Primaries sharing the activated links release their extras
       (§3.1: the pool they were borrowing is being called in). *)
    retreated := List.rev_append (retreat_extras_on t ~exclude:[ ch ] blinks) !retreated;
    List.iter
      (fun dl ->
        Link_state.reserve_primary ~force:true (Net_state.link t.net dl) ~channel:ch.id
          ~b_min:floor)
      blinks;
    ch.primary <- blinks;
    ch.primary_edges <- List.sort_uniq compare (List.map Dirlink.edge blinks);
    bump_elastic t ch 1;
    note_level t ch 0;
    (* Remaining backups: re-key their pool accounting to the new primary
       (they are disjoint from it by construction — backups were mutually
       disjoint).  Only still-usable paths qualify: a backup crossing the
       edge that just failed could never activate, and keeping it
       registered would both pin phantom pool demand and falsely report
       the connection as protected.  A re-registration can also fail if
       the pool no longer fits; either way the backup is dropped and
       replaced later if possible. *)
    List.iter (unregister_backup_path t ch) remaining;
    ch.backups <- [];
    List.iter
      (fun b ->
        if path_usable t b && try_register_backup_path t ch b then
          ch.backups <- ch.backups @ [ b ])
      remaining;
    true
  end

let empty_event t =
  { existing = t.n_live; direct_count = 0; indirect_count = 0; transitions = [] }

let fail_edge t e =
  if Net_state.edge_failed t.net e then { recoveries = []; event = empty_event t }
  else begin
    Net_state.fail_edge t.net e;
    Metrics.incr t.m_link_failures;
    if Obs.tracing t.obs then Obs.event t.obs (Trace.Link_fail { edge = e });
    let existing = t.n_live in
    (* The failed edge's victims live on its two directed links: a
       primary victim holds a reservation on either direction, a backup
       victim has a backup registered there (and no primary across the
       edge).  No global scan. *)
    let both = [ 2 * e; (2 * e) + 1 ] in
    let victims_primary = distinct_on t primaries both in
    let victims_backup =
      distinct_on t ~exclude:victims_primary Link_state.iter_backup_channels both
    in
    let by_id a b = compare a.id b.id in
    let victims_primary = List.sort by_id victims_primary in
    let victims_backup = List.sort by_id victims_backup in
    let crosses blinks = List.exists (fun dl -> Dirlink.edge dl = e) blinks in
    let retreated = ref [] in
    let recoveries = ref [] in
    List.iter
      (fun ch ->
        release_primary_reservations t ch;
        add_dirty_path t ch.primary;
        (* Last resort when no backup can take over: drop, or — under the
           reactive-restoration baseline — attempt a from-scratch
           re-establishment over the surviving topology. *)
        let drop_or_restore () =
          remove_live t ch;
          if not t.cfg.Config.restore_on_failure then begin
            t.dropped <- t.dropped + 1;
            `Dropped
          end
          else
            match
              admit ~want_indirect:false ~want_report:false t ~src:ch.src ~dst:ch.dst
                ~qos:ch.qos
            with
            | Admitted (nch, _) -> `Restored (nch.backups <> [])
            | Rejected _ ->
              t.dropped <- t.dropped + 1;
              `Dropped
        in
        let outcome =
          (* Activate the first backup whose whole path is still up. *)
          match List.find_opt (path_usable t) ch.backups with
          | Some blinks ->
            if activate_backup t ch blinks ~retreated then begin
              add_dirty_path t blinks;
              `Switched_to_backup (try_new_backup t ch)
            end
            else begin
              unregister_backup_links t ch;
              drop_or_restore ()
            end
          | None ->
            (* No backup, or every backup crosses a failed edge. *)
            unregister_backup_links t ch;
            drop_or_restore ()
        in
        (match outcome with
        | `Switched_to_backup reprotected ->
          Metrics.incr t.m_backup_activations;
          if Obs.tracing t.obs then
            Obs.event t.obs (Trace.Backup_activate { channel = ch.id; reprotected })
        | `Dropped ->
          Metrics.incr t.m_drops;
          if Obs.tracing t.obs then Obs.event t.obs (Trace.Drop { channel = ch.id })
        | `Restored with_backup ->
          Metrics.incr t.m_restores;
          if Obs.tracing t.obs then
            Obs.event t.obs (Trace.Restore { channel = ch.id; with_backup })
        | `Backup_lost _ -> ());
        recoveries := { victim = ch; outcome } :: !recoveries)
      victims_primary;
    List.iter
      (fun ch ->
        (* Drop only the backups crossing the failed edge; keep the
           rest; then top the count back up if routes exist. *)
        let lost, kept = List.partition crosses ch.backups in
        List.iter (unregister_backup_path t ch) lost;
        ch.backups <- kept;
        let replaced = try_new_backup t ch in
        Metrics.incr t.m_backup_losses;
        if Obs.tracing t.obs then
          Obs.event t.obs (Trace.Backup_lost { channel = ch.id; replaced });
        recoveries := { victim = ch; outcome = `Backup_lost replaced } :: !recoveries)
      victims_backup;
    let retreated_snap = List.rev !retreated in
    maybe_redistribute t;
    {
      recoveries = List.rev !recoveries;
      event =
        {
          existing;
          direct_count = List.length retreated_snap;
          indirect_count = 0;
          transitions = transitions_of ~chained:`Direct retreated_snap;
        };
    }
  end

let repair_edge t e =
  (* Idempotent like fail_edge: repairing a healthy edge is a no-op and
     must not count as a repair or emit an event. *)
  if Net_state.edge_failed t.net e then begin
    Net_state.repair_edge t.net e;
    Metrics.incr t.m_link_repairs;
    if Obs.tracing t.obs then Obs.event t.obs (Trace.Link_repair { edge = e })
  end

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)

let count t = t.n_live

let active_channels t =
  let acc = ref [] in
  for i = t.n_live - 1 downto 0 do
    acc := t.live.(i) :: !acc
  done;
  !acc

let nth_channel t i =
  if i < 0 || i >= t.n_live then invalid_arg "Drcomm.nth_channel: index out of range";
  t.live.(i)

let mem _t ch = ch.slot >= 0
let channel_of_id t id = Id_tbl.find_opt t.by_id id
let level _t ch = (find ch).level

let reserved_bandwidth _t handle =
  let ch = find handle in
  bandwidth_at ch ch.level

let qos_of _t ch = (find ch).qos
let primary_links _t ch = (find ch).primary

let backup_links _t handle =
  match (find handle).backups with [] -> None | first :: _ -> Some first

let all_backup_links _t ch = (find ch).backups
let has_backup _t ch = (find ch).backups <> []

let level_histogram t ~max_levels =
  let counts = Array.make max_levels 0 in
  let n = Array.length t.hist in
  for lvl = 0 to n - 1 do
    if t.hist.(lvl) > 0 && lvl >= max_levels then
      invalid_arg
        (Printf.sprintf "Drcomm.level_histogram: live channel at level %d" lvl);
    if lvl < max_levels then counts.(lvl) <- t.hist.(lvl)
  done;
  counts

let total_reserved t = t.total_res

let average_bandwidth t =
  let n = count t in
  if n = 0 then 0. else float_of_int (total_reserved t) /. float_of_int n

let dropped_connections t = t.dropped

(* One pass in link-id order keeps the [k] hottest links, coldest
   first: a link displaces the coldest only with a strictly larger
   count, so ties go to the lower id.  O(links * k). *)
let hot_links t ~k =
  let rec insert ((_, n) as x) = function
    | ((_, m) as y) :: rest when m < n -> y :: insert x rest
    | rest -> x :: rest
  in
  let top = ref [] and size = ref 0 in
  Array.iteri
    (fun dl n ->
      if n > 0 then
        match !top with
        | (_, m) :: rest when !size >= k -> if n > m then top := insert (dl, n) rest
        | coldest_first ->
          if k > 0 then begin
            top := insert (dl, n) coldest_first;
            incr size
          end)
    t.churn_on_link;
  List.rev !top

(* Full audit: the per-channel checks of old, plus a from-scratch
   recomputation of every maintained aggregate (live index, histogram,
   total reservation, per-link elastic counts) against the incremental
   state — the fuzzer's cross-check of incremental vs full recompute. *)
let check_invariants t =
  Net_state.check_invariants t.net;
  let total = ref 0 in
  let hist = Array.make (Array.length t.hist) 0 in
  let elastic = Array.make (Array.length t.elastic_on_link) 0 in
  for i = 0 to t.n_live - 1 do
    let ch = t.live.(i) in
    let id = ch.id in
    if ch.slot <> i then
      failwith (Printf.sprintf "Drcomm: channel %d slot index out of sync" id);
    (match Id_tbl.find_opt t.by_id id with
    | Some ch' when ch' == ch -> ()
    | _ -> failwith (Printf.sprintf "Drcomm: channel %d missing from id table" id));
    if ch.level < 0 || ch.level >= Qos.levels ch.qos then
      failwith (Printf.sprintf "Drcomm: channel %d has level %d" id ch.level);
    let bw = bandwidth_at ch ch.level in
    total := !total + bw;
    hist.(ch.level) <- hist.(ch.level) + 1;
    List.iter
      (fun dl ->
        if Qos.is_elastic ch.qos then elastic.(dl) <- elastic.(dl) + 1;
        match Link_state.primary_reservation (Net_state.link t.net dl) ~channel:id with
        | Some r when r = bw -> ()
        | Some r ->
          failwith
            (Printf.sprintf "Drcomm: channel %d reserves %d on link %d, level says %d"
               id r dl bw)
        | None ->
          failwith (Printf.sprintf "Drcomm: channel %d missing on link %d" id dl))
      ch.primary;
    (* Every held backup is registered on every one of its links, and
       distinct backups of one connection are mutually edge-disjoint. *)
    List.iter
      (fun blinks ->
        List.iter
          (fun dl ->
            if not (Link_state.has_backup (Net_state.link t.net dl) ~channel:id) then
              failwith (Printf.sprintf "Drcomm: backup of %d missing on link %d" id dl))
          blinks)
      ch.backups;
    let backup_edges = List.map (List.map Dirlink.edge) ch.backups in
    let all = List.concat backup_edges in
    if List.length all <> List.length (List.sort_uniq compare all) then
      failwith (Printf.sprintf "Drcomm: backups of %d share an edge" id)
  done;
  if Id_tbl.length t.by_id <> t.n_live then
    failwith "Drcomm: id table size out of sync with live set";
  if !total <> t.total_res then
    failwith
      (Printf.sprintf "Drcomm: total_reserved %d out of sync (recomputed %d)"
         t.total_res !total);
  Array.iteri
    (fun lvl c ->
      if c <> t.hist.(lvl) then
        failwith (Printf.sprintf "Drcomm: level histogram out of sync at level %d" lvl))
    hist;
  Array.iteri
    (fun dl c ->
      if c <> t.elastic_on_link.(dl) then
        failwith (Printf.sprintf "Drcomm: elastic index out of sync on link %d" dl))
    elastic
