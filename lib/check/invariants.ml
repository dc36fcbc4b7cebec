let failf fmt = Printf.ksprintf failwith fmt

(* ------------------------------------------------------------------ *)
(* Expected-counter bookkeeping                                        *)

type counters = {
  admits : int;
  rejects : int;
  terminations : int;
  link_failures : int;
  link_repairs : int;
  backup_activations : int;
  backup_losses : int;
  drops : int;
  restores : int;
}

let counter_names =
  [
    ("drcomm.admits", fun c -> c.admits);
    ("drcomm.rejects", fun c -> c.rejects);
    ("drcomm.terminations", fun c -> c.terminations);
    ("drcomm.link_failures", fun c -> c.link_failures);
    ("drcomm.link_repairs", fun c -> c.link_repairs);
    ("drcomm.backup_activations", fun c -> c.backup_activations);
    ("drcomm.backup_losses", fun c -> c.backup_losses);
    ("drcomm.drops", fun c -> c.drops);
    ("drcomm.restores", fun c -> c.restores);
  ]

let read_counters metrics =
  let get name = Metrics.count (Metrics.counter metrics name) in
  {
    admits = get "drcomm.admits";
    rejects = get "drcomm.rejects";
    terminations = get "drcomm.terminations";
    link_failures = get "drcomm.link_failures";
    link_repairs = get "drcomm.link_repairs";
    backup_activations = get "drcomm.backup_activations";
    backup_losses = get "drcomm.backup_losses";
    drops = get "drcomm.drops";
    restores = get "drcomm.restores";
  }

let pp_counters fmt c =
  List.iter
    (fun (name, get) -> Format.fprintf fmt " %s=%d" name (get c))
    counter_names

let check_counters ~expected metrics =
  let actual = read_counters metrics in
  if actual <> expected then
    failf "metrics diverged from event reports:%s but counters say%s"
      (Format.asprintf "%a" pp_counters expected)
      (Format.asprintf "%a" pp_counters actual)

(* ------------------------------------------------------------------ *)
(* Shared helpers                                                      *)

let sorted_channels t =
  List.sort Drcomm.Channel_id.compare (Drcomm.active_channels t)

let int_id = Drcomm.Channel_id.to_int

let primary_edges_of t id =
  List.sort_uniq compare (List.map Dirlink.edge (Drcomm.primary_links t id))

let path_edges blinks = List.map Dirlink.edge blinks

(* ------------------------------------------------------------------ *)
(* Failed-edge unroutability                                           *)

let check_failed_edge_unroutability t =
  let net = Drcomm.net t in
  match Net_state.failed_edges net with
  | [] -> ()
  | failed ->
    List.iter
      (fun id ->
        List.iter
          (fun e ->
            if List.mem e failed then
              failf "channel %d's primary traverses failed edge %d" (int_id id) e)
          (primary_edges_of t id);
        List.iter
          (fun blinks ->
            List.iter
              (fun e ->
                if List.mem e failed then
                  failf "channel %d holds a backup over failed edge %d" (int_id id) e)
              (path_edges blinks))
          (Drcomm.all_backup_links t id))
      (sorted_channels t)

(* ------------------------------------------------------------------ *)
(* Cross-layer per-link accounting                                     *)

(* Rebuild every link's expected reservation/registration tables from the
   service's channel records alone, then require the network layer to
   hold exactly that — no orphans (a reservation with no live owner is a
   leak), no omissions, no stale floors, and a per-edge activation-demand
   index that matches the registrations it summarises. *)
let check_link_accounting t =
  let net = Drcomm.net t in
  let n_links = Net_state.link_count net in
  let exp_primary = Array.init n_links (fun _ -> Hashtbl.create 4) in
  let exp_backup = Array.init n_links (fun _ -> Hashtbl.create 4) in
  List.iter
    (fun id ->
      let bw = Drcomm.reserved_bandwidth t id in
      let floor = (Drcomm.qos_of t id).Qos.b_min in
      let pedges = primary_edges_of t id in
      List.iter
        (fun dl -> Hashtbl.replace exp_primary.(dl) (int_id id) (bw, floor))
        (Drcomm.primary_links t id);
      List.iter
        (fun blinks ->
          List.iter
            (fun dl -> Hashtbl.replace exp_backup.(dl) (int_id id) (floor, pedges))
            blinks)
        (Drcomm.all_backup_links t id))
    (sorted_channels t);
  for dl = 0 to n_links - 1 do
    let l = Net_state.link net dl in
    (* Primary side: exact set equality, reservation by reservation. *)
    let actual = Link_state.primary_channels l in
    if List.length actual <> Hashtbl.length exp_primary.(dl) then
      failf "link %d: %d primary reservations, %d live channels route here" dl
        (List.length actual)
        (Hashtbl.length exp_primary.(dl));
    let min_total = ref 0 and total = ref 0 in
    List.iter
      (fun (ch, reserved) ->
        match Hashtbl.find_opt exp_primary.(dl) ch with
        | None -> failf "link %d: orphan primary reservation for channel %d" dl ch
        | Some (bw, floor) ->
          if bw <> reserved then
            failf "link %d: channel %d reserves %d, service says %d" dl ch reserved bw;
          min_total := !min_total + floor;
          total := !total + reserved)
      actual;
    if Link_state.primary_total l <> !total then
      failf "link %d: primary_total %d, channels sum to %d" dl
        (Link_state.primary_total l) !total;
    if Link_state.primary_min_total l <> !min_total then
      failf "link %d: primary_min_total %d, floors sum to %d" dl
        (Link_state.primary_min_total l) !min_total;
    if Link_state.spare l < 0 then
      failf "link %d: negative spare (%d reserved on capacity %d)" dl
        (Link_state.primary_total l) (Link_state.capacity l);
    (* Backup side: registrations must match held backups exactly. *)
    let actual_b = Link_state.backup_channels l in
    if List.length actual_b <> Hashtbl.length exp_backup.(dl) then
      failf "link %d: %d backup registrations, %d backups held here" dl
        (List.length actual_b)
        (Hashtbl.length exp_backup.(dl));
    List.iter
      (fun ch ->
        match
          (Hashtbl.find_opt exp_backup.(dl) ch, Link_state.backup_registration l ~channel:ch)
        with
        | None, _ -> failf "link %d: orphan backup registration for channel %d" dl ch
        | _, None -> assert false
        | Some (floor, pedges), Some (b_min, reg_edges) ->
          if b_min <> floor then
            failf "link %d: backup of %d registered at %d, floor is %d" dl ch b_min floor;
          if List.sort_uniq compare reg_edges <> pedges then
            failf "link %d: backup of %d keyed to stale primary edges" dl ch)
      actual_b;
    (* Per-edge activation demand recomputed from the registrations. *)
    let demand = Hashtbl.create 8 in
    Hashtbl.iter
      (fun _ (floor, pedges) ->
        List.iter
          (fun e ->
            let d = Option.value ~default:0 (Hashtbl.find_opt demand e) in
            Hashtbl.replace demand e (d + floor))
          pedges)
      exp_backup.(dl);
    let recorded = List.sort compare (Link_state.edge_demands l) in
    let recomputed =
      List.sort compare (Hashtbl.fold (fun e d acc -> (e, d) :: acc) demand [])
    in
    if recorded <> recomputed then
      failf "link %d: per-edge pool demand diverged from registrations" dl
  done

(* ------------------------------------------------------------------ *)
(* Water-filling completeness                                          *)

(* With auto-redistribution on, every mutating call leaves the network at
   a water-filling fixed point: no elastic channel can absorb one more
   increment.  A violation means some operation's dirty-link set missed a
   channel that gained headroom. *)
let check_redistribution_complete t =
  if Drcomm.auto_redistribute t then
    let net = Drcomm.net t in
    List.iter
      (fun id ->
        let qos = Drcomm.qos_of t id in
        if Qos.is_elastic qos && Drcomm.level t id < Qos.levels qos - 1 then
          let blocked =
            List.exists
              (fun dl -> Link_state.spare (Net_state.link net dl) < qos.Qos.increment)
              (Drcomm.primary_links t id)
          in
          if not blocked then
            failf
              "water-filling incomplete: channel %d at level %d has an increment of \
               spare on every link of its path"
              (int_id id) (Drcomm.level t id))
      (sorted_channels t)

(* ------------------------------------------------------------------ *)
(* Incremental-vs-full redistribution equivalence                      *)

(* The dirty-set passes must land on the same fixed point a from-scratch
   global pass would: running {!Drcomm.redistribute_all} against a
   settled service changes no reservation anywhere.  Stronger than
   {!check_redistribution_complete} (which only tests one-increment
   blockage per channel): this exercises the production policy loop
   itself over the full candidate set. *)
let check_incremental_equivalence t =
  if Drcomm.auto_redistribute t then begin
    let net = Drcomm.net t in
    let snap () =
      let acc = ref [] in
      Net_state.iter_links
        (fun dl l ->
          acc := (dl, List.sort compare (Link_state.primary_channels l)) :: !acc)
        net;
      !acc
    in
    let before = snap () in
    Drcomm.redistribute_all t;
    if snap () <> before then
      failf
        "incremental redistribution diverged: a full water-filling pass changed \
         reservations"
  end

(* ------------------------------------------------------------------ *)
(* Backup-multiplexing single-failure safety                           *)

(* The paper's central safety claim (§2.1.2, after Han & Shin): backups
   multiplexed on a shared link must never be over-subscribed by any
   single link failure.  We simulate every usable edge's failure against
   the current state: victims release their primary floors, each victim's
   first still-usable backup activates at its floor, and no link may
   exceed capacity.  Skipped while any link's guarantee constraint is
   broken — the documented multi-failure corner, where forced activations
   legitimately overbook the pool until churn or repair clears it. *)
let check_single_failure_safety t =
  let net = Drcomm.net t in
  let clean = ref true in
  Net_state.iter_links (fun _ l -> if not (Link_state.guarantee_holds l) then clean := false) net;
  if !clean then begin
    let g = Net_state.graph net in
    let chans =
      List.map
        (fun id ->
          ( id,
            (Drcomm.qos_of t id).Qos.b_min,
            primary_edges_of t id,
            Drcomm.primary_links t id,
            Drcomm.all_backup_links t id ))
        (sorted_channels t)
    in
    for e = 0 to Graph.edge_count g - 1 do
      if Net_state.usable_edge net e then begin
        let victims = List.filter (fun (_, _, pedges, _, _) -> List.mem e pedges) chans in
        if victims <> [] then begin
          let delta = Hashtbl.create 16 in
          let bump dl d =
            let cur = Option.value ~default:0 (Hashtbl.find_opt delta dl) in
            Hashtbl.replace delta dl (cur + d)
          in
          List.iter
            (fun (_, floor, _, plinks, backups) ->
              List.iter (fun dl -> bump dl (-floor)) plinks;
              let usable blinks =
                List.for_all
                  (fun dl ->
                    let be = Dirlink.edge dl in
                    be <> e && Net_state.usable_edge net be)
                  blinks
              in
              match List.find_opt usable backups with
              | None -> ()
              | Some blinks -> List.iter (fun dl -> bump dl floor) blinks)
            victims;
          Hashtbl.iter
            (fun dl d ->
              let l = Net_state.link net dl in
              let after = Link_state.primary_min_total l + d in
              if after > Link_state.capacity l then
                failf
                  "single failure of edge %d would over-subscribe link %d: floors \
                   %d + activation delta %d > capacity %d"
                  e dl (Link_state.primary_min_total l) d (Link_state.capacity l))
            delta
        end
      end
    done
  end

(* ------------------------------------------------------------------ *)

let check_all ?expected ?metrics ?(deep = true) t =
  Drcomm.check_invariants t;
  check_failed_edge_unroutability t;
  check_link_accounting t;
  check_redistribution_complete t;
  if deep then begin
    check_incremental_equivalence t;
    check_single_failure_safety t
  end;
  match (expected, metrics) with
  | Some expected, Some metrics -> check_counters ~expected metrics
  | _ -> ()
