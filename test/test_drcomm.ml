(* Tests for the DR-connection service: admission, retreat, elastic
   redistribution, backup management, failure recovery. *)

(* Ring 0-1-2-3-0: every pair of nodes has exactly two link-disjoint
   routes, so backups always exist while the ring is intact. *)
let ring ?(capacity = 1000) ?config () =
  let g = Graph.create 4 in
  let e01 = Graph.add_edge g 0 1 in
  let e12 = Graph.add_edge g 1 2 in
  let e23 = Graph.add_edge g 2 3 in
  let e30 = Graph.add_edge g 3 0 in
  let net = Net_state.create ~capacity g in
  (Drcomm.create ?config net, g, (e01, e12, e23, e30))

(* Line 0-1-2-3: no cycles, so no link-disjoint backups exist. *)
let line ?(capacity = 600) ?config () =
  let g = Graph.create 4 in
  ignore (Graph.add_edge g 0 1);
  ignore (Graph.add_edge g 1 2);
  ignore (Graph.add_edge g 2 3);
  let net = Net_state.create ~capacity g in
  (Drcomm.create ?config net, g)

let qos5 = Qos.paper_spec ~increment:100 (* 100..500, 5 levels *)
let channel_id = Alcotest.testable Drcomm.Channel_id.pp Drcomm.Channel_id.equal
let no_backups = Drcomm.Config.make ~backups_per_connection:0 ()

let admit_ok t ~src ~dst ~qos =
  match Drcomm.admit t ~src ~dst ~qos with
  | Drcomm.Admitted (id, report) -> (id, report)
  | Drcomm.Rejected _ -> Alcotest.fail "expected admission"

let test_single_connection_maxes_out () =
  let t, _, _ = ring () in
  let id, report = admit_ok t ~src:0 ~dst:1 ~qos:qos5 in
  Alcotest.(check int) "no one existed" 0 report.Drcomm.existing;
  Alcotest.(check int) "one channel" 1 (Drcomm.count t);
  (* Alone in the network, the channel is water-filled to its ceiling. *)
  Alcotest.(check int) "level 4" 4 (Drcomm.level t id);
  Alcotest.(check int) "500 Kbps" 500 (Drcomm.reserved_bandwidth t id);
  Alcotest.(check int) "1-hop primary" 1 (List.length (Drcomm.primary_links t id));
  (match Drcomm.backup_links t id with
  | Some blinks -> Alcotest.(check int) "3-hop backup" 3 (List.length blinks)
  | None -> Alcotest.fail "expected backup");
  Drcomm.check_invariants t

let test_no_backup_in_tree_rejected () =
  let t, _ = line () in
  (match Drcomm.admit t ~src:0 ~dst:3 ~qos:qos5 with
  | Drcomm.Rejected Drcomm.No_backup_route -> ()
  | _ -> Alcotest.fail "expected No_backup_route");
  Alcotest.(check int) "nothing admitted" 0 (Drcomm.count t);
  Drcomm.check_invariants t

let test_no_backup_accepted_when_optional () =
  let cfg = Drcomm.Config.make ~require_backup:false () in
  let t, _ = line ~config:cfg () in
  let id, _ = admit_ok t ~src:0 ~dst:3 ~qos:qos5 in
  Alcotest.(check bool) "no backup" false (Drcomm.has_backup t id);
  Alcotest.(check int) "admitted" 1 (Drcomm.count t)

let test_floor_exhaustion_rejects () =
  let t, _ = line ~capacity:250 ~config:no_backups () in
  (* Floors of 100: two fit beside each other on a 250 link, a third
     cannot. *)
  ignore (admit_ok t ~src:0 ~dst:1 ~qos:qos5);
  ignore (admit_ok t ~src:0 ~dst:1 ~qos:qos5);
  (match Drcomm.admit t ~src:0 ~dst:1 ~qos:qos5 with
  | Drcomm.Rejected Drcomm.No_primary_route -> ()
  | _ -> Alcotest.fail "expected No_primary_route");
  Drcomm.check_invariants t

let test_arrival_retreats_sharing_channel () =
  let t, _, _ = ring ~capacity:600 () in
  let id1, _ = admit_ok t ~src:0 ~dst:1 ~qos:qos5 in
  Alcotest.(check int) "alone at ceiling" 4 (Drcomm.level t id1);
  let id2, report = admit_ok t ~src:0 ~dst:1 ~qos:qos5 in
  (* id1 shares the direct 0->1 link: it retreated, then both were
     water-filled evenly: 600 biased by... floors 200, spare 400 split
     two ways -> 300/300, i.e. level 2 each. *)
  Alcotest.(check int) "direct count" 1 report.Drcomm.direct_count;
  (match report.Drcomm.transitions with
  | [ tr ] ->
    Alcotest.check channel_id "channel" id1 tr.Drcomm.channel;
    Alcotest.(check int) "before" 4 tr.Drcomm.before;
    Alcotest.(check int) "after" 2 tr.Drcomm.after;
    Alcotest.(check bool) "direct" true (tr.Drcomm.chained = `Direct)
  | _ -> Alcotest.fail "expected exactly one transition");
  Alcotest.(check int) "id1 at 300" 300 (Drcomm.reserved_bandwidth t id1);
  Alcotest.(check int) "id2 at 300" 300 (Drcomm.reserved_bandwidth t id2);
  Drcomm.check_invariants t

let test_termination_releases_and_upgrades () =
  let t, _, _ = ring ~capacity:600 () in
  let id1, _ = admit_ok t ~src:0 ~dst:1 ~qos:qos5 in
  let id2, _ = admit_ok t ~src:0 ~dst:1 ~qos:qos5 in
  let report = Drcomm.terminate t id2 in
  Alcotest.(check int) "one left" 1 (Drcomm.count t);
  Alcotest.(check int) "sharing seen" 1 report.Drcomm.direct_count;
  (match report.Drcomm.transitions with
  | [ tr ] ->
    Alcotest.(check int) "upgraded from 2" 2 tr.Drcomm.before;
    Alcotest.(check int) "back to ceiling" 4 tr.Drcomm.after
  | _ -> Alcotest.fail "expected one transition");
  Alcotest.(check int) "id1 regained 500" 500 (Drcomm.reserved_bandwidth t id1);
  Drcomm.check_invariants t

let test_terminate_dead_handle_raises () =
  let t, _, _ = ring () in
  let id, _ = admit_ok t ~src:0 ~dst:1 ~qos:qos5 in
  ignore (Drcomm.terminate t id);
  Alcotest.(check bool) "handle outlives the channel" false (Drcomm.mem t id);
  Alcotest.check_raises "dead handle" Not_found (fun () ->
      ignore (Drcomm.terminate t id))

let test_admit_validation () =
  let t, _, _ = ring () in
  Alcotest.check_raises "src = dst" (Invalid_argument "Drcomm.admit: src = dst")
    (fun () -> ignore (Drcomm.admit t ~src:1 ~dst:1 ~qos:qos5));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Drcomm.admit: endpoint out of range") (fun () ->
      ignore (Drcomm.admit t ~src:0 ~dst:7 ~qos:qos5))

let test_indirect_chaining_classified () =
  (* Line 0-1-2-3, no backups.  ch_a: 0->2, ch_b: 1->3 (they share link
     1->2).  A new channel 0->1 is directly chained to ch_a only; ch_b is
     indirectly chained via ch_a. *)
  let t, _ = line ~capacity:600 ~config:no_backups () in
  let ch_a, _ = admit_ok t ~src:0 ~dst:2 ~qos:qos5 in
  let ch_b, _ = admit_ok t ~src:1 ~dst:3 ~qos:qos5 in
  let _, report = admit_ok t ~src:0 ~dst:1 ~qos:qos5 in
  Alcotest.(check int) "one direct" 1 report.Drcomm.direct_count;
  Alcotest.(check int) "one indirect" 1 report.Drcomm.indirect_count;
  let direct_tr =
    List.find (fun tr -> tr.Drcomm.chained = `Direct) report.Drcomm.transitions
  in
  let indirect_tr =
    List.find (fun tr -> tr.Drcomm.chained = `Indirect) report.Drcomm.transitions
  in
  Alcotest.check channel_id "direct is ch_a" ch_a direct_tr.Drcomm.channel;
  Alcotest.check channel_id "indirect is ch_b" ch_b indirect_tr.Drcomm.channel;
  Drcomm.check_invariants t

let test_indirect_channel_gains () =
  (* Same layout; verify ch_b actually benefits from ch_a's retreat. *)
  let t, _ = line ~capacity:600 ~config:no_backups () in
  let _ = admit_ok t ~src:0 ~dst:2 ~qos:qos5 in
  let ch_b, _ = admit_ok t ~src:1 ~dst:3 ~qos:qos5 in
  let before = Drcomm.reserved_bandwidth t ch_b in
  let _, _ = admit_ok t ~src:0 ~dst:1 ~qos:qos5 in
  let after = Drcomm.reserved_bandwidth t ch_b in
  Alcotest.(check bool)
    (Printf.sprintf "ch_b %d -> %d must not lose" before after)
    true (after >= before);
  Drcomm.check_invariants t

let test_equal_share_fairness () =
  let t, _ = line ~capacity:1000 ~config:no_backups () in
  (* Four identical channels on one link: 1000/4 = 250 each is off-grid;
     equal share gives levels within one increment of each other. *)
  let ids = List.init 4 (fun _ -> fst (admit_ok t ~src:0 ~dst:1 ~qos:qos5)) in
  let levels = List.map (Drcomm.level t) ids in
  let lo = List.fold_left min 9 levels and hi = List.fold_left max 0 levels in
  Alcotest.(check bool) "within one increment" true (hi - lo <= 1);
  Alcotest.(check int) "all bandwidth used up to grid" 1000
    (Drcomm.total_reserved t + (1000 - Drcomm.total_reserved t));
  Alcotest.(check bool) "no spare left for another increment" true
    (1000 - Drcomm.total_reserved t < 100);
  Drcomm.check_invariants t

let test_max_utility_monopolises () =
  let cfg =
    Drcomm.Config.make ~backups_per_connection:0 ~policy:Policy.max_utility ()
  in
  let t, _ = line ~capacity:700 ~config:cfg () in
  let cheap = Qos.make ~b_min:100 ~b_max:500 ~increment:100 ~utility:1. () in
  let dear = Qos.make ~b_min:100 ~b_max:500 ~increment:100 ~utility:5. () in
  let id1, _ = admit_ok t ~src:0 ~dst:1 ~qos:cheap in
  let id2, _ = admit_ok t ~src:0 ~dst:1 ~qos:dear in
  (* 700 capacity, floors 200: the high-utility channel takes all 400
     extra it can (to 500), the other gets the rest (100 -> 200). *)
  Alcotest.(check int) "dear at ceiling" 500 (Drcomm.reserved_bandwidth t id2);
  Alcotest.(check int) "cheap gets leftovers" 200 (Drcomm.reserved_bandwidth t id1)

let test_proportional_split () =
  let cfg =
    Drcomm.Config.make ~backups_per_connection:0 ~policy:Policy.proportional ()
  in
  let t, _ = line ~capacity:600 ~config:cfg () in
  let cheap = Qos.make ~b_min:100 ~b_max:500 ~increment:100 ~utility:1. () in
  let dear = Qos.make ~b_min:100 ~b_max:500 ~increment:100 ~utility:3. () in
  let id1, _ = admit_ok t ~src:0 ~dst:1 ~qos:cheap in
  let id2, _ = admit_ok t ~src:0 ~dst:1 ~qos:dear in
  (* 400 extra split 1:3 -> +100 / +300. *)
  Alcotest.(check int) "cheap" 200 (Drcomm.reserved_bandwidth t id1);
  Alcotest.(check int) "dear" 400 (Drcomm.reserved_bandwidth t id2)

let test_single_value_qos_never_upgrades () =
  let t, _ = line ~capacity:1000 ~config:no_backups () in
  let sv = Qos.single_value 100 in
  let id, _ = admit_ok t ~src:0 ~dst:1 ~qos:sv in
  Alcotest.(check int) "stays at floor" 100 (Drcomm.reserved_bandwidth t id);
  Alcotest.(check int) "level 0" 0 (Drcomm.level t id)

let test_elastic_beats_single_value_admission () =
  (* The paper's motivation: inelastic high-QoS requests block the
     network early; elastic requests are all admitted at their floor. *)
  let t_sv, _ = line ~capacity:1000 ~config:no_backups () in
  let t_el, _ = line ~capacity:1000 ~config:no_backups () in
  let admitted service qos =
    let ok = ref 0 in
    for _ = 1 to 10 do
      match Drcomm.admit service ~src:0 ~dst:1 ~qos with
      | Drcomm.Admitted _ -> incr ok
      | Drcomm.Rejected _ -> ()
    done;
    !ok
  in
  let sv_count = admitted t_sv (Qos.single_value 500) in
  let el_count = admitted t_el qos5 in
  Alcotest.(check int) "single-value fits 2" 2 sv_count;
  Alcotest.(check int) "elastic fits 10" 10 el_count

let test_backup_multiplexing_saves_capacity () =
  (* Two connections with edge-disjoint primaries route their backups over
     shared links; the pool must stay at one floor, not two. *)
  let t, g, (_, _, _, _) = ring ~capacity:1000 () in
  let id1, _ = admit_ok t ~src:0 ~dst:1 ~qos:qos5 in
  let id2, _ = admit_ok t ~src:2 ~dst:3 ~qos:qos5 in
  let b1 = Option.get (Drcomm.backup_links t id1) in
  let b2 = Option.get (Drcomm.backup_links t id2) in
  (* On the ring the two backups traverse overlapping links. *)
  Alcotest.(check bool) "backups overlap" true (Dirlink.shares_edge b1 b2);
  let total_pool = ref 0 in
  Net_state.iter_links (fun _ l -> total_pool := !total_pool + Link_state.backup_pool l)
    (Drcomm.net t);
  (* Without multiplexing the overlapping links would hold 200 each; with
     it every link pools at most 100 (primaries are edge-disjoint). *)
  Net_state.iter_links
    (fun _ l ->
      Alcotest.(check bool) "per-link pool <= 100" true (Link_state.backup_pool l <= 100))
    (Drcomm.net t);
  ignore g;
  Drcomm.check_invariants t

let test_failure_activates_backup () =
  let t, _, (e01, _, _, _) = ring ~capacity:1000 () in
  let id, _ = admit_ok t ~src:0 ~dst:1 ~qos:qos5 in
  let primary_before = Drcomm.primary_links t id in
  let backup_before = Option.get (Drcomm.backup_links t id) in
  let freport = Drcomm.fail_edge t e01 in
  (match freport.Drcomm.recoveries with
  | [ { Drcomm.victim; outcome = `Switched_to_backup fresh } ] ->
    Alcotest.check channel_id "victim" id victim;
    (* The ring minus one edge is a tree: no new backup possible. *)
    Alcotest.(check bool) "no fresh backup" false fresh
  | _ -> Alcotest.fail "expected a switch");
  Alcotest.(check int) "still alive" 1 (Drcomm.count t);
  Alcotest.(check int) "no drops" 0 (Drcomm.dropped_connections t);
  Alcotest.(check (list int)) "primary is the old backup" backup_before
    (Drcomm.primary_links t id);
  Alcotest.(check bool) "backup gone" false (Drcomm.has_backup t id);
  Alcotest.(check bool) "old primary released" true
    (primary_before <> Drcomm.primary_links t id);
  (* Redistribution after activation climbs the survivor back up. *)
  Alcotest.(check int) "water-filled" 500 (Drcomm.reserved_bandwidth t id);
  Drcomm.check_invariants t

let test_failure_drops_when_backup_also_hit () =
  let t, _, (e01, e12, _, _) = ring ~capacity:1000 () in
  let id, _ = admit_ok t ~src:0 ~dst:1 ~qos:qos5 in
  (* First failure takes the backup path's middle edge. *)
  let r1 = Drcomm.fail_edge t e12 in
  (match r1.Drcomm.recoveries with
  | [ { Drcomm.outcome = `Backup_lost false; victim } ] ->
    Alcotest.check channel_id "victim" id victim
  | _ -> Alcotest.fail "expected backup loss without replacement");
  Alcotest.(check bool) "runs unprotected" false (Drcomm.has_backup t id);
  (* Second failure kills the primary: nothing to switch to. *)
  let r2 = Drcomm.fail_edge t e01 in
  (match r2.Drcomm.recoveries with
  | [ { Drcomm.outcome = `Dropped; _ } ] -> ()
  | _ -> Alcotest.fail "expected drop");
  Alcotest.(check int) "gone" 0 (Drcomm.count t);
  Alcotest.(check int) "counted" 1 (Drcomm.dropped_connections t);
  Drcomm.check_invariants t

let test_failure_retreats_channels_on_backup_links () =
  (* A bystander using the backup path's links must release its extras
     when the backup activates (§3.1). *)
  let t, _, (e01, _, _, _) = ring ~capacity:600 () in
  let victim, _ = admit_ok t ~src:0 ~dst:1 ~qos:qos5 in
  let bystander, _ = admit_ok t ~src:1 ~dst:2 ~qos:qos5 in
  (* bystander's primary 1->2 lies on victim's backup route 0-3-2-1
     reversed?  The backup of 0->1 is 0-3-2-1, using directed links
     0->3, 3->2, 2->1 — the bystander uses 1->2, the reverse direction,
     so to make it share we route it 2->1 instead. *)
  Drcomm.(ignore (terminate t bystander));
  let bystander, _ = admit_ok t ~src:2 ~dst:1 ~qos:qos5 in
  let level_before = Drcomm.level t bystander in
  let freport = Drcomm.fail_edge t e01 in
  Alcotest.(check bool) "victim switched" true
    (List.exists
       (fun r ->
         Drcomm.Channel_id.equal r.Drcomm.victim victim
         && r.Drcomm.outcome = `Switched_to_backup false)
       freport.Drcomm.recoveries);
  (* The bystander appears in the event transitions (it held extras on an
     activated link). *)
  Alcotest.(check bool) "bystander retreated and refilled" true
    (List.exists
       (fun tr ->
         Drcomm.Channel_id.equal tr.Drcomm.channel bystander
         && tr.Drcomm.before = level_before)
       freport.Drcomm.event.Drcomm.transitions);
  Drcomm.check_invariants t

let test_restoration_baseline () =
  (* Reactive restoration without backups (the scheme the paper's
     backup-channel approach is designed to beat): on a ring, a failed
     primary is re-established over the surviving arc. *)
  let cfg =
    Drcomm.Config.make ~backups_per_connection:0 ~restore_on_failure:true ()
  in
  let t, _, (e01, _, _, _) = ring ~config:cfg () in
  let id, _ = admit_ok t ~src:0 ~dst:1 ~qos:qos5 in
  Alcotest.(check int) "direct route" 1 (List.length (Drcomm.primary_links t id));
  let r = Drcomm.fail_edge t e01 in
  (match r.Drcomm.recoveries with
  | [ { Drcomm.outcome = `Restored false; _ } ] -> ()
  | _ -> Alcotest.fail "expected restoration without backup");
  Alcotest.(check int) "alive" 1 (Drcomm.count t);
  Alcotest.(check int) "no drops" 0 (Drcomm.dropped_connections t);
  (* The restored connection lives under a fresh id on the long arc. *)
  (match Drcomm.active_channels t with
  | [ nid ] ->
    Alcotest.(check int) "detour route" 3 (List.length (Drcomm.primary_links t nid))
  | _ -> Alcotest.fail "expected one channel");
  Drcomm.check_invariants t

let test_restoration_fails_under_partition () =
  (* When the failure disconnects the pair, restoration cannot help and
     the connection drops. *)
  let cfg =
    Drcomm.Config.make ~backups_per_connection:0 ~restore_on_failure:true ()
  in
  let t, _ = line ~config:cfg () in
  let id, _ = admit_ok t ~src:0 ~dst:1 ~qos:qos5 in
  ignore id;
  let r = Drcomm.fail_edge t 0 in
  (match r.Drcomm.recoveries with
  | [ { Drcomm.outcome = `Dropped; _ } ] -> ()
  | _ -> Alcotest.fail "expected drop");
  Alcotest.(check int) "dropped" 1 (Drcomm.dropped_connections t)

let test_fail_edge_idempotent () =
  let t, _, (e01, _, _, _) = ring () in
  ignore (admit_ok t ~src:0 ~dst:1 ~qos:qos5);
  ignore (Drcomm.fail_edge t e01);
  let again = Drcomm.fail_edge t e01 in
  Alcotest.(check int) "no recoveries" 0 (List.length again.Drcomm.recoveries)

let test_repair_restores_routability () =
  (* Backups optional here: the ring minus a failed edge is a tree, where
     the detour admission would otherwise be vetoed for lack of backup. *)
  let cfg = Drcomm.Config.make ~require_backup:false () in
  let t, _, (e01, _, _, _) = ring ~config:cfg () in
  ignore (Drcomm.fail_edge t e01);
  (match Drcomm.admit t ~src:0 ~dst:1 ~qos:qos5 with
  | Drcomm.Admitted (id, _) ->
    (* Route must avoid the failed edge: 3 hops. *)
    Alcotest.(check int) "detour" 3 (List.length (Drcomm.primary_links t id));
    ignore (Drcomm.terminate t id)
  | Drcomm.Rejected _ -> Alcotest.fail "detour should admit");
  Drcomm.repair_edge t e01;
  match Drcomm.admit t ~src:0 ~dst:1 ~qos:qos5 with
  | Drcomm.Admitted (id, _) ->
    Alcotest.(check int) "direct again" 1 (List.length (Drcomm.primary_links t id))
  | Drcomm.Rejected _ -> Alcotest.fail "repaired edge should admit"

let test_level_histogram () =
  let t, _ = line ~capacity:1000 ~config:no_backups () in
  ignore (admit_ok t ~src:0 ~dst:1 ~qos:qos5);
  ignore (admit_ok t ~src:2 ~dst:3 ~qos:qos5);
  let h = Drcomm.level_histogram t ~max_levels:5 in
  Alcotest.(check int) "both at ceiling" 2 h.(4);
  Alcotest.(check int) "total" 2 (Array.fold_left ( + ) 0 h)

let test_average_bandwidth () =
  let t, _ = line ~capacity:1000 ~config:no_backups () in
  Alcotest.check (Alcotest.float 1e-9) "empty" 0. (Drcomm.average_bandwidth t);
  ignore (admit_ok t ~src:0 ~dst:1 ~qos:qos5);
  ignore (admit_ok t ~src:2 ~dst:3 ~qos:qos5);
  Alcotest.check (Alcotest.float 1e-9) "both 500" 500. (Drcomm.average_bandwidth t);
  Alcotest.(check int) "total" 1000 (Drcomm.total_reserved t)

let test_bulk_redistribution_equivalent () =
  (* Loading with deferred redistribution then one global pass must give
     every channel a valid level and leave invariants intact. *)
  let t, _ = line ~capacity:1000 ~config:no_backups () in
  Drcomm.set_auto_redistribute t false;
  let ids = List.init 3 (fun _ -> fst (admit_ok t ~src:0 ~dst:3 ~qos:qos5)) in
  List.iter
    (fun id -> Alcotest.(check int) "still at floor" 0 (Drcomm.level t id))
    ids;
  Drcomm.redistribute_all t;
  Drcomm.set_auto_redistribute t true;
  (* 1000 capacity/link, 3 channels: 300/300/400 or similar — all at least
     level 2, sum within one increment of capacity. *)
  List.iter
    (fun id -> Alcotest.(check bool) "filled" true (Drcomm.level t id >= 2))
    ids;
  Alcotest.(check bool) "nearly full" true (1000 - Drcomm.total_reserved t < 100);
  Drcomm.check_invariants t

(* --- QoS renegotiation --- *)

let test_change_qos_upgrade_range () =
  (* Lift the ceiling of a live connection: same routes, wider range,
     immediately re-water-filled. *)
  let t, _, _ = ring ~capacity:1000 () in
  let small = Qos.make ~b_min:100 ~b_max:200 ~increment:100 () in
  let id, _ = admit_ok t ~src:0 ~dst:1 ~qos:small in
  Alcotest.(check int) "capped at 200" 200 (Drcomm.reserved_bandwidth t id);
  let primary_before = Drcomm.primary_links t id in
  Alcotest.(check bool) "accepted" true (Drcomm.change_qos t id qos5 = `Changed);
  Alcotest.(check int) "now reaches 500" 500 (Drcomm.reserved_bandwidth t id);
  Alcotest.(check (list int)) "same route" primary_before (Drcomm.primary_links t id);
  Alcotest.(check bool) "backup kept" true (Drcomm.has_backup t id);
  Drcomm.check_invariants t

let test_change_qos_floor_increase_checked () =
  (* On a full link the floor cannot grow. *)
  let t, _ = line ~capacity:300 ~config:no_backups () in
  let id, _ = admit_ok t ~src:0 ~dst:1 ~qos:qos5 in
  ignore (admit_ok t ~src:0 ~dst:1 ~qos:qos5);
  (* Floors 100 + 100 on a 300 link: raising one floor to 300 needs 400. *)
  let fat = Qos.make ~b_min:300 ~b_max:500 ~increment:100 () in
  Alcotest.(check bool) "rejected" true (Drcomm.change_qos t id fat = `Rejected);
  (* Old contract intact. *)
  Alcotest.(check int) "old floor back" 100 (Qos.(
    (Drcomm.qos_of t id).b_min));
  Drcomm.check_invariants t;
  (* A floor that fits is accepted and updates the backup pool too. *)
  let t2, _, _ = ring ~capacity:1000 () in
  let id2, _ = admit_ok t2 ~src:0 ~dst:1 ~qos:qos5 in
  let fat2 = Qos.make ~b_min:300 ~b_max:500 ~increment:100 () in
  Alcotest.(check bool) "accepted" true (Drcomm.change_qos t2 id2 fat2 = `Changed);
  let backup = Option.get (Drcomm.backup_links t2 id2) in
  List.iter
    (fun dl ->
      Alcotest.(check int) "pool tracks new floor" 300
        (Link_state.backup_pool (Net_state.link (Drcomm.net t2) dl)))
    backup;
  Drcomm.check_invariants t2

let test_change_qos_retreats_neighbours () =
  (* Raising a floor reclaims neighbours' extras, like an arrival. *)
  let t, _ = line ~capacity:600 ~config:no_backups () in
  let id1, _ = admit_ok t ~src:0 ~dst:1 ~qos:qos5 in
  let id2, _ = admit_ok t ~src:0 ~dst:1 ~qos:qos5 in
  Alcotest.(check int) "balanced" 300 (Drcomm.reserved_bandwidth t id1);
  let fat = Qos.make ~b_min:400 ~b_max:500 ~increment:100 () in
  Alcotest.(check bool) "accepted" true (Drcomm.change_qos t id1 fat = `Changed);
  Alcotest.(check bool) "id1 at >= 400" true (Drcomm.reserved_bandwidth t id1 >= 400);
  Alcotest.(check bool) "id2 squeezed but >= floor" true
    (Drcomm.reserved_bandwidth t id2 >= 100);
  Drcomm.check_invariants t

let test_change_qos_dead_handle () =
  let t, _, _ = ring () in
  let id, _ = admit_ok t ~src:0 ~dst:1 ~qos:qos5 in
  ignore (Drcomm.terminate t id);
  Alcotest.check_raises "dead handle" Not_found (fun () ->
      ignore (Drcomm.change_qos t id qos5))

(* --- multiple backups per connection --- *)

(* Diamond with three disjoint 0->3 routes. *)
let diamond6 ?(capacity = 1000) ?config () =
  let g = Graph.create 6 in
  ignore (Graph.add_edge g 0 1);
  ignore (Graph.add_edge g 1 3);
  ignore (Graph.add_edge g 0 2);
  ignore (Graph.add_edge g 2 3);
  ignore (Graph.add_edge g 0 4);
  ignore (Graph.add_edge g 4 5);
  ignore (Graph.add_edge g 5 3);
  (Drcomm.create ?config (Net_state.create ~capacity g), g)

let test_two_backups_established () =
  let cfg = Drcomm.Config.make ~backups_per_connection:2 () in
  let t, _ = diamond6 ~config:cfg () in
  let id, _ = admit_ok t ~src:0 ~dst:3 ~qos:qos5 in
  let backups = Drcomm.all_backup_links t id in
  Alcotest.(check int) "two backups" 2 (List.length backups);
  (* Mutually disjoint and disjoint from the primary. *)
  let edges_of links = List.map Dirlink.edge links in
  let primary = edges_of (Drcomm.primary_links t id) in
  let all = List.concat_map edges_of backups in
  Alcotest.(check int) "backups mutually disjoint" (List.length all)
    (List.length (List.sort_uniq compare all));
  List.iter
    (fun e -> Alcotest.(check bool) "disjoint from primary" true (not (List.mem e primary)))
    all;
  Drcomm.check_invariants t

let test_two_backups_survive_two_failures () =
  let cfg = Drcomm.Config.make ~backups_per_connection:2 () in
  let t, _ = diamond6 ~config:cfg () in
  let id, _ = admit_ok t ~src:0 ~dst:3 ~qos:qos5 in
  (* First failure: switch to backup 1; no new backup can be found (all
     three routes committed), so one backup remains. *)
  let e1 = Dirlink.edge (List.hd (Drcomm.primary_links t id)) in
  let r1 = Drcomm.fail_edge t e1 in
  (match r1.Drcomm.recoveries with
  | [ { Drcomm.outcome = `Switched_to_backup true; _ } ] -> ()
  | _ -> Alcotest.fail "first switch should keep a backup");
  Alcotest.(check int) "one backup left" 1 (List.length (Drcomm.all_backup_links t id));
  (* Second failure: switch again. *)
  let e2 = Dirlink.edge (List.hd (Drcomm.primary_links t id)) in
  let r2 = Drcomm.fail_edge t e2 in
  (match r2.Drcomm.recoveries with
  | [ { Drcomm.outcome = `Switched_to_backup false; _ } ] -> ()
  | _ -> Alcotest.fail "second switch expected");
  Alcotest.(check int) "still alive after two failures" 1 (Drcomm.count t);
  Alcotest.(check int) "no drops" 0 (Drcomm.dropped_connections t);
  Drcomm.check_invariants t

let test_single_backup_drops_on_second_failure () =
  (* Same scenario with the default single backup: the second failure
     kills the connection (its only backup was consumed and the third
     route was grabbed as the replacement backup... which then activates;
     a third failure finishes it).  Compare drop counts with k = 1 vs 2
     under the same three-failure storm. *)
  let storm k =
    let cfg = Drcomm.Config.make ~backups_per_connection:k () in
    let t, _ = diamond6 ~config:cfg () in
    let id, _ = admit_ok t ~src:0 ~dst:3 ~qos:qos5 in
    for _ = 1 to 3 do
      if Drcomm.mem t id then
        ignore (Drcomm.fail_edge t (Dirlink.edge (List.hd (Drcomm.primary_links t id))))
    done;
    Drcomm.dropped_connections t
  in
  (* Both eventually die after 3 failures on a 3-route graph; but with
     2 backups the connection survives strictly longer under 2 failures. *)
  let survive_two k =
    let cfg = Drcomm.Config.make ~backups_per_connection:k () in
    let t, _ = diamond6 ~config:cfg () in
    let id, _ = admit_ok t ~src:0 ~dst:3 ~qos:qos5 in
    for _ = 1 to 2 do
      if Drcomm.mem t id then
        ignore (Drcomm.fail_edge t (Dirlink.edge (List.hd (Drcomm.primary_links t id))))
    done;
    Drcomm.mem t id
  in
  Alcotest.(check bool) "k=2 survives two failures" true (survive_two 2);
  Alcotest.(check bool) "k=1 also survives (re-establishes)" true (survive_two 1);
  Alcotest.(check bool) "three failures exhaust the diamond" true
    (storm 2 = 1 && storm 1 = 1)

let test_backups_validation () =
  (* Validation lives in the smart constructor: a Config.t is well-formed
     by construction, so an ill-formed one cannot even reach the service. *)
  Alcotest.check_raises "negative backups"
    (Invalid_argument "Drcomm.Config.make: backups_per_connection >= 0")
    (fun () -> ignore (Drcomm.Config.make ~backups_per_connection:(-1) ()));
  Alcotest.check_raises "hop bound"
    (Invalid_argument "Drcomm.Config.make: hop_bound >= 1") (fun () ->
      ignore (Drcomm.Config.make ~hop_bound:0 ()))

(* Random operation soak: invariants must survive arbitrary interleavings
   of admit / terminate / fail / repair on a real topology. *)
let soak ?(backups = 1) seed ops =
  let rng = Prng.create seed in
  let g = Waxman.generate rng (Waxman.spec ~nodes:20 ~alpha:0.5 ~beta:0.3 ()) in
  let cfg =
    Drcomm.Config.make ~require_backup:false ~backups_per_connection:backups ()
  in
  let t = Drcomm.create ~config:cfg (Net_state.create ~capacity:2000 g) in
  let random_qos rng =
    let b_min = 100 * (1 + Prng.int rng 3) in
    let span = 100 * Prng.int rng 3 in
    Qos.make ~b_min ~b_max:(b_min + span) ~increment:100
      ~utility:(0.5 +. Prng.float rng 4.) ()
  in
  for _ = 1 to ops do
    let dice = Prng.int rng 100 in
    (if dice < 40 then begin
       let src, dst = Prng.sample_distinct_pair rng (Graph.node_count g) in
       ignore (Drcomm.admit t ~src ~dst ~qos:qos5)
     end
     else if dice < 70 then begin
       match Drcomm.active_channels t with
       | [] -> ()
       | ids -> ignore (Drcomm.terminate t (Prng.pick_list rng ids))
     end
     else if dice < 82 then begin
       let e = Prng.int rng (Graph.edge_count g) in
       ignore (Drcomm.fail_edge t e)
     end
     else if dice < 92 then begin
       match Net_state.failed_edges (Drcomm.net t) with
       | [] -> ()
       | es -> Drcomm.repair_edge t (Prng.pick_list rng es)
     end
     else begin
       (* Renegotiate a random live connection to a random contract. *)
       match Drcomm.active_channels t with
       | [] -> ()
       | ids ->
         ignore (Drcomm.change_qos t (Prng.pick_list rng ids) (random_qos rng))
     end);
    Drcomm.check_invariants t;
    List.iter
      (fun id ->
        let lvl = Drcomm.level t id in
        if lvl < 0 || lvl >= Qos.levels (Drcomm.qos_of t id) then
          Alcotest.fail "level out of range")
      (Drcomm.active_channels t)
  done

(* --- Regressions for bugs found by the lib/check fuzzer. ----------- *)

(* Fuzzer bug: [repair_edge] incremented [drcomm.link_repairs] (and
   emitted a trace event) even when the edge was healthy, so counters
   diverged from reality on the very first redundant repair. *)
let test_repair_idempotent_metrics () =
  let metrics = Metrics.create () in
  let obs = Obs.create ~metrics () in
  let g = Graph.create 4 in
  let e01 = Graph.add_edge g 0 1 in
  let e12 = Graph.add_edge g 1 2 in
  ignore (Graph.add_edge g 2 3);
  ignore (Graph.add_edge g 3 0);
  let cfg = Drcomm.Config.make ~require_backup:false () in
  let t = Drcomm.create ~config:cfg ~obs (Net_state.create ~capacity:1000 g) in
  let repairs () = Metrics.count (Metrics.counter metrics "drcomm.link_repairs") in
  (* Repairing a healthy edge is a no-op, not a repair. *)
  Drcomm.repair_edge t e12;
  Alcotest.(check int) "healthy repair uncounted" 0 (repairs ());
  ignore (Drcomm.fail_edge t e01);
  Drcomm.repair_edge t e01;
  Drcomm.repair_edge t e01;
  Drcomm.repair_edge t e12;
  Alcotest.(check int) "one real repair" 1 (repairs ());
  Alcotest.(check int) "one real failure" 1
    (Metrics.count (Metrics.counter metrics "drcomm.link_failures"))

(* Double failure of the same edge, then repair: the second [fail_edge]
   must be a pure no-op and the repaired edge must carry traffic again
   with the full invariant suite intact. *)
let test_double_fail_repair_invariants () =
  let t, _, (e01, _, _, _) = ring ~capacity:1000 () in
  let id, _ = admit_ok t ~src:0 ~dst:1 ~qos:qos5 in
  let r1 = Drcomm.fail_edge t e01 in
  Alcotest.(check int) "first failure recovers" 1 (List.length r1.Drcomm.recoveries);
  let reserved_after_first = Drcomm.reserved_bandwidth t id in
  let again = Drcomm.fail_edge t e01 in
  Alcotest.(check int) "double fail: no recoveries" 0
    (List.length again.Drcomm.recoveries);
  Alcotest.(check int) "double fail: allocation untouched" reserved_after_first
    (Drcomm.reserved_bandwidth t id);
  Invariants.check_all ~deep:true t;
  Drcomm.repair_edge t e01;
  Invariants.check_all ~deep:true t;
  (* The repaired edge is routable again: a fresh connection takes the
     1-hop route. *)
  (match Drcomm.admit t ~src:0 ~dst:1 ~qos:qos5 with
  | Drcomm.Admitted (nid, _) ->
    Alcotest.(check int) "direct route back" 1
      (List.length (Drcomm.primary_links t nid))
  | Drcomm.Rejected _ -> Alcotest.fail "repaired ring should admit");
  Invariants.check_all ~deep:true t

(* Fuzzer bug: when a backup activated, the victim's *other* backups
   were re-registered without checking that they avoid the just-failed
   edge, leaving a phantom registration whose pool demand pinned real
   capacity and violated failed-edge unroutability.  Fixture: primary
   0-1-2 with a disjoint backup 0-3-5-2 and a best-effort second backup
   0-4-1-2 that crosses the primary's edge 1-2; failing 1-2 activates
   the first backup and must discard the second. *)
let test_stale_backup_discarded_on_activation () =
  let g = Graph.create 6 in
  ignore (Graph.add_edge g 0 1);
  let e12 = Graph.add_edge g 1 2 in
  ignore (Graph.add_edge g 0 3);
  ignore (Graph.add_edge g 3 5);
  ignore (Graph.add_edge g 5 2);
  ignore (Graph.add_edge g 0 4);
  ignore (Graph.add_edge g 4 1);
  let cfg = Drcomm.Config.make ~backups_per_connection:2 () in
  let t = Drcomm.create ~config:cfg (Net_state.create ~capacity:1000 g) in
  let id, _ = admit_ok t ~src:0 ~dst:2 ~qos:qos5 in
  (* Precondition: the second backup really does cross edge 1-2 (it is
     only best-effort disjoint) — otherwise this test checks nothing. *)
  (match Drcomm.all_backup_links t id with
  | [ _; b2 ] ->
    Alcotest.(check bool) "fixture: 2nd backup crosses e12" true
      (List.exists (fun dl -> Dirlink.edge dl = e12) b2)
  | _ -> Alcotest.fail "fixture: expected two backups");
  let r = Drcomm.fail_edge t e12 in
  (match r.Drcomm.recoveries with
  | [ { Drcomm.outcome = `Switched_to_backup false; _ } ] -> ()
  | _ -> Alcotest.fail "expected switch without replacement");
  (* The stale second backup must be gone, not silently re-registered
     over the failed edge. *)
  Alcotest.(check (list (list int))) "no backups survive" []
    (List.map (List.map Dirlink.edge) (Drcomm.all_backup_links t id));
  Alcotest.(check bool) "has_backup agrees" false (Drcomm.has_backup t id);
  Invariants.check_failed_edge_unroutability t;
  Invariants.check_all ~deep:true t

(* Fuzzer bug: [change_qos]'s all-or-nothing rollback re-admitted the
   channel's own floor through the regular admission test.  On a link
   whose guarantee was transiently broken by a forced backup activation
   (a multi-failure corner) that test rejects the restore, so the
   rollback raised and corrupted state.  Fixture: hub edge 0-1 carries
   channel A plus two force-activated backups (300/300 committed) while
   a third backup still registers pool demand — guarantee broken — then
   A renegotiates to a bigger floor and must be cleanly rejected. *)
let test_change_qos_rollback_under_broken_guarantee () =
  let g = Graph.create 8 in
  let e01 = Graph.add_edge g 0 1 in
  let e23 = Graph.add_edge g 2 3 in
  let e45 = Graph.add_edge g 4 5 in
  ignore (Graph.add_edge g 6 7);
  ignore (Graph.add_edge g 2 0);
  ignore (Graph.add_edge g 1 3);
  ignore (Graph.add_edge g 4 0);
  ignore (Graph.add_edge g 1 5);
  ignore (Graph.add_edge g 6 0);
  ignore (Graph.add_edge g 1 7);
  let cfg = Drcomm.Config.make ~require_backup:false () in
  let t = Drcomm.create ~config:cfg (Net_state.create ~capacity:300 g) in
  let q100 = Qos.single_value 100 in
  let a, _ = admit_ok t ~src:0 ~dst:1 ~qos:q100 in
  let _b, _ = admit_ok t ~src:2 ~dst:3 ~qos:q100 in
  let _c, _ = admit_ok t ~src:4 ~dst:5 ~qos:q100 in
  let _d, _ = admit_ok t ~src:6 ~dst:7 ~qos:q100 in
  (* Two failures force-activate B's and C's hub backups onto 0-1. *)
  ignore (Drcomm.fail_edge t e23);
  ignore (Drcomm.fail_edge t e45);
  let l01 = Net_state.link (Drcomm.net t) e01 in
  Alcotest.(check bool) "fixture: guarantee broken on the hub" false
    (Link_state.guarantee_holds l01);
  Alcotest.(check int) "fixture: hub floors saturated" 300
    (Link_state.primary_min_total l01);
  (* The renegotiation cannot fit; the rollback must restore A exactly
     (the old code raised Invalid_argument out of change_qos here). *)
  (match Drcomm.change_qos t a (Qos.single_value 150) with
  | `Rejected -> ()
  | `Changed -> Alcotest.fail "150 floor cannot fit on a saturated hub");
  Alcotest.(check bool) "A survives" true (Drcomm.mem t a);
  Alcotest.(check int) "A's contract intact" 100 (Drcomm.reserved_bandwidth t a);
  Invariants.check_all ~deep:true t

(* Fuzzer bug: [fail_edge] water-filled the victims' and activated
   links but not the full paths of bystanders that retreated during
   activation, leaving spare capacity unclaimed.  Fixture: failing d-b
   moves V onto a-d, a-b; Z (a-b-c) retreats for it, freeing room on
   b-c that W (b-c alone) must immediately claim. *)
let test_fail_edge_redistributes_bystander_paths () =
  let g = Graph.create 4 in
  (* 0 = a, 1 = b, 2 = c, 3 = d *)
  ignore (Graph.add_edge g 0 1);
  ignore (Graph.add_edge g 1 2);
  ignore (Graph.add_edge g 0 3);
  let db = Graph.add_edge g 3 1 in
  let cfg = Drcomm.Config.make ~require_backup:false () in
  let t = Drcomm.create ~config:cfg (Net_state.create ~capacity:600 g) in
  let z, _ =
    admit_ok t ~src:0 ~dst:2 ~qos:(Qos.make ~b_min:100 ~b_max:300 ~increment:100 ())
  in
  let w, _ = admit_ok t ~src:1 ~dst:2 ~qos:qos5 in
  let v, _ = admit_ok t ~src:3 ~dst:1 ~qos:(Qos.single_value 400) in
  Alcotest.(check int) "fixture: Z at 300" 300 (Drcomm.reserved_bandwidth t z);
  Alcotest.(check int) "fixture: W at 300" 300 (Drcomm.reserved_bandwidth t w);
  let r = Drcomm.fail_edge t db in
  (* Z's backup also crossed d-b, so the report holds two recoveries:
     V switches, Z merely loses its backup. *)
  Alcotest.(check bool) "V switched" true
    (List.exists
       (fun rc ->
         rc.Drcomm.victim = v
         && match rc.Drcomm.outcome with `Switched_to_backup _ -> true | _ -> false)
       r.Drcomm.recoveries);
  (* V's activation onto a-b squeezes Z down one level; the level Z
     frees on b-c belongs to W, which shares no link with V — only the
     bystander-path propagation reaches it. *)
  Alcotest.(check int) "Z retreated" 200 (Drcomm.reserved_bandwidth t z);
  Alcotest.(check int) "W claimed the freed level" 400 (Drcomm.reserved_bandwidth t w);
  Invariants.check_redistribution_complete t;
  Invariants.check_all ~deep:true t

(* --- incremental vs full recomputation (the dirty-link machinery) --- *)

(* After any interleaving of operations, the incremental water-filling
   must sit at the global fixed point: a full [redistribute_all] pass
   over the live state changes no reservation. *)
let test_incremental_matches_full_recompute () =
  let rng = Prng.create 17 in
  let g = Waxman.generate rng (Waxman.spec ~nodes:20 ~alpha:0.5 ~beta:0.3 ()) in
  let cfg = Drcomm.Config.make ~require_backup:false () in
  let t = Drcomm.create ~config:cfg (Net_state.create ~capacity:2000 g) in
  for _ = 1 to 200 do
    (match Prng.int rng 100 with
    | d when d < 45 ->
      let src, dst = Prng.sample_distinct_pair rng (Graph.node_count g) in
      ignore (Drcomm.admit t ~src ~dst ~qos:qos5)
    | d when d < 70 -> (
      match Drcomm.active_channels t with
      | [] -> ()
      | ids -> ignore (Drcomm.terminate t (Prng.pick_list rng ids)))
    | d when d < 85 ->
      ignore (Drcomm.fail_edge t (Prng.int rng (Graph.edge_count g)))
    | _ -> (
      match Net_state.failed_edges (Drcomm.net t) with
      | [] -> ()
      | es -> Drcomm.repair_edge t (Prng.pick_list rng es)));
    Invariants.check_incremental_equivalence t
  done;
  Invariants.check_all ~deep:true t

(* The PR 3 bug class, incremental edition: a failure's backup activation
   retreats a bystander, and the dirty set must cover the bystander's
   FULL path — W below shares no link with the victim, so only the
   path-wide dirtying reaches it.  A global pass afterwards must find
   nothing left to grant. *)
let test_dirty_set_covers_retreated_paths () =
  let g = Graph.create 4 in
  ignore (Graph.add_edge g 0 1);
  ignore (Graph.add_edge g 1 2);
  ignore (Graph.add_edge g 0 3);
  let db = Graph.add_edge g 3 1 in
  let cfg = Drcomm.Config.make ~require_backup:false () in
  let t = Drcomm.create ~config:cfg (Net_state.create ~capacity:600 g) in
  let _z, _ =
    admit_ok t ~src:0 ~dst:2 ~qos:(Qos.make ~b_min:100 ~b_max:300 ~increment:100 ())
  in
  let w, _ = admit_ok t ~src:1 ~dst:2 ~qos:qos5 in
  let _v, _ = admit_ok t ~src:3 ~dst:1 ~qos:(Qos.single_value 400) in
  ignore (Drcomm.fail_edge t db);
  Alcotest.(check int) "W refilled incrementally" 400 (Drcomm.reserved_bandwidth t w);
  Invariants.check_incremental_equivalence t;
  Invariants.check_all ~deep:true t

(* Batched arrivals: flushing the accumulated dirty set must produce
   exactly the allocation a global pass computes from the same loaded
   state — the candidate sets differ (dirty links vs all live), but the
   policy's sorted grant order makes the outcome identical. *)
let test_batched_flush_matches_global_pass () =
  let build () =
    let rng = Prng.create 29 in
    let g = Waxman.generate rng (Waxman.spec ~nodes:15 ~alpha:0.5 ~beta:0.3 ()) in
    let cfg = Drcomm.Config.make ~require_backup:false () in
    let t = Drcomm.create ~config:cfg (Net_state.create ~capacity:1500 g) in
    Drcomm.set_auto_redistribute t false;
    for _ = 1 to 60 do
      let src, dst = Prng.sample_distinct_pair rng (Graph.node_count g) in
      ignore (Drcomm.admit ~want_report:false t ~src ~dst ~qos:qos5)
    done;
    t
  in
  let a = build () in
  let b = build () in
  Drcomm.redistribute_all a;
  Drcomm.redistribute_pending b;
  Drcomm.set_auto_redistribute a true;
  Drcomm.set_auto_redistribute b true;
  let allocation t =
    List.map
      (fun id -> (Drcomm.Channel_id.to_int id, Drcomm.reserved_bandwidth t id))
      (List.sort Drcomm.Channel_id.compare (Drcomm.active_channels t))
  in
  Alcotest.(check (list (pair int int)))
    "dirty-set flush = global pass" (allocation a) (allocation b);
  Invariants.check_incremental_equivalence b;
  Drcomm.check_invariants a;
  Drcomm.check_invariants b

(* The report flags choose only whether the read-only census runs: twin
   services driven through one operation sequence — one with reports,
   one without — must hold identical allocations after every step. *)
let test_report_modes_reach_same_state () =
  let rng = Prng.create 37 in
  let g = Waxman.generate rng (Waxman.spec ~nodes:20 ~alpha:0.5 ~beta:0.3 ()) in
  let cfg = Drcomm.Config.make ~require_backup:false () in
  let make () = Drcomm.create ~config:cfg (Net_state.create ~capacity:2000 g) in
  let a = make () and b = make () in
  let allocation t =
    List.map
      (fun id -> (Drcomm.Channel_id.to_int id, Drcomm.reserved_bandwidth t id))
      (List.sort Drcomm.Channel_id.compare (Drcomm.active_channels t))
  in
  (* The same live connection in both twins: equal slot layouts. *)
  let pick () =
    let i = Prng.int rng (Drcomm.count a) in
    (Drcomm.nth_channel a i, Drcomm.nth_channel b i)
  in
  let qos_choices =
    [| qos5; Qos.make ~b_min:200 ~b_max:400 ~increment:100 (); Qos.single_value 300 |]
  in
  for step = 1 to 300 do
    (match Prng.int rng 100 with
    | d when d < 40 ->
      let src, dst = Prng.sample_distinct_pair rng (Graph.node_count g) in
      let admitted = function Drcomm.Admitted _ -> true | Drcomm.Rejected _ -> false in
      Alcotest.(check bool)
        (Printf.sprintf "step %d: same admission" step)
        (admitted (Drcomm.admit a ~src ~dst ~qos:qos5))
        (admitted (Drcomm.admit ~want_report:false b ~src ~dst ~qos:qos5))
    | d when d < 65 && Drcomm.count a > 0 ->
      let ca, cb = pick () in
      ignore (Drcomm.terminate a ca);
      ignore (Drcomm.terminate ~report:false b cb)
    | d when d < 75 && Drcomm.count a > 0 ->
      let ca, cb = pick () in
      let qos = qos_choices.(Prng.int rng (Array.length qos_choices)) in
      Alcotest.(check bool)
        (Printf.sprintf "step %d: same renegotiation" step)
        (Drcomm.change_qos a ca qos = `Changed)
        (Drcomm.change_qos b cb qos = `Changed)
    | d when d < 88 ->
      let e = Prng.int rng (Graph.edge_count g) in
      ignore (Drcomm.fail_edge a e);
      ignore (Drcomm.fail_edge b e)
    | _ -> (
      match Net_state.failed_edges (Drcomm.net a) with
      | [] -> ()
      | es ->
        let e = Prng.pick_list rng es in
        Drcomm.repair_edge a e;
        Drcomm.repair_edge b e));
    Alcotest.(check (list (pair int int)))
      (Printf.sprintf "step %d: same allocation" step)
      (allocation a) (allocation b);
    Invariants.check_incremental_equivalence a;
    Invariants.check_incremental_equivalence b
  done;
  Drcomm.check_invariants a;
  Drcomm.check_invariants b

(* Why the census cannot come from the extras index: a sharer sitting at
   its floor holds no extras, yet it is directly chained to the arrival
   and the report must count it. *)
let test_census_counts_floor_sharers () =
  let g = Graph.create 3 in
  ignore (Graph.add_edge g 0 1);
  ignore (Graph.add_edge g 1 2);
  let t = Drcomm.create ~config:no_backups (Net_state.create ~capacity:300 g) in
  let x, _ = admit_ok t ~src:0 ~dst:2 ~qos:qos5 in
  let y, _ = admit_ok t ~src:1 ~dst:2 ~qos:qos5 in
  (* Link 1->2 holds floors 100 + 100; equal share hands the one spare
     increment to the lower id, leaving Y elastic but at its floor. *)
  Alcotest.(check int) "fixture: X one level up" 1 (Drcomm.level t x);
  Alcotest.(check int) "fixture: Y at its floor" 0 (Drcomm.level t y);
  let _, report = admit_ok t ~src:1 ~dst:2 ~qos:qos5 in
  Alcotest.(check int) "both sharers counted" 2 report.Drcomm.direct_count;
  let before ch =
    match List.find_opt (fun tr -> tr.Drcomm.channel = ch) report.Drcomm.transitions with
    | Some tr -> tr.Drcomm.before
    | None -> Alcotest.fail "sharer missing from the transitions"
  in
  Alcotest.(check int) "X retreated from level 1" 1 (before x);
  Alcotest.(check int) "Y counted from its floor" 0 (before y);
  Drcomm.check_invariants t

let test_soak_short () = soak 11 150
let test_soak_other_seed () = soak 23 150
let test_soak_two_backups () = soak ~backups:2 31 150

let qcheck_soak =
  QCheck.Test.make ~name:"random operations keep invariants" ~count:15
    QCheck.(small_int)
    (fun seed ->
      soak seed 60;
      true)

(* --- Allocation --- *)

(* The scale bench's transit-stub (bench/scale.ml: 1056 nodes, 400 Mbps
   links, stub-local 10 Kbps flows, hop bound 6) under bulk admission.
   At this size any node-sized array is allocated straight on the major
   heap, so a route search that allocated its own arrays cost about 6.9k
   major words per admit.  Searches run on the network's scratch; what
   is left is the admitted channel's own state being promoted (87 words
   measured).  The bound is a count, not a timing. *)
let test_admit_major_words () =
  let rng = Prng.create 7 in
  let info =
    Transit_stub.generate rng
      (Transit_stub.spec ~transit_domains:4 ~transit_size:8 ~stubs_per_transit_node:4
         ~stub_size:8 ())
  in
  let g = info.Transit_stub.graph in
  let stubs = Array.make (Graph.node_count g) [] in
  Array.iteri
    (fun v s -> if s >= 0 then stubs.(s) <- v :: stubs.(s))
    info.Transit_stub.stub_of_node;
  let stubs = Array.of_list (List.filter (( <> ) []) (Array.to_list stubs)) in
  let stubs = Array.map Array.of_list stubs in
  let net = Net_state.create ~capacity:(Bandwidth.mbps 400) g in
  let config = Drcomm.Config.make ~hop_bound:6 ~require_backup:false () in
  let t = Drcomm.create ~config net in
  Drcomm.set_auto_redistribute t false;
  let qos = Qos.single_value 10 in
  let admit_n n =
    for _ = 1 to n do
      let stub = stubs.(Prng.int rng (Array.length stubs)) in
      let i, j = Prng.sample_distinct_pair rng (Array.length stub) in
      ignore
        (Drcomm.admit ~want_indirect:false ~want_report:false t ~src:stub.(i)
           ~dst:stub.(j) ~qos)
    done
  in
  (* Warm up: the per-link tables grow to their working size. *)
  admit_n 2000;
  let admits = 4000 in
  let before = (Gc.quick_stat ()).Gc.major_words in
  admit_n admits;
  let per_admit = ((Gc.quick_stat ()).Gc.major_words -. before) /. float_of_int admits in
  Alcotest.(check int) "every admit carried" (2000 + admits) (Drcomm.count t);
  if per_admit > 400. then
    Alcotest.failf "%.0f major words per admit (bound 400)" per_admit

(* --- Link churn --- *)

(* [hot_links] is an exact count that is always on.  The service under
   test runs on the default (null) context; a traced twin replays the
   same operations, and its trace gives the expected counts without
   Drcomm's own counter: on each primary link of the channel it names,
   one unit per Admit, Retreat and Terminate event, and one per granted
   increment ([to_level - from_level]) of an Upgrade. *)
let test_hot_links_exact () =
  let ops t =
    let primaries = Hashtbl.create 8 in
    let admit ~src ~dst =
      let id, _ = admit_ok t ~src ~dst ~qos:qos5 in
      Hashtbl.replace primaries (Drcomm.Channel_id.to_int id)
        (Drcomm.primary_links t id);
      id
    in
    let a = admit ~src:0 ~dst:1 in
    let b = admit ~src:0 ~dst:2 in
    let c = admit ~src:1 ~dst:3 in
    ignore
      (Drcomm.change_qos t b (Qos.make ~b_min:200 ~b_max:600 ~increment:100 ()));
    ignore (Drcomm.terminate t a);
    ignore (admit ~src:2 ~dst:0);
    ignore (Drcomm.terminate t c);
    primaries
  in
  let graph () =
    let g = Graph.create 4 in
    List.iter
      (fun (u, v) -> ignore (Graph.add_edge g u v))
      [ (0, 1); (1, 2); (2, 3); (3, 0) ];
    Net_state.create ~capacity:600 g
  in
  let service = Drcomm.create (graph ()) in
  ignore (ops service);
  let events = ref [] in
  let sink =
    { Trace.emit = (fun _ ev -> events := ev :: !events); close = ignore }
  in
  let twin =
    Drcomm.create ~obs:(Obs.create ~trace:(Trace.create sink) ()) (graph ())
  in
  let primaries = ops twin in
  let counts = Hashtbl.create 8 in
  let churn channel units =
    List.iter
      (fun dl ->
        Hashtbl.replace counts dl
          (units + Option.value ~default:0 (Hashtbl.find_opt counts dl)))
      (Hashtbl.find primaries channel)
  in
  List.iter
    (function
      | Trace.Admit { channel; _ } | Trace.Retreat { channel; _ } | Trace.Terminate { channel }
        ->
        churn channel 1
      | Trace.Upgrade { channel; from_level; to_level } -> churn channel (to_level - from_level)
      | _ -> ())
    !events;
  let expected =
    List.sort
      (fun (a, na) (b, nb) -> if na <> nb then compare nb na else compare a b)
      (Hashtbl.fold (fun dl n acc -> (dl, n) :: acc) counts [])
  in
  let pairs = Alcotest.(list (pair int int)) in
  Alcotest.(check bool) "some links churned" true (List.length expected >= 3);
  List.iter
    (fun k ->
      Alcotest.check pairs
        (Printf.sprintf "hot_links ~k:%d" k)
        (List.filteri (fun i _ -> i < k) expected)
        (Drcomm.hot_links service ~k))
    [ 1; 2; 3; 4; List.length expected; 100 ]

(* --- Trace contract --- *)

(* The trace records each level move once.  Without restoration every
   operation flushes water-filling once, so an operation traces at most
   one Upgrade per channel, rising; the moves' increments sum to the
   [drcomm.elastic_upgrades] counter; and replaying them from each
   event's [from_level] reproduces every live channel's level.  A backup
   activation restarts its channel at the floor. *)
let test_trace_one_move_per_channel () =
  let rng = Prng.create 11 in
  let g = Torus.generate ~rows:4 ~cols:4 in
  let metrics = Metrics.create () in
  let events = ref [] in
  let sink = { Trace.emit = (fun _ ev -> events := ev :: !events); close = ignore } in
  let obs = Obs.create ~metrics ~trace:(Trace.create sink) () in
  let t = Drcomm.create ~obs (Net_state.create ~capacity:1000 g) in
  let levels = Hashtbl.create 64 in
  let level ch = Option.value ~default:0 (Hashtbl.find_opt levels ch) in
  let move op ch ~from_level ~to_level =
    if from_level <> level ch then
      Alcotest.failf "%s: channel %d moves from %d, the replay has it at %d" op ch
        from_level (level ch);
    Hashtbl.replace levels ch to_level
  in
  let granted = ref 0 and multi = ref 0 and activations = ref 0 in
  let check op =
    let raised = Hashtbl.create 8 in
    List.iter
      (function
        | Trace.Upgrade { channel; from_level; to_level } ->
          if Hashtbl.mem raised channel then
            Alcotest.failf "%s: channel %d upgraded twice in one flush" op channel;
          Hashtbl.replace raised channel ();
          if from_level >= to_level then
            Alcotest.failf "%s: upgrade %d -> %d does not rise" op from_level to_level;
          if to_level - from_level > 1 then incr multi;
          granted := !granted + to_level - from_level;
          move op channel ~from_level ~to_level
        | Trace.Retreat { channel; from_level; to_level } ->
          move op channel ~from_level ~to_level
        | Trace.Backup_activate { channel; _ } ->
          incr activations;
          Hashtbl.replace levels channel 0
        | _ -> ())
      (List.rev !events);
    events := []
  in
  let random_qos () =
    let b_min = 100 * (1 + Prng.int rng 3) in
    Qos.make ~b_min ~b_max:(b_min + (100 * Prng.int rng 4)) ~increment:100
      ~utility:(0.5 +. Prng.float rng 4.) ()
  in
  let live () = Drcomm.active_channels t in
  for _ = 1 to 400 do
    let dice = Prng.int rng 100 in
    if dice < 45 then begin
      let src, dst = Prng.sample_distinct_pair rng (Graph.node_count g) in
      ignore (Drcomm.admit t ~src ~dst ~qos:(random_qos ()));
      check "admit"
    end
    else if dice < 70 && live () <> [] then begin
      ignore (Drcomm.terminate t (Prng.pick_list rng (live ())));
      check "terminate"
    end
    else if dice < 85 && live () <> [] then begin
      ignore (Drcomm.change_qos t (Prng.pick_list rng (live ())) (random_qos ()));
      check "change_qos"
    end
    else if dice < 93 then begin
      ignore (Drcomm.fail_edge t (Prng.int rng (Graph.edge_count g)));
      check "fail_edge"
    end
    else
      match Net_state.failed_edges (Drcomm.net t) with
      | [] -> ()
      | es -> Drcomm.repair_edge t (Prng.pick_list rng es)
  done;
  Alcotest.(check bool) "some flush raised a channel by several increments" true
    (!multi > 0);
  Alcotest.(check bool) "some failure activated a backup" true (!activations > 0);
  Alcotest.(check int) "the moves sum to drcomm.elastic_upgrades"
    (Metrics.count (Metrics.counter metrics "drcomm.elastic_upgrades"))
    !granted;
  List.iter
    (fun ch ->
      Alcotest.(check int) "replayed level" (Drcomm.level t ch)
        (level (Drcomm.Channel_id.to_int ch)))
    (live ())

let () =
  Alcotest.run "drcomm"
    [
      ( "admission",
        [
          Alcotest.test_case "single connection maxes out" `Quick
            test_single_connection_maxes_out;
          Alcotest.test_case "tree rejects (no backup)" `Quick test_no_backup_in_tree_rejected;
          Alcotest.test_case "backup optional" `Quick test_no_backup_accepted_when_optional;
          Alcotest.test_case "floor exhaustion" `Quick test_floor_exhaustion_rejects;
          Alcotest.test_case "validation" `Quick test_admit_validation;
        ] );
      ( "elasticity",
        [
          Alcotest.test_case "arrival retreats sharing" `Quick
            test_arrival_retreats_sharing_channel;
          Alcotest.test_case "termination upgrades" `Quick
            test_termination_releases_and_upgrades;
          Alcotest.test_case "terminate dead handle" `Quick
            test_terminate_dead_handle_raises;
          Alcotest.test_case "indirect classified" `Quick test_indirect_chaining_classified;
          Alcotest.test_case "indirect gains" `Quick test_indirect_channel_gains;
          Alcotest.test_case "equal share fair" `Quick test_equal_share_fairness;
          Alcotest.test_case "max utility monopolises" `Quick test_max_utility_monopolises;
          Alcotest.test_case "proportional split" `Quick test_proportional_split;
          Alcotest.test_case "single-value never upgrades" `Quick
            test_single_value_qos_never_upgrades;
          Alcotest.test_case "elastic beats single-value" `Quick
            test_elastic_beats_single_value_admission;
          Alcotest.test_case "bulk redistribution" `Quick test_bulk_redistribution_equivalent;
        ] );
      ( "dependability",
        [
          Alcotest.test_case "multiplexing saves capacity" `Quick
            test_backup_multiplexing_saves_capacity;
          Alcotest.test_case "failure activates backup" `Quick test_failure_activates_backup;
          Alcotest.test_case "drop when backup hit" `Quick
            test_failure_drops_when_backup_also_hit;
          Alcotest.test_case "bystanders retreat on activation" `Quick
            test_failure_retreats_channels_on_backup_links;
          Alcotest.test_case "restoration baseline" `Quick test_restoration_baseline;
          Alcotest.test_case "restoration under partition" `Quick
            test_restoration_fails_under_partition;
          Alcotest.test_case "fail idempotent" `Quick test_fail_edge_idempotent;
          Alcotest.test_case "repair restores routes" `Quick test_repair_restores_routability;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "level histogram" `Quick test_level_histogram;
          Alcotest.test_case "average bandwidth" `Quick test_average_bandwidth;
        ] );
      ( "renegotiation",
        [
          Alcotest.test_case "upgrade range" `Quick test_change_qos_upgrade_range;
          Alcotest.test_case "floor increase checked" `Quick
            test_change_qos_floor_increase_checked;
          Alcotest.test_case "retreats neighbours" `Quick test_change_qos_retreats_neighbours;
          Alcotest.test_case "dead handle" `Quick test_change_qos_dead_handle;
        ] );
      ( "multi-backup",
        [
          Alcotest.test_case "two backups established" `Quick test_two_backups_established;
          Alcotest.test_case "two backups, two failures" `Quick
            test_two_backups_survive_two_failures;
          Alcotest.test_case "k=1 vs k=2 under storm" `Quick
            test_single_backup_drops_on_second_failure;
          Alcotest.test_case "validation" `Quick test_backups_validation;
        ] );
      ( "fuzzer-regressions",
        [
          Alcotest.test_case "repair idempotent in metrics" `Quick
            test_repair_idempotent_metrics;
          Alcotest.test_case "double fail then repair" `Quick
            test_double_fail_repair_invariants;
          Alcotest.test_case "stale backup discarded" `Quick
            test_stale_backup_discarded_on_activation;
          Alcotest.test_case "chqos rollback, broken guarantee" `Quick
            test_change_qos_rollback_under_broken_guarantee;
          Alcotest.test_case "bystander paths refilled" `Quick
            test_fail_edge_redistributes_bystander_paths;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "matches full recompute" `Quick
            test_incremental_matches_full_recompute;
          Alcotest.test_case "dirty set covers retreated paths" `Quick
            test_dirty_set_covers_retreated_paths;
          Alcotest.test_case "batched flush = global pass" `Quick
            test_batched_flush_matches_global_pass;
          Alcotest.test_case "report modes reach the same state" `Quick
            test_report_modes_reach_same_state;
          Alcotest.test_case "census counts floor-level sharers" `Quick
            test_census_counts_floor_sharers;
        ] );
      ( "soak",
        [
          Alcotest.test_case "soak seed 11" `Quick test_soak_short;
          Alcotest.test_case "soak seed 23" `Quick test_soak_other_seed;
          Alcotest.test_case "soak with two backups" `Quick test_soak_two_backups;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest qcheck_soak ]);
      ( "churn",
        [
          Alcotest.test_case "hot links are exact counts" `Quick
            test_hot_links_exact;
        ] );
      ( "trace",
        [
          Alcotest.test_case "one move per channel per flush" `Quick
            test_trace_one_move_per_channel;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "admit major words on the scale transit-stub" `Quick
            test_admit_major_words;
        ] );
    ]
