(* Tests for bounded flooding, disjoint path sets and Yen's algorithm. *)

(* Diamond with a long detour:
     0 - 1 - 3        (short: 2 hops)
     0 - 2 - 3        (short: 2 hops)
     0 - 4 - 5 - 3    (long: 3 hops)                                    *)
let diamond () =
  let g = Graph.create 6 in
  let e01 = Graph.add_edge g 0 1 in
  let e13 = Graph.add_edge g 1 3 in
  let e02 = Graph.add_edge g 0 2 in
  let e23 = Graph.add_edge g 2 3 in
  let e04 = Graph.add_edge g 0 4 in
  let e45 = Graph.add_edge g 4 5 in
  let e53 = Graph.add_edge g 5 3 in
  (g, (e01, e13, e02, e23, e04, e45, e53))

let edges_of p = p.Paths.edges

let test_primary_route_min_hop () =
  let g, _ = diamond () in
  let net = Net_state.create ~capacity:1000 g in
  let req = Flooding.request ~src:0 ~dst:3 ~floor:100 () in
  match Flooding.primary_route net req with
  | None -> Alcotest.fail "expected route"
  | Some p -> Alcotest.(check int) "two hops" 2 (Paths.hop_count p)

let test_primary_route_respects_capacity () =
  let g, (e01, e13, _, _, _, _, _) = diamond () in
  let net = Net_state.create ~capacity:1000 g in
  (* Fill the 0-1-3 route's floor space completely. *)
  List.iter
    (fun e ->
      let dl = Dirlink.of_edge g ~edge:e ~src:(fst (Graph.endpoints g e)) in
      Link_state.reserve_primary (Net_state.link net dl) ~channel:99 ~b_min:950)
    [ e01; e13 ];
  let req = Flooding.request ~src:0 ~dst:3 ~floor:100 () in
  match Flooding.primary_route net req with
  | None -> Alcotest.fail "expected route"
  | Some p ->
    Alcotest.(check bool) "avoids full links" true
      (not (List.mem e01 (edges_of p)) && not (List.mem e13 (edges_of p)))

let test_primary_route_allowance_tiebreak () =
  let g, (e01, e13, _, _, _, _, _) = diamond () in
  let net = Net_state.create ~capacity:1000 g in
  (* Both 2-hop routes admissible; load one partially so the other has the
     better allowance. *)
  let dl = Dirlink.of_edge g ~edge:e01 ~src:0 in
  Link_state.reserve_primary (Net_state.link net dl) ~channel:99 ~b_min:500;
  let req = Flooding.request ~src:0 ~dst:3 ~floor:100 () in
  match Flooding.primary_route net req with
  | None -> Alcotest.fail "expected route"
  | Some p ->
    Alcotest.(check bool) "prefers lighter route" true
      (not (List.mem e01 (edges_of p)) && not (List.mem e13 (edges_of p)))

(* The level that reaches the destination has several parents whose
   links into it give the same allowance, so the walk order alone picks
   the route: last discovered to first, as test/route_ref.ml walks its
   prepend-built frontier.  A fan (0 to 1, 2, 3, each to 4) ties three
   parents on an idle network; a layered graph (0 | 1 2 3 | 4 5 6 | 7,
   consecutive layers fully joined) ties them one level deeper, idle
   and with one of the three links into 7 loaded so two still tie.
   Primary and backup searches must return the reference's paths. *)
let test_destination_level_ties () =
  let fan = Graph.create 5 in
  List.iter (fun (u, v) -> ignore (Graph.add_edge fan u v))
    [ (0, 1); (0, 2); (0, 3); (1, 4); (2, 4); (3, 4) ];
  let layered = Graph.create 8 in
  let join us vs =
    List.iter (fun u -> List.iter (fun v -> ignore (Graph.add_edge layered u v)) vs) us
  in
  join [ 0 ] [ 1; 2; 3 ];
  join [ 1; 2; 3 ] [ 4; 5; 6 ];
  join [ 4; 5; 6 ] [ 7 ];
  let agrees g ~dst ~load =
    let net = Net_state.create ~capacity:1000 g in
    Option.iter
      (fun (u, v) ->
        let e = Option.get (Graph.find_edge g u v) in
        Link_state.reserve_primary
          (Net_state.link net (Dirlink.of_edge g ~edge:e ~src:u))
          ~channel:99 ~b_min:300)
      load;
    let req = Flooding.request ~src:0 ~dst ~floor:100 () in
    let primary = Flooding.primary_route net req in
    Alcotest.(check bool) "primary as the reference" true
      (primary = Route_ref.primary_route net req && primary <> None);
    (* The backup avoids the primary's first edge and ties again. *)
    let primary_edges = [ List.hd (Option.get primary).Paths.edges ] in
    let backup = Flooding.backup_route net req ~primary_edges in
    Alcotest.(check bool) "backup as the reference" true
      (backup = Route_ref.backup_route net req ~primary_edges && backup <> None)
  in
  agrees fan ~dst:4 ~load:None;
  agrees layered ~dst:7 ~load:None;
  agrees layered ~dst:7 ~load:(Some (4, 7));
  agrees layered ~dst:7 ~load:(Some (6, 7))

let test_primary_route_hop_bound () =
  let g, (e01, e13, e02, e23, _, _, _) = diamond () in
  let net = Net_state.create ~capacity:1000 g in
  (* Saturate both 2-hop routes: only the 3-hop detour remains. *)
  List.iter
    (fun e ->
      List.iter
        (fun dl -> Link_state.reserve_primary (Net_state.link net dl) ~channel:99 ~b_min:950)
        [ 2 * e; (2 * e) + 1 ])
    [ e01; e13; e02; e23 ];
  let bounded = Flooding.request ~hop_bound:2 ~src:0 ~dst:3 ~floor:100 () in
  Alcotest.(check bool) "bounded fails" true (Flooding.primary_route net bounded = None);
  let unbounded = Flooding.request ~hop_bound:5 ~src:0 ~dst:3 ~floor:100 () in
  match Flooding.primary_route net unbounded with
  | Some p -> Alcotest.(check int) "detour" 3 (Paths.hop_count p)
  | None -> Alcotest.fail "detour expected"

let test_primary_route_avoids_failures () =
  let g, (e01, _, e02, _, _, _, _) = diamond () in
  let net = Net_state.create ~capacity:1000 g in
  Net_state.fail_edge net e01;
  Net_state.fail_edge net e02;
  let req = Flooding.request ~src:0 ~dst:3 ~floor:100 () in
  match Flooding.primary_route net req with
  | None -> Alcotest.fail "expected detour"
  | Some p -> Alcotest.(check int) "detour hops" 3 (Paths.hop_count p)

let test_primary_route_directional_capacity () =
  (* Fill only the 0->1 direction; the 1->0 direction must still admit. *)
  let g, (e01, _, _, _, _, _, _) = diamond () in
  let net = Net_state.create ~capacity:1000 g in
  let fwd = Dirlink.of_edge g ~edge:e01 ~src:0 in
  Link_state.reserve_primary (Net_state.link net fwd) ~channel:99 ~b_min:950;
  let req_fwd = Flooding.request ~hop_bound:1 ~src:0 ~dst:1 ~floor:100 () in
  let req_bwd = Flooding.request ~hop_bound:1 ~src:1 ~dst:0 ~floor:100 () in
  Alcotest.(check bool) "forward full" true (Flooding.primary_route net req_fwd = None);
  Alcotest.(check bool) "reverse open" true (Flooding.primary_route net req_bwd <> None)

let test_backup_route_disjoint () =
  let g, _ = diamond () in
  let net = Net_state.create ~capacity:1000 g in
  let req = Flooding.request ~src:0 ~dst:3 ~floor:100 () in
  let primary = Option.get (Flooding.primary_route net req) in
  match Flooding.backup_route net req ~primary_edges:(edges_of primary) with
  | None -> Alcotest.fail "expected backup"
  | Some b ->
    List.iter
      (fun e ->
        Alcotest.(check bool) "disjoint" true (not (List.mem e (edges_of primary))))
      (edges_of b)

let test_backup_route_maximally_disjoint_fallback () =
  (* A bridge graph: 0-1, 1-2 with an alternative 0-3-1 for the first
     half only; every 0->2 route must cross 1-2, so the backup shares
     exactly that bridge. *)
  let g = Graph.create 4 in
  let e01 = Graph.add_edge g 0 1 in
  let e12 = Graph.add_edge g 1 2 in
  let e03 = Graph.add_edge g 0 3 in
  let e31 = Graph.add_edge g 3 1 in
  let net = Net_state.create ~capacity:1000 g in
  let req = Flooding.request ~src:0 ~dst:2 ~floor:100 () in
  let primary = Option.get (Flooding.primary_route net req) in
  Alcotest.(check (list int)) "primary direct" [ e01; e12 ] (edges_of primary);
  let check_backup () =
    match Flooding.backup_route net req ~primary_edges:(edges_of primary) with
    | None -> Alcotest.fail "expected maximally disjoint backup"
    | Some b ->
      let shared = List.filter (fun e -> List.mem e (edges_of primary)) (edges_of b) in
      Alcotest.(check (list int)) "shares only the bridge" [ e12 ] shared
  in
  check_backup ();
  (* Both directions of the detour now multiplex a 950 pool keyed to a
     phantom edge: pool + floor no longer fits, but this primary's edges
     carry no demand there, so the exact test still admits the detour. *)
  List.iter
    (fun dl ->
      let l = Net_state.link net dl in
      Link_state.register_backup l ~channel:50 ~b_min:950 ~primary_edges:[| 100 |];
      Alcotest.(check bool) "pool + floor exceeds the room" true
        (Link_state.reclaimable_headroom l < req.Flooding.floor))
    [ 2 * e03; (2 * e03) + 1; 2 * e31; (2 * e31) + 1 ];
  check_backup ()

let test_backup_route_multiplexing_aware () =
  (* With multiplexing, a second backup over the same link is free when
     the primaries are disjoint — the backup route search must see that. *)
  let g, (_, _, e02, e23, _, _, _) = diamond () in
  let net = Net_state.create ~capacity:1000 g in
  (* Saturate backup-capacity on the 0-2-3 route down to 100 headroom. *)
  List.iter
    (fun e ->
      List.iter
        (fun dl ->
          Link_state.reserve_primary (Net_state.link net dl) ~channel:99 ~b_min:900)
        [ 2 * e; (2 * e) + 1 ])
    [ e02; e23 ];
  (* Existing backup on 0-2-3 whose primary uses edges [100] (phantom ids
     are fine for the pool arithmetic). *)
  List.iter
    (fun e ->
      Link_state.register_backup
        (Net_state.link net (2 * e))
        ~channel:50 ~b_min:100 ~primary_edges:[| 100 |])
    [ e02; e23 ];
  let req = Flooding.request ~src:0 ~dst:3 ~floor:100 () in
  (* New primary on 0-1-3 (disjoint from the phantom), so its backup can
     multiplex with channel 50's pool on 0-2-3. *)
  let primary = Option.get (Flooding.primary_route net req) in
  match Flooding.backup_route net req ~primary_edges:(edges_of primary) with
  | None -> Alcotest.fail "multiplexing should admit the backup"
  | Some b ->
    Alcotest.(check (list int)) "rides the pooled route" [ e02; e23 ] (edges_of b)

let test_message_count () =
  let g, _ = diamond () in
  let req = Flooding.request ~hop_bound:1 ~src:0 ~dst:3 ~floor:100 () in
  (* Only node 0 is strictly inside the 1-hop region: it forwards over its
     3 links. *)
  Alcotest.(check int) "one-hop flood" 3 (Flooding.message_count g req);
  let req2 = Flooding.request ~hop_bound:16 ~src:0 ~dst:3 ~floor:100 () in
  (* Every node forwards over degree (src) or degree-1 (others):
     degrees: 0:3, 1:2, 2:2, 3:3, 4:2, 5:2 -> 3 + 1+1+2+1+1 = 9. *)
  Alcotest.(check int) "full flood" 9 (Flooding.message_count g req2)

let test_request_validation () =
  Alcotest.check_raises "src = dst" (Invalid_argument "Flooding.request: src = dst")
    (fun () -> ignore (Flooding.request ~src:1 ~dst:1 ~floor:10 ()))

(* --- Disjoint --- *)

let test_disjoint_paths () =
  let g, _ = diamond () in
  let paths = Disjoint.paths g ~src:0 ~dst:3 ~k:3 in
  Alcotest.(check int) "three disjoint" 3 (List.length paths);
  (* Pairwise edge-disjoint. *)
  let all_edges = List.concat_map edges_of paths in
  Alcotest.(check int) "no edge reused" (List.length all_edges)
    (List.length (List.sort_uniq compare all_edges));
  (* Sorted by hops. *)
  let hops = List.map Paths.hop_count paths in
  Alcotest.(check (list int)) "shortest first" [ 2; 2; 3 ] hops

let test_disjoint_exhaustion () =
  let g, _ = diamond () in
  let paths = Disjoint.paths g ~src:0 ~dst:3 ~k:10 in
  Alcotest.(check int) "only three exist" 3 (List.length paths);
  Alcotest.(check int) "estimate" 3 (Disjoint.max_disjoint_estimate g ~src:0 ~dst:3)

let test_disjoint_respects_filter () =
  let g, (e01, _, _, _, _, _, _) = diamond () in
  let paths = Disjoint.paths ~usable:(fun e -> e <> e01) g ~src:0 ~dst:3 ~k:10 in
  Alcotest.(check int) "two left" 2 (List.length paths)

(* --- Yen --- *)

let test_yen_ordering_and_distinctness () =
  let g, _ = diamond () in
  let paths = Yen.k_shortest g ~src:0 ~dst:3 ~k:10 in
  (* Simple paths from 0 to 3: two 2-hop, one 3-hop, plus longer combined
     ones through 4-5 after deviating — all must be distinct and sorted. *)
  Alcotest.(check bool) "at least 3" true (List.length paths >= 3);
  let hops = List.map Paths.hop_count paths in
  Alcotest.(check (list int)) "sorted" (List.sort compare hops) hops;
  let keys = List.map (fun p -> p.Paths.nodes) paths in
  Alcotest.(check int) "distinct" (List.length keys)
    (List.length (List.sort_uniq compare keys));
  List.iter
    (fun p -> Alcotest.(check bool) "valid" true (Paths.is_valid g p))
    paths

let test_yen_k1_is_bfs () =
  let g, _ = diamond () in
  match (Yen.k_shortest g ~src:0 ~dst:3 ~k:1, Paths.shortest_path g 0 3) with
  | [ a ], Some b -> Alcotest.(check int) "same hops" (Paths.hop_count b) (Paths.hop_count a)
  | _ -> Alcotest.fail "expected single path"

let test_yen_disconnected () =
  let g = Graph.create 4 in
  ignore (Graph.add_edge g 0 1);
  ignore (Graph.add_edge g 2 3);
  Alcotest.(check int) "none" 0 (List.length (Yen.k_shortest g ~src:0 ~dst:3 ~k:5))

let test_first_admissible () =
  let g, _ = diamond () in
  let candidates = Yen.k_shortest g ~src:0 ~dst:3 ~k:10 in
  let found =
    Yen.first_admissible ~candidates ~admissible:(fun p -> Paths.hop_count p >= 3)
  in
  match found with
  | Some p -> Alcotest.(check int) "first long one" 3 (Paths.hop_count p)
  | None -> Alcotest.fail "expected a candidate"

(* --- Sequential search --- *)

let test_sequential_matches_flooding_hops () =
  let g, _ = diamond () in
  let net = Net_state.create ~capacity:1000 g in
  let req = Flooding.request ~src:0 ~dst:3 ~floor:100 () in
  let f = Option.get (Flooding.primary_route net req) in
  let s = Option.get (Sequential.primary_route net req ~candidates:8) in
  Alcotest.(check int) "same hop count" (Paths.hop_count f) (Paths.hop_count s)

let test_sequential_skips_inadmissible () =
  let g, (e01, e13, _, _, _, _, _) = diamond () in
  let net = Net_state.create ~capacity:1000 g in
  List.iter
    (fun e ->
      List.iter
        (fun dl -> Link_state.reserve_primary (Net_state.link net dl) ~channel:99 ~b_min:950)
        [ 2 * e; (2 * e) + 1 ])
    [ e01; e13 ];
  let req = Flooding.request ~src:0 ~dst:3 ~floor:100 () in
  match Sequential.primary_route net req ~candidates:8 with
  | None -> Alcotest.fail "expected another candidate"
  | Some p ->
    Alcotest.(check bool) "avoids the full route" true
      (not (List.mem e01 (edges_of p)))

let test_sequential_exhausts_candidates () =
  let g, _ = diamond () in
  let net = Net_state.create ~capacity:150 g in
  (* Floor 200 exceeds every link's capacity: no candidate admits. *)
  let req = Flooding.request ~src:0 ~dst:3 ~floor:200 () in
  Alcotest.(check bool) "none" true (Sequential.primary_route net req ~candidates:8 = None)

let test_sequential_backup_disjoint () =
  let g, _ = diamond () in
  let net = Net_state.create ~capacity:1000 g in
  let req = Flooding.request ~src:0 ~dst:3 ~floor:100 () in
  let primary = Option.get (Sequential.primary_route net req ~candidates:8) in
  match Sequential.backup_route net req ~candidates:8 ~primary_edges:(edges_of primary) with
  | None -> Alcotest.fail "expected backup"
  | Some b ->
    List.iter
      (fun e -> Alcotest.(check bool) "disjoint" true (not (List.mem e (edges_of primary))))
      (edges_of b)

let test_sequential_backup_rejects_useless () =
  (* On a line there is only one route: a "backup" identical to the
     primary must be refused. *)
  let g = Graph.create 3 in
  ignore (Graph.add_edge g 0 1);
  ignore (Graph.add_edge g 1 2);
  let net = Net_state.create ~capacity:1000 g in
  let req = Flooding.request ~src:0 ~dst:2 ~floor:100 () in
  let primary = Option.get (Sequential.primary_route net req ~candidates:8) in
  Alcotest.(check bool) "no useless backup" true
    (Sequential.backup_route net req ~candidates:8 ~primary_edges:(edges_of primary)
    = None)

let test_sequential_probe_count () =
  let g, _ = diamond () in
  let net = Net_state.create ~capacity:1000 g in
  let req = Flooding.request ~src:0 ~dst:3 ~floor:100 () in
  (* First candidate (2 hops) admits immediately: 2 probes. *)
  Alcotest.(check int) "2 probes" 2 (Sequential.probe_count net req ~candidates:8);
  (* Sequential probing costs far less than flooding on this graph. *)
  Alcotest.(check bool) "cheaper than flooding" true
    (Sequential.probe_count net req ~candidates:8 < Flooding.message_count g req)

(* Properties on random graphs. *)

let random_graph seed n = Waxman.generate (Prng.create seed) (Waxman.spec ~nodes:n ~alpha:0.5 ~beta:0.3 ())

let qcheck_disjoint_really_disjoint =
  QCheck.Test.make ~name:"disjoint paths share no edge" ~count:100
    QCheck.(triple small_int (int_range 6 30) (pair small_int small_int))
    (fun (seed, n, (a, b)) ->
      let g = random_graph seed n in
      let src = a mod n and dst = b mod n in
      if src = dst then true
      else begin
        let paths = Disjoint.paths g ~src ~dst ~k:4 in
        let edges = List.concat_map edges_of paths in
        List.length edges = List.length (List.sort_uniq compare edges)
        && List.for_all (Paths.is_valid g) paths
      end)

let qcheck_yen_sorted_distinct =
  QCheck.Test.make ~name:"yen paths sorted, distinct, valid" ~count:60
    QCheck.(triple small_int (int_range 6 20) (pair small_int small_int))
    (fun (seed, n, (a, b)) ->
      let g = random_graph seed n in
      let src = a mod n and dst = b mod n in
      if src = dst then true
      else begin
        let paths = Yen.k_shortest g ~src ~dst ~k:6 in
        let hops = List.map Paths.hop_count paths in
        let keys = List.map (fun p -> p.Paths.nodes) paths in
        hops = List.sort compare hops
        && List.length keys = List.length (List.sort_uniq compare keys)
        && List.for_all (Paths.is_valid g) paths
      end)

let qcheck_flooding_route_admissible =
  QCheck.Test.make ~name:"flooded route links all admit the floor" ~count:60
    QCheck.(triple small_int (int_range 6 25) (pair small_int small_int))
    (fun (seed, n, (a, b)) ->
      let g = random_graph seed n in
      let src = a mod n and dst = b mod n in
      if src = dst then true
      else begin
        let net = Net_state.create ~capacity:1000 g in
        let req = Flooding.request ~src ~dst ~floor:250 () in
        match Flooding.primary_route net req with
        | None -> false (* connected and empty: must route *)
        | Some p ->
          Paths.is_valid g p
          && List.for_all
               (fun dl ->
                 Link_state.admissible_primary (Net_state.link net dl) ~b_min:250)
               (Dirlink.of_path g p)
      end)

(* --- Scratch searches against the reference --- *)

(* Interleave primary and backup searches on one network, with Drcomm
   admissions (searches of their own on the same scratch), failures and
   repairs between them.  The network is a Waxman graph or a small
   transit-stub, whose bridges send many backup searches to the
   maximally-disjoint fallback, with or without backup multiplexing.
   Every call must return the path the reference returns; the reference
   computes the backup pool from its definition, not through
   [Link_state.backup_pool_with] or [Link_state.backup_headroom]. *)
let scratch_search_agrees seed ~transit_stub ~multiplexing =
  let rng = Prng.create seed in
  let g =
    if transit_stub then
      (Transit_stub.generate rng
         (Transit_stub.spec ~transit_domains:2 ~transit_size:3 ~stubs_per_transit_node:2
            ~stub_size:4 ()))
        .Transit_stub.graph
    else random_graph seed (15 + Prng.int rng 30)
  in
  let n = Graph.node_count g and m = Graph.edge_count g in
  let net = Net_state.create ~multiplexing ~capacity:1000 g in
  let config = Drcomm.Config.make ~hop_bound:(3 + Prng.int rng 5) ~require_backup:false () in
  let t = Drcomm.create ~config net in
  let qos = Qos.make ~b_min:50 ~b_max:200 ~increment:50 () in
  let admit () =
    let src, dst = Prng.sample_distinct_pair rng n in
    ignore (Drcomm.admit t ~src ~dst ~qos)
  in
  for _ = 1 to 2 * n do
    admit ()
  done;
  let agree = ref true in
  for _ = 1 to 300 do
    (match Prng.int rng 6 with
    | 0 -> admit ()
    | 1 ->
      let e = Prng.int rng m in
      if Net_state.edge_failed net e then Drcomm.repair_edge t e
      else ignore (Drcomm.fail_edge t e)
    | _ -> ());
    let src, dst = Prng.sample_distinct_pair rng n in
    let req =
      Flooding.request ~hop_bound:(1 + Prng.int rng 8) ~src ~dst
        ~floor:(50 * (1 + Prng.int rng 4)) ()
    in
    let primary = Flooding.primary_route net req in
    if primary <> Route_ref.primary_route net req then agree := false;
    let primary_edges =
      match (primary, Paths.shortest_path g src dst) with
      | Some p, _ | None, Some p -> p.Paths.edges
      | None, None -> []
    in
    if primary_edges <> [] then begin
      let banned_edges =
        if Prng.bool rng then [] else List.init (Prng.int rng 4) (fun _ -> Prng.int rng m)
      in
      if
        Flooding.backup_route ~banned_edges net req ~primary_edges
        <> Route_ref.backup_route ~banned_edges net req ~primary_edges
      then agree := false
    end
  done;
  !agree

let qcheck_scratch_search_agrees =
  QCheck.Test.make ~name:"scratch searches return the reference's paths" ~count:30
    QCheck.(triple small_int bool bool)
    (fun (seed, transit_stub, multiplexing) ->
      scratch_search_agrees seed ~transit_stub ~multiplexing)

let test_scratch_search_covers_fallback () =
  List.iter
    (fun multiplexing ->
      let before = !Route_ref.fallbacks in
      List.iter
        (fun transit_stub ->
          for seed = 1 to 3 do
            Alcotest.(check bool) "agrees" true
              (scratch_search_agrees seed ~transit_stub ~multiplexing)
          done)
        [ false; true ];
      Alcotest.(check bool) "the fallback ran" true (!Route_ref.fallbacks - before > 50))
    [ true; false ]

let () =
  Alcotest.run "routing"
    [
      ( "flooding",
        [
          Alcotest.test_case "min hop" `Quick test_primary_route_min_hop;
          Alcotest.test_case "capacity respected" `Quick test_primary_route_respects_capacity;
          Alcotest.test_case "allowance tiebreak" `Quick
            test_primary_route_allowance_tiebreak;
          Alcotest.test_case "hop bound" `Quick test_primary_route_hop_bound;
          Alcotest.test_case "failures avoided" `Quick test_primary_route_avoids_failures;
          Alcotest.test_case "directional capacity" `Quick
            test_primary_route_directional_capacity;
          Alcotest.test_case "backup disjoint" `Quick test_backup_route_disjoint;
          Alcotest.test_case "maximally disjoint fallback" `Quick
            test_backup_route_maximally_disjoint_fallback;
          Alcotest.test_case "multiplexing aware" `Quick test_backup_route_multiplexing_aware;
          Alcotest.test_case "message count" `Quick test_message_count;
          Alcotest.test_case "request validation" `Quick test_request_validation;
          Alcotest.test_case "destination level ties" `Quick test_destination_level_ties;
          Alcotest.test_case "scratch search covers the fallback" `Quick
            test_scratch_search_covers_fallback;
        ] );
      ( "disjoint",
        [
          Alcotest.test_case "three paths" `Quick test_disjoint_paths;
          Alcotest.test_case "exhaustion" `Quick test_disjoint_exhaustion;
          Alcotest.test_case "filter" `Quick test_disjoint_respects_filter;
        ] );
      ( "sequential",
        [
          Alcotest.test_case "matches flooding hops" `Quick
            test_sequential_matches_flooding_hops;
          Alcotest.test_case "skips inadmissible" `Quick test_sequential_skips_inadmissible;
          Alcotest.test_case "exhausts candidates" `Quick test_sequential_exhausts_candidates;
          Alcotest.test_case "backup disjoint" `Quick test_sequential_backup_disjoint;
          Alcotest.test_case "rejects useless backup" `Quick
            test_sequential_backup_rejects_useless;
          Alcotest.test_case "probe count" `Quick test_sequential_probe_count;
        ] );
      ( "yen",
        [
          Alcotest.test_case "ordering & distinctness" `Quick
            test_yen_ordering_and_distinctness;
          Alcotest.test_case "k=1 is bfs" `Quick test_yen_k1_is_bfs;
          Alcotest.test_case "disconnected" `Quick test_yen_disconnected;
          Alcotest.test_case "first admissible" `Quick test_first_admissible;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_disjoint_really_disjoint;
            qcheck_yen_sorted_distinct;
            qcheck_flooding_route_admissible;
            qcheck_scratch_search_agrees;
          ] );
    ]
