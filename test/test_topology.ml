(* Tests for graphs, path queries and topology generators. *)

(* A 5-node "bowtie-ish" fixture:
     0 - 1 - 2
      \  |  /
        3 - 4      edges: 0-1, 1-2, 0-3, 1-3, 2-3, 3-4 *)
let fixture () =
  let g = Graph.create 5 in
  let e01 = Graph.add_edge g 0 1 in
  let e12 = Graph.add_edge g 1 2 in
  let e03 = Graph.add_edge g 0 3 in
  let e13 = Graph.add_edge g 1 3 in
  let e23 = Graph.add_edge g 2 3 in
  let e34 = Graph.add_edge g 3 4 in
  (g, (e01, e12, e03, e13, e23, e34))

let test_counts () =
  let g, _ = fixture () in
  Alcotest.(check int) "nodes" 5 (Graph.node_count g);
  Alcotest.(check int) "edges" 6 (Graph.edge_count g)

let test_endpoints () =
  let g, (e01, _, _, _, _, e34) = fixture () in
  Alcotest.(check (pair int int)) "e01" (0, 1) (Graph.endpoints g e01);
  Alcotest.(check (pair int int)) "e34" (3, 4) (Graph.endpoints g e34);
  Alcotest.(check int) "other endpoint" 4 (Graph.other_endpoint g e34 3);
  Alcotest.(check int) "other endpoint'" 3 (Graph.other_endpoint g e34 4)

let test_self_loop_rejected () =
  let g = Graph.create 3 in
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.add_edge: self-loop")
    (fun () -> ignore (Graph.add_edge g 1 1))

let test_duplicate_rejected () =
  let g = Graph.create 3 in
  ignore (Graph.add_edge g 0 1);
  Alcotest.check_raises "duplicate" (Invalid_argument "Graph.add_edge: duplicate edge")
    (fun () -> ignore (Graph.add_edge g 1 0))

let test_find_edge () =
  let g, (e01, _, _, _, _, _) = fixture () in
  Alcotest.(check (option int)) "0-1 both ways" (Some e01) (Graph.find_edge g 1 0);
  Alcotest.(check (option int)) "0-4 absent" None (Graph.find_edge g 0 4)

let test_degree () =
  let g, _ = fixture () in
  Alcotest.(check int) "deg 3" 4 (Graph.degree g 3);
  Alcotest.(check int) "deg 4" 1 (Graph.degree g 4);
  let avg, dmin, dmax = Graph.degree_stats g in
  Alcotest.(check int) "min" 1 dmin;
  Alcotest.(check int) "max" 4 dmax;
  Alcotest.check (Alcotest.float 1e-9) "avg = 2E/N" 2.4 avg

let test_iter_edges_order () =
  let g, _ = fixture () in
  let ids = Graph.fold_edges (fun e _ _ acc -> e :: acc) g [] in
  Alcotest.(check (list int)) "id order" [ 5; 4; 3; 2; 1; 0 ] ids

let test_components () =
  let g = Graph.create 5 in
  ignore (Graph.add_edge g 0 1);
  ignore (Graph.add_edge g 2 3);
  let comps = Graph.components g in
  Alcotest.(check int) "three components" 3 (List.length comps);
  Alcotest.(check bool) "disconnected" false (Graph.is_connected g);
  ignore (Graph.add_edge g 1 2);
  ignore (Graph.add_edge g 3 4);
  Alcotest.(check bool) "connected now" true (Graph.is_connected g)

let test_empty_graph_connected () =
  Alcotest.(check bool) "empty" true (Graph.is_connected (Graph.create 0));
  Alcotest.(check bool) "singleton" true (Graph.is_connected (Graph.create 1))

let test_copy_isolated () =
  let g, _ = fixture () in
  let g2 = Graph.copy g in
  ignore (Graph.add_edge g2 0 4);
  Alcotest.(check int) "copy grew" 7 (Graph.edge_count g2);
  Alcotest.(check int) "original intact" 6 (Graph.edge_count g)

(* --- Paths --- *)

let test_hops_from () =
  let g, _ = fixture () in
  let d = Paths.hops_from g 0 in
  Alcotest.(check (array int)) "distances" [| 0; 1; 2; 1; 2 |] d

let test_hops_unreachable () =
  let g = Graph.create 3 in
  ignore (Graph.add_edge g 0 1);
  let d = Paths.hops_from g 0 in
  Alcotest.(check int) "unreachable is -1" (-1) d.(2)

let test_shortest_path () =
  let g, _ = fixture () in
  match Paths.shortest_path g 0 4 with
  | None -> Alcotest.fail "expected path"
  | Some p ->
    Alcotest.(check int) "two hops" 2 (Paths.hop_count p);
    Alcotest.(check (list int)) "via 3" [ 0; 3; 4 ] p.Paths.nodes;
    Alcotest.(check bool) "valid" true (Paths.is_valid g p)

let test_shortest_path_self () =
  let g, _ = fixture () in
  match Paths.shortest_path g 2 2 with
  | Some { Paths.nodes = [ 2 ]; edges = [] } -> ()
  | _ -> Alcotest.fail "expected trivial path"

let test_shortest_path_filtered () =
  let g, (_, _, e03, _, _, _) = fixture () in
  (* Block 0-3: the route to 4 must detour via 1. *)
  match Paths.shortest_path ~usable:(fun e -> e <> e03) g 0 4 with
  | None -> Alcotest.fail "expected path"
  | Some p ->
    Alcotest.(check int) "three hops" 3 (Paths.hop_count p);
    Alcotest.(check bool) "avoids e03" true (not (List.mem e03 p.Paths.edges))

let test_path_validity_checks () =
  let g, (e01, e12, _, _, _, _) = fixture () in
  Alcotest.(check bool) "good" true
    (Paths.is_valid g { Paths.nodes = [ 0; 1; 2 ]; edges = [ e01; e12 ] });
  Alcotest.(check bool) "wrong edge" false
    (Paths.is_valid g { Paths.nodes = [ 0; 1; 2 ]; edges = [ e12; e01 ] });
  Alcotest.(check bool) "repeated node" false
    (Paths.is_valid g { Paths.nodes = [ 0; 1; 0 ]; edges = [ e01; e01 ] });
  Alcotest.(check bool) "length mismatch" false
    (Paths.is_valid g { Paths.nodes = [ 0; 1 ]; edges = [] })

let test_dijkstra_weighted () =
  let g, (e01, e12, e03, _, e23, _) = fixture () in
  (* Make the 0-3 shortcut expensive; cheapest 0->2 becomes 0-1-2. *)
  let weight e = if e = e03 || e = e23 then 10. else 1. in
  match Paths.dijkstra ~weight (Paths.scratch g) g 0 2 with
  | None -> Alcotest.fail "expected path"
  | Some (p, cost) ->
    Alcotest.check (Alcotest.float 1e-9) "cost" 2. cost;
    Alcotest.(check (list int)) "edges" [ e01; e12 ] p.Paths.edges

(* Each query runs on a fresh scratch and on one scratch reused across
   every query; both stop at the destination and must return the path a
   whole-graph run returns. *)
let test_dijkstra_matches_bfs_hops () =
  let rng = Prng.create 2 in
  let g = Waxman.generate rng (Waxman.spec ~nodes:40 ~alpha:0.4 ~beta:0.3 ()) in
  let weight _ = 1. in
  let reused = Paths.scratch g in
  for src = 0 to 9 do
    let d = Paths.hops_from g src in
    for dst = 10 to 19 do
      let full = Route_ref.dijkstra ~weight g src dst in
      List.iter
        (fun s ->
          let got = Paths.dijkstra ~weight s g src dst in
          Alcotest.(check bool) "same path as a full run" true (got = full);
          match got with
          | Some (_, cost) ->
            Alcotest.(check int) "unit dijkstra = bfs" d.(dst) (int_of_float cost)
          | None -> Alcotest.(check int) "both unreachable" (-1) d.(dst))
        [ Paths.scratch g; reused ]
    done
  done

(* A scratch holds a copy of its graph's adjacency: Dijkstra refuses it
   once the graph has gained an edge, and on a graph with the same edge
   count but another node count. *)
let test_dijkstra_rejects_foreign_scratch () =
  let line n =
    let g = Graph.create n in
    ignore (Graph.add_edge g 0 1);
    ignore (Graph.add_edge g 1 2);
    g
  in
  let g = line 3 in
  let s = Paths.scratch g in
  let weight _ = 1. in
  Alcotest.(check bool) "own graph" true (Paths.dijkstra ~weight s g 0 2 <> None);
  let refused g' =
    Alcotest.check_raises "refused"
      (Invalid_argument "Paths.dijkstra: scratch built for another graph") (fun () ->
        ignore (Paths.dijkstra ~weight s g' 0 2))
  in
  refused (line 4);
  ignore (Graph.add_edge g 0 2);
  refused g

let test_widest_path () =
  let g = Graph.create 4 in
  let e01 = Graph.add_edge g 0 1 in
  let e13 = Graph.add_edge g 1 3 in
  let e02 = Graph.add_edge g 0 2 in
  let e23 = Graph.add_edge g 2 3 in
  let width e = if e = e01 || e = e13 then 5. else 8. in
  match Paths.widest_path ~width g 0 3 with
  | None -> Alcotest.fail "expected path"
  | Some (p, bottleneck) ->
    Alcotest.check (Alcotest.float 1e-9) "bottleneck" 8. bottleneck;
    Alcotest.(check (list int)) "wide route" [ e02; e23 ] p.Paths.edges

let test_widest_prefers_fewer_hops () =
  let g = Graph.create 4 in
  let e03 = Graph.add_edge g 0 3 in
  ignore (Graph.add_edge g 0 1);
  ignore (Graph.add_edge g 1 2);
  ignore (Graph.add_edge g 2 3);
  match Paths.widest_path ~width:(fun _ -> 1.) g 0 3 with
  | Some (p, _) -> Alcotest.(check (list int)) "direct" [ e03 ] p.Paths.edges
  | None -> Alcotest.fail "expected path"

let test_diameter_and_avg () =
  let g = Graph.create 4 in
  ignore (Graph.add_edge g 0 1);
  ignore (Graph.add_edge g 1 2);
  ignore (Graph.add_edge g 2 3);
  Alcotest.(check int) "line diameter" 3 (Paths.diameter g);
  Alcotest.(check int) "eccentricity of middle" 2 (Paths.eccentricity g 1);
  (* Average over ordered pairs of the 4-line: (6*1+4*2+2*3)/12 = 5/3. *)
  Alcotest.check (Alcotest.float 1e-9) "avg hops" (5. /. 3.) (Paths.average_hops g)

(* --- Waxman --- *)

let test_waxman_connected_and_sized () =
  List.iter
    (fun seed ->
      let g = Waxman.generate (Prng.create seed) (Waxman.paper_spec ~nodes:100) in
      Alcotest.(check bool) "connected" true (Graph.is_connected g);
      let e = Graph.edge_count g in
      Alcotest.(check bool)
        (Printf.sprintf "edge count %d within 15%% of 177" e)
        true
        (abs (e - 177) < 27))
    [ 1; 2; 3; 4; 5 ]

let test_waxman_deterministic () =
  let gen seed = Waxman.generate (Prng.create seed) (Waxman.paper_spec ~nodes:50) in
  let g1 = gen 9 and g2 = gen 9 in
  Alcotest.(check int) "same edges" (Graph.edge_count g1) (Graph.edge_count g2);
  Graph.iter_edges
    (fun e u v ->
      let u', v' = Graph.endpoints g2 e in
      Alcotest.(check (pair int int)) "same edge" (u, v) (u', v'))
    g1

let test_waxman_density_monotone_in_alpha () =
  let count alpha =
    Graph.edge_count
      (Waxman.generate (Prng.create 3) (Waxman.spec ~nodes:60 ~alpha ~beta:0.3 ()))
  in
  Alcotest.(check bool) "alpha grows edges" true (count 0.8 > count 0.1)

let test_waxman_spec_validation () =
  Alcotest.check_raises "alpha range" (Invalid_argument "Waxman.spec: alpha in (0, 1]")
    (fun () -> ignore (Waxman.spec ~nodes:10 ~alpha:0. ~beta:0.5 ()))

let test_waxman_calibration () =
  let rng = Prng.create 42 in
  let beta = Waxman.calibrate_beta rng ~nodes:100 ~alpha:0.33 ~target_edges:177 in
  let expected = Waxman.expected_edges (Prng.create 7) (Waxman.spec ~nodes:100 ~alpha:0.33 ~beta ()) in
  Alcotest.(check bool)
    (Printf.sprintf "calibrated expectation %.1f near 177" expected)
    true
    (Float.abs (expected -. 177.) < 20.)

let test_paper_instance_properties () =
  (* The calibrated instance must look like the paper's: ~354 directed
     links, diameter around 8, i.e. clearly not a 2-3 hop dense blob. *)
  let g = Waxman.generate (Prng.create 1) (Waxman.paper_spec ~nodes:100) in
  let diam = Paths.diameter g in
  Alcotest.(check bool) (Printf.sprintf "diameter %d in [6, 14]" diam) true
    (diam >= 6 && diam <= 14)

(* --- Transit-stub --- *)

let test_transit_stub_size () =
  let spec = Transit_stub.paper_spec in
  Alcotest.(check int) "100 nodes" 100 (Transit_stub.node_count spec);
  let info = Transit_stub.generate (Prng.create 4) spec in
  Alcotest.(check int) "graph nodes" 100 (Graph.node_count info.Transit_stub.graph);
  Alcotest.(check int) "4 transit nodes" 4 (List.length info.Transit_stub.transit_nodes)

let test_transit_stub_connected () =
  List.iter
    (fun seed ->
      let info = Transit_stub.generate (Prng.create seed) Transit_stub.paper_spec in
      Alcotest.(check bool) "connected" true (Graph.is_connected info.Transit_stub.graph))
    [ 1; 2; 3 ]

let test_transit_stub_hierarchy () =
  let info = Transit_stub.generate (Prng.create 5) Transit_stub.paper_spec in
  let g = info.Transit_stub.graph in
  let stub_of = info.Transit_stub.stub_of_node in
  (* Transit nodes carry stub -1; stubs are numbered. *)
  List.iter
    (fun t -> Alcotest.(check int) "transit marker" (-1) stub_of.(t))
    info.Transit_stub.transit_nodes;
  (* No edge may join two different stub domains directly: stub traffic
     must transit the core. *)
  Graph.iter_edges
    (fun _ u v ->
      if stub_of.(u) >= 0 && stub_of.(v) >= 0 then
        Alcotest.(check int) "no stub-stub shortcut" stub_of.(u) stub_of.(v))
    g

let test_transit_stub_multi_domain () =
  let spec =
    Transit_stub.spec ~transit_domains:3 ~transit_size:3 ~stubs_per_transit_node:2
      ~stub_size:4 ()
  in
  Alcotest.(check int) "node count" (9 + (9 * 2 * 4)) (Transit_stub.node_count spec);
  let info = Transit_stub.generate (Prng.create 6) spec in
  Alcotest.(check bool) "connected" true (Graph.is_connected info.Transit_stub.graph)

(* --- Torus --- *)

let test_torus_regular () =
  let g = Torus.generate ~rows:4 ~cols:5 in
  Alcotest.(check int) "nodes" 20 (Graph.node_count g);
  Alcotest.(check int) "edges" 40 (Graph.edge_count g);
  for u = 0 to 19 do
    Alcotest.(check int) "4-regular" 4 (Graph.degree g u)
  done;
  Alcotest.(check bool) "connected" true (Graph.is_connected g)

let test_torus_validation () =
  Alcotest.check_raises "too small" (Invalid_argument "Torus.generate: need rows, cols >= 3")
    (fun () -> ignore (Torus.generate ~rows:2 ~cols:5))

let test_torus_distances () =
  let g = Torus.generate ~rows:5 ~cols:5 in
  let d = Paths.hops_from g (Torus.node ~cols:5 0 0) in
  (* Manhattan with wrap: (2,2) is 4 away, (0,4) wraps to 1, (4,4) is 2. *)
  Alcotest.(check int) "(2,2)" 4 d.(Torus.node ~cols:5 2 2);
  Alcotest.(check int) "(0,4)" 1 d.(Torus.node ~cols:5 0 4);
  Alcotest.(check int) "(4,4)" 2 d.(Torus.node ~cols:5 4 4)

let test_torus_average_hops () =
  let rows = 5 and cols = 6 in
  let g = Torus.generate ~rows ~cols in
  Alcotest.check (Alcotest.float 1e-9) "closed form = BFS"
    (Paths.average_hops g)
    (Torus.average_hops ~rows ~cols)

let random_connected_graph seed nodes =
  Waxman.generate (Prng.create seed) (Waxman.spec ~nodes ~alpha:0.5 ~beta:0.3 ())

(* --- properties --- *)

let qcheck_shortest_paths_valid =
  QCheck.Test.make ~name:"BFS paths are valid simple paths" ~count:100
    QCheck.(triple small_int (int_range 5 40) (pair small_int small_int))
    (fun (seed, nodes, (a, b)) ->
      let g = random_connected_graph seed nodes in
      let src = a mod nodes and dst = b mod nodes in
      match Paths.shortest_path g src dst with
      | None -> false (* generator guarantees connectivity *)
      | Some p -> Paths.is_valid g p || src = dst)

let qcheck_bfs_symmetric =
  QCheck.Test.make ~name:"hop distance is symmetric" ~count:50
    QCheck.(pair small_int (int_range 5 30))
    (fun (seed, nodes) ->
      let g = random_connected_graph seed nodes in
      let ok = ref true in
      for u = 0 to min 4 (nodes - 1) do
        let du = Paths.hops_from g u in
        for v = 0 to nodes - 1 do
          let dv = Paths.hops_from g v in
          if du.(v) <> dv.(u) then ok := false
        done
      done;
      !ok)

let qcheck_triangle_inequality =
  QCheck.Test.make ~name:"hop distance triangle inequality" ~count:50
    QCheck.(pair small_int (int_range 5 25))
    (fun (seed, nodes) ->
      let g = random_connected_graph seed nodes in
      let d = Array.init nodes (fun u -> Paths.hops_from g u) in
      let ok = ref true in
      for u = 0 to nodes - 1 do
        for v = 0 to nodes - 1 do
          for w = 0 to nodes - 1 do
            if d.(u).(v) > d.(u).(w) + d.(w).(v) then ok := false
          done
        done
      done;
      !ok)

let () =
  Alcotest.run "topology"
    [
      ( "graph",
        [
          Alcotest.test_case "counts" `Quick test_counts;
          Alcotest.test_case "endpoints" `Quick test_endpoints;
          Alcotest.test_case "self-loop" `Quick test_self_loop_rejected;
          Alcotest.test_case "duplicate" `Quick test_duplicate_rejected;
          Alcotest.test_case "find_edge" `Quick test_find_edge;
          Alcotest.test_case "degree" `Quick test_degree;
          Alcotest.test_case "edge iteration order" `Quick test_iter_edges_order;
          Alcotest.test_case "components" `Quick test_components;
          Alcotest.test_case "trivial connectivity" `Quick test_empty_graph_connected;
          Alcotest.test_case "copy isolation" `Quick test_copy_isolated;
        ] );
      ( "paths",
        [
          Alcotest.test_case "hops_from" `Quick test_hops_from;
          Alcotest.test_case "unreachable" `Quick test_hops_unreachable;
          Alcotest.test_case "shortest path" `Quick test_shortest_path;
          Alcotest.test_case "trivial path" `Quick test_shortest_path_self;
          Alcotest.test_case "filtered path" `Quick test_shortest_path_filtered;
          Alcotest.test_case "validity checks" `Quick test_path_validity_checks;
          Alcotest.test_case "dijkstra weighted" `Quick test_dijkstra_weighted;
          Alcotest.test_case "dijkstra = bfs on unit weights" `Quick
            test_dijkstra_matches_bfs_hops;
          Alcotest.test_case "dijkstra refuses another graph's scratch" `Quick
            test_dijkstra_rejects_foreign_scratch;
          Alcotest.test_case "widest path" `Quick test_widest_path;
          Alcotest.test_case "widest ties to hops" `Quick test_widest_prefers_fewer_hops;
          Alcotest.test_case "diameter & average" `Quick test_diameter_and_avg;
        ] );
      ( "waxman",
        [
          Alcotest.test_case "connected & calibrated" `Quick test_waxman_connected_and_sized;
          Alcotest.test_case "deterministic" `Quick test_waxman_deterministic;
          Alcotest.test_case "alpha monotone" `Quick test_waxman_density_monotone_in_alpha;
          Alcotest.test_case "spec validation" `Quick test_waxman_spec_validation;
          Alcotest.test_case "calibration" `Quick test_waxman_calibration;
          Alcotest.test_case "paper instance shape" `Quick test_paper_instance_properties;
        ] );
      ( "transit-stub",
        [
          Alcotest.test_case "size" `Quick test_transit_stub_size;
          Alcotest.test_case "connected" `Quick test_transit_stub_connected;
          Alcotest.test_case "hierarchy" `Quick test_transit_stub_hierarchy;
          Alcotest.test_case "multiple domains" `Quick test_transit_stub_multi_domain;
        ] );
      ( "torus",
        [
          Alcotest.test_case "regularity" `Quick test_torus_regular;
          Alcotest.test_case "size bounds" `Quick test_torus_validation;
          Alcotest.test_case "distances" `Quick test_torus_distances;
          Alcotest.test_case "average hops closed form" `Quick test_torus_average_hops;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ qcheck_shortest_paths_valid; qcheck_bfs_symmetric; qcheck_triangle_inequality ]
      );
    ]
