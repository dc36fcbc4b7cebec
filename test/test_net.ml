(* Tests for the network domain layer: bandwidth, QoS specs, directed
   links, per-link reservation state and policies. *)

let approx = Alcotest.float 1e-9

(* --- Bandwidth --- *)

let test_bandwidth_units () =
  Alcotest.(check int) "mbps" 10_000 (Bandwidth.mbps 10);
  Alcotest.check approx "to float" 0.5 (Bandwidth.to_float_mbps 500);
  Alcotest.(check int) "paper capacity" 10_000 Bandwidth.paper_link_capacity

let test_bandwidth_negative () =
  Alcotest.check_raises "negative" (Invalid_argument "Bandwidth.kbps: negative")
    (fun () -> ignore (Bandwidth.kbps (-1)))

let test_bandwidth_pp () =
  Alcotest.(check string) "kbps" "350Kbps" (Format.asprintf "%a" Bandwidth.pp 350);
  Alcotest.(check string) "mbps" "10Mbps" (Format.asprintf "%a" Bandwidth.pp 10_000)

(* --- Qos --- *)

let paper50 = Qos.paper_spec ~increment:50
let paper100 = Qos.paper_spec ~increment:100

let test_qos_levels () =
  Alcotest.(check int) "9 states at 50K" 9 (Qos.levels paper50);
  Alcotest.(check int) "5 states at 100K" 5 (Qos.levels paper100)

let test_qos_level_bandwidth_roundtrip () =
  for i = 0 to 8 do
    let bw = Qos.bandwidth_of_level paper50 i in
    Alcotest.(check int) "grid" (100 + (i * 50)) bw;
    Alcotest.(check int) "roundtrip" i (Qos.level_of_bandwidth paper50 bw)
  done

let test_qos_off_grid () =
  Alcotest.check_raises "off grid"
    (Invalid_argument "Qos.level_of_bandwidth: 130 not on grid") (fun () ->
      ignore (Qos.level_of_bandwidth paper50 130))

let test_qos_validation () =
  Alcotest.check_raises "range not multiple"
    (Invalid_argument "Qos.make: range must be an integral number of increments")
    (fun () -> ignore (Qos.make ~b_min:100 ~b_max:250 ~increment:100 ()));
  Alcotest.check_raises "b_max < b_min" (Invalid_argument "Qos.make: b_max < b_min")
    (fun () -> ignore (Qos.make ~b_min:200 ~b_max:100 ~increment:50 ()))

let test_qos_single_value () =
  let q = Qos.single_value 300 in
  Alcotest.(check int) "one level" 1 (Qos.levels q);
  Alcotest.(check bool) "not elastic" false (Qos.is_elastic q);
  Alcotest.(check bool) "paper spec is elastic" true (Qos.is_elastic paper50)

(* --- Dirlink --- *)

let line_graph () =
  (* 0 - 1 - 2 - 3 *)
  let g = Graph.create 4 in
  let e0 = Graph.add_edge g 0 1 in
  let e1 = Graph.add_edge g 1 2 in
  let e2 = Graph.add_edge g 2 3 in
  (g, e0, e1, e2)

let test_dirlink_ids () =
  let g, e0, _, _ = line_graph () in
  Alcotest.(check int) "count" 6 (Dirlink.count g);
  let fwd = Dirlink.of_edge g ~edge:e0 ~src:0 in
  let bwd = Dirlink.of_edge g ~edge:e0 ~src:1 in
  Alcotest.(check int) "forward" 0 fwd;
  Alcotest.(check int) "backward" 1 bwd;
  Alcotest.(check int) "reverse involution" fwd (Dirlink.reverse bwd);
  Alcotest.(check int) "edge recovery" e0 (Dirlink.edge bwd);
  Alcotest.(check (pair int int)) "endpoints fwd" (0, 1) (Dirlink.endpoints g fwd);
  Alcotest.(check (pair int int)) "endpoints bwd" (1, 0) (Dirlink.endpoints g bwd)

let test_dirlink_of_path () =
  let g, _, _, _ = line_graph () in
  let p = Option.get (Paths.shortest_path g 3 0) in
  let dls = Dirlink.of_path g p in
  Alcotest.(check int) "three links" 3 (List.length dls);
  List.iter2
    (fun dl (src, dst) ->
      Alcotest.(check (pair int int)) "direction" (src, dst) (Dirlink.endpoints g dl))
    dls
    [ (3, 2); (2, 1); (1, 0) ]

let test_dirlink_shares_edge () =
  let g, e0, e1, _ = line_graph () in
  let fwd = [ Dirlink.of_edge g ~edge:e0 ~src:0 ] in
  let bwd = [ Dirlink.of_edge g ~edge:e0 ~src:1 ] in
  let other = [ Dirlink.of_edge g ~edge:e1 ~src:1 ] in
  Alcotest.(check bool) "opposite directions share" true (Dirlink.shares_edge fwd bwd);
  Alcotest.(check bool) "distinct edges do not" false (Dirlink.shares_edge fwd other)

(* [of_step] reads no graph: it must agree with [of_edge] on every
   adjacency entry of the topologies the benchmarks route on. *)
let test_dirlink_of_step () =
  let agrees g =
    for u = 0 to Graph.node_count g - 1 do
      List.iter
        (fun (v, e) ->
          Alcotest.(check int) "of_step = of_edge" (Dirlink.of_edge g ~edge:e ~src:u)
            (Dirlink.of_step ~src:u ~dst:v e))
        (Graph.neighbors g u)
    done
  in
  agrees (Waxman.generate (Prng.create 1) (Waxman.paper_spec ~nodes:100));
  agrees
    (Transit_stub.generate (Prng.create 7)
       (Transit_stub.spec ~transit_domains:4 ~transit_size:8 ~stubs_per_transit_node:4
          ~stub_size:8 ()))
      .Transit_stub.graph

(* --- Link_state --- *)

let test_link_reserve_release () =
  let l = Link_state.create ~capacity:1000 () in
  Link_state.reserve_primary l ~channel:1 ~b_min:100;
  Link_state.reserve_primary l ~channel:2 ~b_min:200;
  Alcotest.(check int) "total" 300 (Link_state.primary_total l);
  Alcotest.(check int) "min total" 300 (Link_state.primary_min_total l);
  Alcotest.(check int) "spare" 700 (Link_state.spare l);
  Link_state.release_primary l ~channel:1;
  Alcotest.(check int) "after release" 200 (Link_state.primary_total l);
  Alcotest.(check (option int)) "gone" None (Link_state.primary_reservation l ~channel:1);
  Link_state.check_invariant l

let test_link_double_reserve_rejected () =
  let l = Link_state.create ~capacity:1000 () in
  Link_state.reserve_primary l ~channel:1 ~b_min:100;
  Alcotest.check_raises "double"
    (Invalid_argument "Link_state.reserve_primary: channel already reserved here")
    (fun () -> Link_state.reserve_primary l ~channel:1 ~b_min:100)

let test_link_admission_uses_floors () =
  let l = Link_state.create ~capacity:1000 () in
  Link_state.reserve_primary l ~channel:1 ~b_min:300;
  (* Extras fill the link physically... *)
  Link_state.set_primary l ~channel:1 1000;
  Alcotest.(check int) "no spare" 0 (Link_state.spare l);
  (* ...but admission sees the reclaimable floor. *)
  Alcotest.(check bool) "admissible despite extras" true
    (Link_state.admissible_primary l ~b_min:700);
  Alcotest.(check bool) "but not beyond floors" false
    (Link_state.admissible_primary l ~b_min:701);
  (* Reserving without reclaiming extras must fail loudly. *)
  Alcotest.check_raises "reclaim first"
    (Invalid_argument "Link_state.reserve_primary: reclaim extras first") (fun () ->
      Link_state.reserve_primary l ~channel:2 ~b_min:700)

let test_link_set_primary_constraints () =
  let l = Link_state.create ~capacity:1000 () in
  Link_state.reserve_primary l ~channel:1 ~b_min:100;
  Link_state.set_primary l ~channel:1 900;
  Alcotest.(check (option int)) "upgraded" (Some 900)
    (Link_state.primary_reservation l ~channel:1);
  Alcotest.check_raises "below floor"
    (Invalid_argument "Link_state.set_primary: below floor") (fun () ->
      Link_state.set_primary l ~channel:1 50);
  Alcotest.check_raises "beyond capacity"
    (Invalid_argument "Link_state.set_primary: would exceed link capacity") (fun () ->
      Link_state.set_primary l ~channel:1 1001);
  Link_state.check_invariant l

let test_link_release_unknown () =
  let l = Link_state.create ~capacity:1000 () in
  Alcotest.check_raises "unknown" Not_found (fun () ->
      Link_state.release_primary l ~channel:9)

(* Backup multiplexing: two backups whose primaries are edge-disjoint
   share the pool; a third whose primary overlaps adds to it. *)
let test_backup_multiplexing () =
  let l = Link_state.create ~capacity:1000 () in
  Link_state.register_backup l ~channel:1 ~b_min:100 ~primary_edges:[| 7; 8 |];
  Alcotest.(check int) "one backup" 100 (Link_state.backup_pool l);
  (* Disjoint primary: multiplexes for free. *)
  Link_state.register_backup l ~channel:2 ~b_min:100 ~primary_edges:[| 9; 10 |];
  Alcotest.(check int) "still 100" 100 (Link_state.backup_pool l);
  (* Overlapping primary (edge 8): must add. *)
  Link_state.register_backup l ~channel:3 ~b_min:100 ~primary_edges:[| 8; 11 |];
  Alcotest.(check int) "grows to 200" 200 (Link_state.backup_pool l);
  Link_state.unregister_backup l ~channel:3;
  Alcotest.(check int) "shrinks back" 100 (Link_state.backup_pool l);
  Link_state.check_invariant l

let test_backup_pool_with_is_pure () =
  let l = Link_state.create ~capacity:1000 () in
  Link_state.register_backup l ~channel:1 ~b_min:100 ~primary_edges:[| 1 |];
  let predicted = Link_state.backup_pool_with l ~b_min:150 ~primary_edges:[| 1 |] in
  Alcotest.(check int) "prediction" 250 predicted;
  Alcotest.(check int) "state unchanged" 100 (Link_state.backup_pool l);
  Link_state.register_backup l ~channel:2 ~b_min:150 ~primary_edges:[| 1 |];
  Alcotest.(check int) "prediction was right" predicted (Link_state.backup_pool l)

let test_backup_no_multiplexing_mode () =
  let l = Link_state.create ~multiplexing:false ~capacity:1000 () in
  Link_state.register_backup l ~channel:1 ~b_min:100 ~primary_edges:[| 7 |];
  Link_state.register_backup l ~channel:2 ~b_min:100 ~primary_edges:[| 9 |];
  (* Disjoint primaries, but without multiplexing the pool is the sum. *)
  Alcotest.(check int) "plain sum" 200 (Link_state.backup_pool l)

let test_backup_blocks_admission () =
  let l = Link_state.create ~capacity:1000 () in
  Link_state.register_backup l ~channel:1 ~b_min:400 ~primary_edges:[| 1 |];
  Alcotest.(check int) "headroom" 600 (Link_state.reclaimable_headroom l);
  Alcotest.(check bool) "600 fits" true (Link_state.admissible_primary l ~b_min:600);
  Alcotest.(check bool) "601 does not" false (Link_state.admissible_primary l ~b_min:601)

let test_backup_pool_overflow_rejected () =
  let l = Link_state.create ~capacity:1000 () in
  Link_state.reserve_primary l ~channel:1 ~b_min:800;
  Alcotest.check_raises "pool too big"
    (Invalid_argument "Link_state.register_backup: pool does not fit") (fun () ->
      Link_state.register_backup l ~channel:2 ~b_min:300 ~primary_edges:[| 1 |])

let test_extras_borrow_backup_pool () =
  (* The paper's §2.2 point: inactive backup bandwidth is usable as
     extras. *)
  let l = Link_state.create ~capacity:1000 () in
  Link_state.register_backup l ~channel:9 ~b_min:500 ~primary_edges:[| 3 |];
  Link_state.reserve_primary l ~channel:1 ~b_min:100;
  Link_state.set_primary l ~channel:1 1000;
  (* 1000 reserved while the pool still guarantees 500: fine... *)
  Link_state.check_invariant l;
  Alcotest.(check bool) "guarantee holds" true (Link_state.guarantee_holds l);
  (* ...because the extras are reclaimable down to the floor. *)
  Alcotest.(check int) "headroom" 400 (Link_state.reclaimable_headroom l)

let test_force_reserve_for_activation () =
  let l = Link_state.create ~capacity:1000 () in
  Link_state.register_backup l ~channel:9 ~b_min:500 ~primary_edges:[| 3 |];
  Link_state.reserve_primary l ~channel:1 ~b_min:500;
  (* Normal admission is blocked by the pool... *)
  Alcotest.(check bool) "normal blocked" false
    (Link_state.admissible_primary l ~b_min:500);
  (* ...but activating the backup itself uses force (its bandwidth is the
     pool's). *)
  Link_state.unregister_backup l ~channel:9;
  Link_state.reserve_primary ~force:true l ~channel:9 ~b_min:500;
  Link_state.check_invariant l;
  Alcotest.(check int) "full" 1000 (Link_state.primary_total l)

let test_iter_and_counts () =
  let l = Link_state.create ~capacity:1000 () in
  Link_state.reserve_primary l ~channel:1 ~b_min:100;
  Link_state.reserve_primary l ~channel:2 ~b_min:150;
  Alcotest.(check int) "count" 2 (Link_state.primary_count l);
  let sum = ref 0 in
  Link_state.iter_primary_channels (fun _ bw -> sum := !sum + bw) l;
  Alcotest.(check int) "iter sums" 250 !sum;
  Alcotest.(check int) "list length" 2 (List.length (Link_state.primary_channels l))

(* Model-based soak for Link_state: apply random operations, mirroring
   them in a naive reference model, and compare every observable after
   each step.  The reference recomputes the multiplexed pool from scratch
   (max over failure edges of summed floors), which is the definition the
   incremental pool table must match. *)
let qcheck_link_state_model =
  QCheck.Test.make ~name:"link state matches naive reference model" ~count:60
    QCheck.small_int (fun seed ->
      let rng = Prng.create seed in
      let capacity = 2000 in
      let l = Link_state.create ~capacity () in
      (* Reference state. *)
      let primaries = Hashtbl.create 8 (* ch -> (reserved, floor) *) in
      let backups = Hashtbl.create 8 (* ch -> (b_min, edges) *) in
      let ref_pool () =
        let by_edge = Hashtbl.create 8 in
        Hashtbl.iter
          (fun _ (b_min, edges) ->
            List.iter
              (fun e ->
                Hashtbl.replace by_edge e
                  (b_min + Option.value ~default:0 (Hashtbl.find_opt by_edge e)))
              edges)
          backups;
        Hashtbl.fold (fun _ v acc -> max v acc) by_edge 0
      in
      let ref_min_total () = Hashtbl.fold (fun _ (_, f) acc -> acc + f) primaries 0 in
      let ref_total () = Hashtbl.fold (fun _ (r, _) acc -> acc + r) primaries 0 in
      let ok = ref true in
      for step = 1 to 120 do
        let ch = Prng.int rng 6 in
        (match Prng.int rng 5 with
        | 0 ->
          (* reserve *)
          let b_min = 100 * (1 + Prng.int rng 4) in
          let fits =
            (not (Hashtbl.mem primaries ch))
            && ref_min_total () + ref_pool () + b_min <= capacity
            && ref_total () + b_min <= capacity
          in
          (match Link_state.reserve_primary l ~channel:ch ~b_min with
          | () ->
            if not fits then ok := false
            else Hashtbl.replace primaries ch (b_min, b_min)
          | exception Invalid_argument _ -> if fits then ok := false)
        | 1 -> (
          (* release *)
          match Link_state.release_primary l ~channel:ch with
          | () ->
            if not (Hashtbl.mem primaries ch) then ok := false
            else Hashtbl.remove primaries ch
          | exception Not_found -> if Hashtbl.mem primaries ch then ok := false)
        | 2 -> (
          (* set reservation *)
          let bw = 100 * (1 + Prng.int rng 8) in
          match Hashtbl.find_opt primaries ch with
          | None -> (
            match Link_state.set_primary l ~channel:ch bw with
            | () -> ok := false
            | exception Invalid_argument _ -> ())
          | Some (r, f) -> (
            let fits = bw >= f && ref_total () - r + bw <= capacity in
            match Link_state.set_primary l ~channel:ch bw with
            | () -> if fits then Hashtbl.replace primaries ch (bw, f) else ok := false
            | exception Invalid_argument _ -> if fits then ok := false))
        | 3 ->
          (* register backup *)
          let b_min = 100 * (1 + Prng.int rng 2) in
          let edges = List.init (1 + Prng.int rng 3) (fun _ -> Prng.int rng 5) in
          let edges = List.sort_uniq compare edges in
          let would =
            let by_edge = Hashtbl.create 8 in
            Hashtbl.iter
              (fun _ (b, es) ->
                List.iter
                  (fun e ->
                    Hashtbl.replace by_edge e
                      (b + Option.value ~default:0 (Hashtbl.find_opt by_edge e)))
                  es)
              backups;
            List.iter
              (fun e ->
                Hashtbl.replace by_edge e
                  (b_min + Option.value ~default:0 (Hashtbl.find_opt by_edge e)))
              edges;
            Hashtbl.fold (fun _ v acc -> max v acc) by_edge 0
          in
          let fits =
            (not (Hashtbl.mem backups ch)) && ref_min_total () + would <= capacity
          in
          (match
             Link_state.register_backup l ~channel:ch ~b_min
               ~primary_edges:(Array.of_list edges)
           with
          | () ->
            if not fits then ok := false else Hashtbl.replace backups ch (b_min, edges)
          | exception Invalid_argument _ -> if fits then ok := false)
        | _ -> (
          (* unregister backup *)
          match Link_state.unregister_backup l ~channel:ch with
          | () ->
            if not (Hashtbl.mem backups ch) then ok := false
            else Hashtbl.remove backups ch
          | exception Not_found -> if Hashtbl.mem backups ch then ok := false));
        (* Observables must agree after every step. *)
        if
          Link_state.primary_total l <> ref_total ()
          || Link_state.primary_min_total l <> ref_min_total ()
          || Link_state.backup_pool l <> ref_pool ()
        then ok := false;
        (match Link_state.check_invariant l with
        | () -> ()
        | exception Failure _ -> ok := false);
        ignore step
      done;
      !ok)

(* The backup pool query against its definition.  Backups register on a
   few links, each registration's primary-edge array shared by every
   link that takes it (as Drcomm shares one array per backup path), and
   drop off one link at a time.  After every step, on every link, for a
   random probe: [backup_pool_with] is the worst single failure
   recomputed from [edge_demands] (the plain sum of floors without
   multiplexing), [backup_headroom] is the headroom left by that pool,
   capped at 0 (the admission test), a random value and [max_int], the
   accounting audit passes, and every registration still reads back its
   floor and edges. *)
let qcheck_pool_query_definition =
  QCheck.Test.make ~name:"backup pool query matches its definition" ~count:60
    QCheck.(pair small_int bool)
    (fun (seed, multiplexing) ->
      let rng = Prng.create seed in
      let capacity = 1000 in
      let links =
        Array.init 3 (fun i ->
            let l = Link_state.create ~multiplexing ~capacity () in
            Link_state.reserve_primary l ~channel:100 ~b_min:(100 * (i + 1));
            l)
      in
      (* channel -> (floor, shared edge array, indices of the links holding it) *)
      let held = Hashtbl.create 8 in
      let random_edges () =
        List.init (1 + Prng.int rng 4) (fun _ -> Prng.int rng 8)
        |> List.sort_uniq compare |> Array.of_list
      in
      let pool_by_definition i ~b_min ~primary_edges =
        let l = links.(i) in
        if multiplexing then begin
          let demands = Link_state.edge_demands l in
          let demand e = Option.value ~default:0 (List.assoc_opt e demands) in
          let on_probe e = Array.mem e primary_edges in
          let worst =
            List.fold_left
              (fun acc (e, d) -> max acc (if on_probe e then d + b_min else d))
              0 demands
          in
          Array.fold_left (fun acc e -> max acc (demand e + b_min)) worst primary_edges
        end
        else
          Hashtbl.fold
            (fun _ (floor, _, holders) acc ->
              if List.mem i holders then acc + floor else acc)
            held b_min
      in
      let ok = ref true in
      let check cond = if not cond then ok := false in
      for _ = 1 to 80 do
        let ch = Prng.int rng 6 in
        (match Hashtbl.find_opt held ch with
        | Some (floor, edges, holders) -> (
          (* Drop the registration from one of its links only. *)
          let i = List.nth holders (Prng.int rng (List.length holders)) in
          Link_state.unregister_backup links.(i) ~channel:ch;
          match List.filter (( <> ) i) holders with
          | [] -> Hashtbl.remove held ch
          | rest -> Hashtbl.replace held ch (floor, edges, rest))
        | None ->
          let floor = 50 * (1 + Prng.int rng 4) in
          let edges = random_edges () in
          let holders = ref [] in
          Array.iteri
            (fun i l ->
              if Prng.bool rng then begin
                let fits =
                  Link_state.primary_min_total l
                  + pool_by_definition i ~b_min:floor ~primary_edges:edges
                  <= capacity
                in
                match
                  Link_state.register_backup l ~channel:ch ~b_min:floor
                    ~primary_edges:edges
                with
                | () ->
                  check fits;
                  holders := i :: !holders
                | exception Invalid_argument _ -> check (not fits)
              end)
            links;
          if !holders <> [] then Hashtbl.replace held ch (floor, edges, !holders));
        Array.iteri
          (fun i l ->
            let b_min = 50 * (1 + Prng.int rng 8) in
            let primary_edges = random_edges () in
            let expected_pool = pool_by_definition i ~b_min ~primary_edges in
            let headroom = capacity - Link_state.primary_min_total l - expected_pool in
            (* Probed first, so the first probe may meet a stale maximum. *)
            List.iter
              (fun at_most ->
                check
                  (Link_state.backup_headroom l ~b_min ~primary_edges ~at_most
                  = if headroom < 0 then -1 else min at_most headroom))
              [ 0; Prng.int rng capacity; max_int ];
            let pool' = Link_state.backup_pool_with l ~b_min ~primary_edges in
            check (pool' = expected_pool);
            (match Link_state.check_invariant l with
            | () -> ()
            | exception Failure _ -> ok := false);
            for ch = 0 to 5 do
              let expected =
                match Hashtbl.find_opt held ch with
                | Some (floor, edges, holders) when List.mem i holders ->
                  Some (floor, Array.to_list edges)
                | _ -> None
              in
              check (Link_state.backup_registration l ~channel:ch = expected)
            done)
          links
      done;
      !ok)

(* The packed per-edge demand table under colliding keys.  Edge ids
   [r + 8k] share their home slot at the initial size of 8 and keep
   colliding as the table doubles, and ids just below and above a power
   of two (and the largest id allowed) wrap probe runs around the end of
   the array.  Registrations on one link pick a few of them, then
   unregister in random order (so deletions open holes inside probe
   runs).  After every step each candidate id's
   [backup_demand_for_edge] and [edge_demands] must equal a reference
   map, the pool its maximum, and [check_invariant] must pass. *)
let qcheck_demand_table_collisions =
  QCheck.Test.make ~name:"demand table matches a reference map under colliding ids"
    ~count:100 QCheck.(pair small_int bool)
    (fun (seed, multiplexing) ->
      let rng = Prng.create seed in
      let l = Link_state.create ~multiplexing ~capacity:1_000_000 () in
      let r = Prng.int rng 8 and p = 1 lsl (3 + Prng.int rng 8) in
      let ids =
        Array.concat
          [
            Array.init 10 (fun k -> r + (8 * k));
            Array.init 5 (fun k -> p - 2 + k);
            [| (1 lsl 30) - 1 |];
          ]
      in
      let reference = Hashtbl.create 16 in
      let ref_demand e = Option.value ~default:0 (Hashtbl.find_opt reference e) in
      let held = ref [] in
      let ok = ref true in
      let audit () =
        Array.iter
          (fun e -> if Link_state.backup_demand_for_edge l e <> ref_demand e then ok := false)
          ids;
        let expected =
          Hashtbl.fold (fun e d acc -> if d > 0 then (e, d) :: acc else acc) reference []
        in
        if List.sort compare (Link_state.edge_demands l) <> List.sort compare expected then
          ok := false;
        if
          multiplexing
          && Link_state.backup_pool l <> List.fold_left (fun acc (_, d) -> max acc d) 0 expected
        then ok := false;
        match Link_state.check_invariant l with
        | () -> ()
        | exception Failure _ -> ok := false
      in
      let apply edges delta =
        Array.iter (fun e -> Hashtbl.replace reference e (ref_demand e + delta)) edges
      in
      let unregister_random () =
        match !held with
        | [] -> ()
        | _ ->
          let ch, b_min, edges = List.nth !held (Prng.int rng (List.length !held)) in
          Link_state.unregister_backup l ~channel:ch;
          held := List.filter (fun (c, _, _) -> c <> ch) !held;
          apply edges (-b_min)
      in
      for ch = 0 to 29 do
        let edges =
          List.init (1 + Prng.int rng 5) (fun _ -> ids.(Prng.int rng (Array.length ids)))
          |> List.sort_uniq compare |> Array.of_list
        in
        let b_min = 1 + Prng.int rng 50 in
        Link_state.register_backup l ~channel:ch ~b_min ~primary_edges:edges;
        held := (ch, b_min, edges) :: !held;
        apply edges b_min;
        audit ();
        if Prng.int rng 3 = 0 then begin
          unregister_random ();
          audit ()
        end
      done;
      while !held <> [] do
        unregister_random ();
        audit ()
      done;
      !ok)

let test_demand_table_limits () =
  Alcotest.check_raises "capacity of 2^32"
    (Invalid_argument "Link_state.create: capacity of 2^32 or more") (fun () ->
      ignore (Link_state.create ~capacity:(1 lsl 32) ()));
  let l = Link_state.create ~capacity:((1 lsl 32) - 1) () in
  Alcotest.check_raises "edge id of 2^30"
    (Invalid_argument "Link_state.register_backup: edge id outside [0, 2^30)") (fun () ->
      Link_state.register_backup l ~channel:1 ~b_min:5 ~primary_edges:[| 3; 1 lsl 30 |]);
  Link_state.register_backup l ~channel:1 ~b_min:((1 lsl 32) - 1)
    ~primary_edges:[| (1 lsl 30) - 1 |];
  Alcotest.(check int) "largest demand on the largest id" ((1 lsl 32) - 1)
    (Link_state.backup_demand_for_edge l ((1 lsl 30) - 1));
  Link_state.check_invariant l

(* --- Net_state --- *)

let test_net_state_basics () =
  let g, _, _, _ = line_graph () in
  let net = Net_state.create ~capacity:500 g in
  Alcotest.(check int) "links" 6 (Net_state.link_count net);
  Alcotest.(check int) "capacity" 500 (Link_state.capacity (Net_state.link net 0));
  Alcotest.(check bool) "multiplexing default" true (Net_state.multiplexing net)

let test_net_state_failures () =
  let g, e0, _, _ = line_graph () in
  let net = Net_state.create g in
  Alcotest.(check bool) "usable" true (Net_state.usable_edge net e0);
  Net_state.fail_edge net e0;
  Alcotest.(check bool) "failed" true (Net_state.edge_failed net e0);
  Alcotest.(check (list int)) "failed list" [ e0 ] (Net_state.failed_edges net);
  Net_state.fail_edge net e0;
  Alcotest.(check (list int)) "idempotent" [ e0 ] (Net_state.failed_edges net);
  Net_state.repair_edge net e0;
  Alcotest.(check bool) "repaired" true (Net_state.usable_edge net e0)

let test_net_state_totals () =
  let g, _, _, _ = line_graph () in
  let net = Net_state.create ~capacity:1000 g in
  Link_state.reserve_primary (Net_state.link net 0) ~channel:1 ~b_min:100;
  Link_state.reserve_primary (Net_state.link net 2) ~channel:1 ~b_min:100;
  Alcotest.(check int) "total primary" 200 (Net_state.total_primary_reserved net);
  Alcotest.check approx "utilisation" (200. /. 6000.) (Net_state.utilisation net);
  Net_state.check_invariants net

let test_multiplexing_gain () =
  let g, e0, _, _ = line_graph () in
  ignore e0;
  let net = Net_state.create ~capacity:1000 g in
  Alcotest.check approx "no backups" 1. (Net_state.multiplexing_gain net);
  (* Two disjoint-primary backups on link 0: dedicated 200, pooled 100. *)
  let l = Net_state.link net 0 in
  Link_state.register_backup l ~channel:1 ~b_min:100 ~primary_edges:[| 50 |];
  Link_state.register_backup l ~channel:2 ~b_min:100 ~primary_edges:[| 51 |];
  Alcotest.check approx "gain 2" 2. (Net_state.multiplexing_gain net);
  Alcotest.(check int) "dedicated demand" 200 (Link_state.backup_dedicated_demand l);
  Alcotest.(check int) "pool" 100 (Link_state.backup_pool l)

let test_net_state_heterogeneous () =
  let g, _, _, _ = line_graph () in
  let net = Net_state.create_heterogeneous ~capacity_of:(fun dl -> 100 * (dl + 1)) g in
  Alcotest.(check int) "link 0" 100 (Link_state.capacity (Net_state.link net 0));
  Alcotest.(check int) "link 5" 600 (Link_state.capacity (Net_state.link net 5))

(* --- Policy --- *)

let claim u e = { Policy.utility = u; extras_granted = e }

let test_policy_equal_share () =
  let c = Policy.compare_claims Policy.equal_share in
  Alcotest.(check bool) "fewer extras first" true (c (claim 1. 0) (claim 1. 3) < 0);
  Alcotest.(check int) "tie" 0 (c (claim 1. 2) (claim 5. 2))

let test_policy_proportional () =
  let c = Policy.compare_claims Policy.proportional in
  (* 2 extras at utility 4 = 0.5 per utility beats 1 extra at utility 1. *)
  Alcotest.(check bool) "utility-weighted" true (c (claim 4. 2) (claim 1. 1) < 0)

let test_policy_max_utility () =
  let c = Policy.compare_claims Policy.max_utility in
  Alcotest.(check bool) "higher utility first" true (c (claim 5. 9) (claim 1. 0) < 0)

let test_policy_strings () =
  List.iter
    (fun p ->
      let s = Format.asprintf "%a" Policy.pp p in
      Alcotest.(check (option bool)) ("roundtrip " ^ s) (Some true)
        (Option.map (fun p' -> Policy.equal p' p) (Policy.of_string s)))
    Policy.all;
  Alcotest.(check bool) "unknown" true (Policy.of_string "bogus" = None);
  (* Historical aliases still resolve. *)
  List.iter
    (fun (alias, p) ->
      Alcotest.(check (option bool)) ("alias " ^ alias) (Some true)
        (Option.map (Policy.equal p) (Policy.of_string alias)))
    [
      ("equal", Policy.equal_share);
      ("coefficient", Policy.proportional);
      ("max", Policy.max_utility);
    ]

(* Reverse priority: most extras granted first (a deliberately unfair
   discipline).  One extra on both sides leaves it unchanged, so it
   meets the [`Rounds] contract. *)
let greedy_rich =
  Policy.make ~name:"greedy-rich"
    ~order:(fun a b -> compare b.Policy.extras_granted a.Policy.extras_granted)
    ~style:`Rounds

(* Policies are first-class values: a custom one plugs in through
   {!Policy.make} and drives the same water-filling core. *)
let test_policy_first_class () =
  (* The unfair discipline still terminates and still reaches a fixed
     point. *)
  let greedy = greedy_rich in
  Alcotest.(check string) "name" "greedy-rich" (Policy.name greedy);
  Alcotest.(check bool) "distinct from builtins" true
    (not (List.exists (Policy.equal greedy) Policy.all));
  let g = Graph.create 2 in
  ignore (Graph.add_edge g 0 1);
  let cfg =
    Drcomm.Config.make ~policy:greedy ~backups_per_connection:0 ()
  in
  let t = Drcomm.create ~config:cfg (Net_state.create ~capacity:600 g) in
  let qos = Qos.make ~b_min:100 ~b_max:500 ~increment:100 () in
  let admit () =
    match Drcomm.admit t ~src:0 ~dst:1 ~qos with
    | Drcomm.Admitted (id, _) -> id
    | Drcomm.Rejected _ -> Alcotest.fail "expected admission"
  in
  let a = admit () in
  let b = admit () in
  (* Fixed point: all 600 granted, floors respected. *)
  Alcotest.(check int) "all capacity granted" 600
    (Drcomm.reserved_bandwidth t a + Drcomm.reserved_bandwidth t b);
  Alcotest.(check bool) "floors respected" true
    (Drcomm.reserved_bandwidth t a >= 100 && Drcomm.reserved_bandwidth t b >= 100);
  Drcomm.check_invariants t

(* The grant disciplines written the direct way, as the reference for
   the grant sequences: [`Rounds] re-sorts every candidate before each
   round, [`Exact] re-filters every candidate before each grant, and
   neither drops a refused candidate. *)
let reference_by order (env : _ Policy.env) a b =
  match order (env.claim a) (env.claim b) with 0 -> env.tie a b | c -> c

let reference_rounds order (env : _ Policy.env) candidates =
  let progress = ref true in
  while !progress do
    progress := false;
    let ordered = List.sort (reference_by order env) candidates in
    List.iter
      (fun ch ->
        if env.can_upgrade ch then begin
          env.grant ch;
          progress := true
        end)
      ordered
  done

let reference_exact order (env : _ Policy.env) candidates =
  let continue = ref true in
  while !continue do
    let eligible = List.filter env.can_upgrade candidates in
    match List.sort (reference_by order env) eligible with
    | [] -> continue := false
    | best :: _ -> env.grant best
  done

(* One synthetic flush from [seed]: up to 12 candidates with random
   levels, ceilings and utilities, each grant taking one unit from every
   counter in the candidate's random subset of 3 shared counters (the
   links of its path).  [run] water-fills them; the result is the ids in
   grant order. *)
let grant_log run seed =
  let rng = Prng.create seed in
  let n = 1 + Prng.int rng 12 in
  let counters = Array.init 3 (fun _ -> Prng.int rng 24) in
  let level = Array.init n (fun _ -> Prng.int rng 4) in
  let ceiling = Array.map (fun l -> l + Prng.int rng 6) level in
  let utility = Array.init n (fun _ -> float_of_int (1 + Prng.int rng 4)) in
  let uses = Array.init n (fun _ -> List.filter (fun _ -> Prng.bool rng) [ 0; 1; 2 ]) in
  let candidates = Array.init n Fun.id in
  Prng.shuffle rng candidates;
  let log = ref [] in
  let env =
    {
      Policy.claim = (fun i -> { Policy.utility = utility.(i); extras_granted = level.(i) });
      can_upgrade =
        (fun i -> level.(i) < ceiling.(i) && List.for_all (fun c -> counters.(c) > 0) uses.(i));
      grant =
        (fun i ->
          level.(i) <- level.(i) + 1;
          List.iter (fun c -> counters.(c) <- counters.(c) - 1) uses.(i);
          log := i :: !log);
      tie = Int.compare;
    }
  in
  run env (Array.to_list candidates);
  List.rev !log

let qcheck_grant_sequences =
  QCheck.Test.make ~name:"grant sequences match the re-sorting reference" ~count:300
    QCheck.small_nat (fun seed ->
      List.for_all
        (fun (policy, reference) ->
          grant_log policy.Policy.run seed
          = grant_log (reference (Policy.compare_claims policy)) seed)
        [
          (Policy.equal_share, reference_rounds);
          (greedy_rich, reference_rounds);
          (Policy.proportional, reference_exact);
        ])

(* The [`Rounds] contract is the real one: by extras per unit of
   utility, an order one extra can change, sorting once departs from
   the re-sorting reference on some flush. *)
let test_rounds_contract_needed () =
  let order = Policy.compare_claims Policy.proportional in
  let per_utility = Policy.make ~name:"per-utility-rounds" ~order ~style:`Rounds in
  let departs seed =
    grant_log per_utility.Policy.run seed <> grant_log (reference_rounds order) seed
  in
  Alcotest.(check bool) "a flush departs" true (List.exists departs (List.init 200 Fun.id))

let () =
  Alcotest.run "net"
    [
      ( "bandwidth",
        [
          Alcotest.test_case "units" `Quick test_bandwidth_units;
          Alcotest.test_case "negative" `Quick test_bandwidth_negative;
          Alcotest.test_case "printing" `Quick test_bandwidth_pp;
        ] );
      ( "qos",
        [
          Alcotest.test_case "levels" `Quick test_qos_levels;
          Alcotest.test_case "level/bandwidth roundtrip" `Quick
            test_qos_level_bandwidth_roundtrip;
          Alcotest.test_case "off grid" `Quick test_qos_off_grid;
          Alcotest.test_case "validation" `Quick test_qos_validation;
          Alcotest.test_case "single value" `Quick test_qos_single_value;
        ] );
      ( "dirlink",
        [
          Alcotest.test_case "ids" `Quick test_dirlink_ids;
          Alcotest.test_case "of_path" `Quick test_dirlink_of_path;
          Alcotest.test_case "shares_edge" `Quick test_dirlink_shares_edge;
          Alcotest.test_case "of_step" `Quick test_dirlink_of_step;
        ] );
      ( "link-state",
        [
          Alcotest.test_case "reserve/release" `Quick test_link_reserve_release;
          Alcotest.test_case "double reserve" `Quick test_link_double_reserve_rejected;
          Alcotest.test_case "admission uses floors" `Quick test_link_admission_uses_floors;
          Alcotest.test_case "set_primary constraints" `Quick
            test_link_set_primary_constraints;
          Alcotest.test_case "release unknown" `Quick test_link_release_unknown;
          Alcotest.test_case "backup multiplexing" `Quick test_backup_multiplexing;
          Alcotest.test_case "pool prediction pure" `Quick test_backup_pool_with_is_pure;
          Alcotest.test_case "no-multiplexing mode" `Quick test_backup_no_multiplexing_mode;
          Alcotest.test_case "backup blocks admission" `Quick test_backup_blocks_admission;
          Alcotest.test_case "pool overflow rejected" `Quick
            test_backup_pool_overflow_rejected;
          Alcotest.test_case "extras borrow pool" `Quick test_extras_borrow_backup_pool;
          Alcotest.test_case "forced activation reserve" `Quick
            test_force_reserve_for_activation;
          Alcotest.test_case "iteration & counts" `Quick test_iter_and_counts;
          Alcotest.test_case "demand table limits" `Quick test_demand_table_limits;
        ] );
      ( "net-state",
        [
          Alcotest.test_case "basics" `Quick test_net_state_basics;
          Alcotest.test_case "failures" `Quick test_net_state_failures;
          Alcotest.test_case "totals" `Quick test_net_state_totals;
          Alcotest.test_case "heterogeneous" `Quick test_net_state_heterogeneous;
          Alcotest.test_case "multiplexing gain" `Quick test_multiplexing_gain;
        ] );
      ( "policy",
        [
          Alcotest.test_case "equal share" `Quick test_policy_equal_share;
          Alcotest.test_case "proportional" `Quick test_policy_proportional;
          Alcotest.test_case "max utility" `Quick test_policy_max_utility;
          Alcotest.test_case "string roundtrip" `Quick test_policy_strings;
          Alcotest.test_case "first-class policy" `Quick test_policy_first_class;
          Alcotest.test_case "rounds contract needed" `Quick test_rounds_contract_needed;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_link_state_model;
            qcheck_pool_query_definition;
            qcheck_grant_sequences;
            qcheck_demand_table_collisions;
          ] );
    ]
