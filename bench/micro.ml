(* Bechamel micro-benchmarks of the operations each experiment leans on:
   route discovery, admission, the Markov solve, and topology
   generation. *)

open Bechamel
open Toolkit

let paper_graph = lazy (Waxman.generate (Prng.create 1) (Waxman.paper_spec ~nodes:100))

let bench_flooding () =
  let g = Lazy.force paper_graph in
  let net = Net_state.create g in
  let rng = Prng.create 3 in
  Staged.stage (fun () ->
      let src, dst = Prng.sample_distinct_pair rng (Graph.node_count g) in
      ignore (Flooding.primary_route net (Flooding.request ~src ~dst ~floor:100 ())))

let bench_admission obs =
  let g = Lazy.force paper_graph in
  let net = Net_state.create g in
  let service = Drcomm.create ~obs net in
  let rng = Prng.create 4 in
  let qos = Qos.paper_spec ~increment:50 in
  Staged.stage (fun () ->
      let src, dst = Prng.sample_distinct_pair rng (Graph.node_count g) in
      match Drcomm.admit ~want_indirect:false service ~src ~dst ~qos with
      | Drcomm.Admitted (id, _) ->
        (* Keep the service near-empty so each run measures one admit +
           one terminate rather than an ever-growing network. *)
        ignore (Drcomm.terminate service id)
      | Drcomm.Rejected _ -> ())

let bench_markov_solve obs =
  let rng = Prng.create 5 in
  let n = 9 in
  let random_stochastic () =
    let m = Matrix.create n n in
    for i = 0 to n - 1 do
      let row = Array.init n (fun _ -> Prng.float rng 1.) in
      let total = Array.fold_left ( +. ) 0. row in
      Array.iteri (fun j x -> Matrix.set m i j (x /. total)) row
    done;
    m
  in
  let p =
    {
      Model.lambda = 0.001;
      mu = 0.001;
      gamma = 0.;
      p_f = 0.04;
      p_s = 0.5;
      a = random_stochastic ();
      b = random_stochastic ();
      t_mat = random_stochastic ();
    }
  in
  let qos = Qos.paper_spec ~increment:50 in
  Staged.stage (fun () -> ignore (Model.average_bandwidth_regularized ~obs p ~qos))

let bench_waxman () =
  let counter = ref 0 in
  Staged.stage (fun () ->
      incr counter;
      ignore (Waxman.generate (Prng.create !counter) (Waxman.paper_spec ~nodes:100)))

let bench_backup_route () =
  let g = Lazy.force paper_graph in
  let net = Net_state.create g in
  let rng = Prng.create 6 in
  Staged.stage (fun () ->
      let src, dst = Prng.sample_distinct_pair rng (Graph.node_count g) in
      let req = Flooding.request ~src ~dst ~floor:100 () in
      match Flooding.primary_route net req with
      | None -> ()
      | Some p -> ignore (Flooding.backup_route net req ~primary_edges:p.Paths.edges))

(* The backup search on the scale bench's transit-stub loaded with 20 000
   stub-local flows, for fixed-seed pairs whose primary has no
   link-disjoint backup within the hop bound: every call runs the
   disjoint search and then the maximally-disjoint Dijkstra fallback,
   which the empty 100-node case above never reaches. *)
let bench_backup_fallback obs =
  let rng = Prng.create 7 in
  let info = Transit_stub.generate rng Scale.topo_spec in
  let stubs = Scale.stub_table info in
  let net = Net_state.create ~capacity:Scale.capacity info.Transit_stub.graph in
  let hop_bound = 6 in
  let config = Drcomm.Config.make ~hop_bound ~require_backup:false () in
  let service = Drcomm.create ~config ~obs net in
  Drcomm.set_auto_redistribute service false;
  for _ = 1 to 20_000 do
    let src, dst = Scale.stub_pair rng stubs in
    ignore
      (Drcomm.admit ~want_indirect:false ~want_report:false service ~src ~dst
         ~qos:Scale.qos_inelastic)
  done;
  (* The fallback ran exactly when the backup is missing or shares an
     edge with its primary. *)
  let falls_back req primary_edges =
    match Flooding.backup_route net req ~primary_edges with
    | None -> true
    | Some b -> List.exists (fun e -> List.mem e primary_edges) b.Paths.edges
  in
  let cases = ref [] in
  for _ = 1 to 10_000 do
    let src, dst = Scale.stub_pair rng stubs in
    let req = Flooding.request ~hop_bound ~src ~dst ~floor:10 () in
    match Flooding.primary_route net req with
    | Some p when List.length !cases < 64 && falls_back req p.Paths.edges ->
      cases := (req, p.Paths.edges) :: !cases
    | _ -> ()
  done;
  let cases = Array.of_list !cases in
  if Array.length cases = 0 then failwith "micro: no pair falls back";
  let i = ref 0 in
  Staged.stage (fun () ->
      let req, primary_edges = cases.(!i) in
      i := (!i + 1) mod Array.length cases;
      ignore (Flooding.backup_route net req ~primary_edges))

(* The paper network after 5 000 offered admissions with backups, the
   pairs drawn from [rng], with auto-redistribution off. *)
let loaded_paper_network obs rng =
  let g = Lazy.force paper_graph in
  let net = Net_state.create g in
  let service = Drcomm.create ~obs net in
  Drcomm.set_auto_redistribute service false;
  let qos = Qos.paper_spec ~increment:50 in
  for _ = 1 to 5_000 do
    let src, dst = Prng.sample_distinct_pair rng (Graph.node_count g) in
    ignore (Drcomm.admit ~want_indirect:false ~want_report:false service ~src ~dst ~qos)
  done;
  net

(* The backup admission test on its own: multiplexed pool queries on
   the loaded paper network, over a fixed set of 256 (link,
   primary-edge array) pairs.  The arrays are the edges of primary
   routes and the links lie off them, as the disjoint flood asks.  One
   run is one pass over the set: a single query takes tens of
   nanoseconds, below what one timed call resolves. *)
let bench_backup_pool_query obs =
  let g = Lazy.force paper_graph in
  let rng = Prng.create 8 in
  let net = loaded_paper_network obs rng in
  let cases = ref [] in
  while List.length !cases < 256 do
    let src, dst = Prng.sample_distinct_pair rng (Graph.node_count g) in
    let route = Flooding.primary_route net (Flooding.request ~src ~dst ~floor:100 ()) in
    let dl = Prng.int rng (Net_state.link_count net) in
    match route with
    | Some p when not (List.mem (Dirlink.edge dl) p.Paths.edges) ->
      cases := (Net_state.link net dl, Array.of_list p.Paths.edges) :: !cases
    | _ -> ()
  done;
  let cases = Array.of_list !cases in
  Staged.stage (fun () ->
      Array.iter
        (fun (l, primary_edges) ->
          ignore (Link_state.backup_pool_with l ~b_min:100 ~primary_edges))
        cases)

(* The backup search where the pools hold demand: cycles over 64 fixed
   (request, primary edges) pairs on the loaded paper network, so the
   disjoint flood reads per-edge demands wherever the pool's bound does
   not decide a link (the empty network of "backup route search" never
   reads one). *)
let bench_backup_route_loaded obs =
  let g = Lazy.force paper_graph in
  let rng = Prng.create 10 in
  let net = loaded_paper_network obs rng in
  let cases =
    Array.init 64 (fun _ ->
        let rec draw () =
          let src, dst = Prng.sample_distinct_pair rng (Graph.node_count g) in
          let req = Flooding.request ~src ~dst ~floor:100 () in
          match Flooding.primary_route net req with
          | Some p -> (req, p.Paths.edges)
          | None -> draw ()
        in
        draw ())
  in
  let i = ref 0 in
  Staged.stage (fun () ->
      let req, primary_edges = cases.(!i) in
      i := (!i + 1) mod Array.length cases;
      ignore (Flooding.backup_route net req ~primary_edges))

(* One water-filling flush of equal-share over 4 000 synthetic
   candidates.  Each grant takes one unit from 4 of 400 shared counters
   (the links of a path, one from each quarter), which start with room
   for 1 to 10 grants per candidate using them; the ceiling is 8 extra
   levels.  A run first resets every level and counter (a fill of
   4 000 ints and a blit of 400), and the reset is part of the time. *)
let bench_water_fill () =
  let rng = Prng.create 9 in
  let n = 4_000 and links = 400 and ceiling = 8 in
  let uses = Array.init n (fun _ -> Array.init 4 (fun q -> (q * 100) + Prng.int rng 100)) in
  let room = Array.init links (fun _ -> 40 * (1 + Prng.int rng 10)) in
  let level = Array.make n 0 and counters = Array.make links 0 in
  let env =
    {
      Policy.claim = (fun i -> { Policy.utility = 1.; extras_granted = level.(i) });
      can_upgrade =
        (fun i -> level.(i) < ceiling && Array.for_all (fun c -> counters.(c) > 0) uses.(i));
      grant =
        (fun i ->
          level.(i) <- level.(i) + 1;
          Array.iter (fun c -> counters.(c) <- counters.(c) - 1) uses.(i));
      tie = Int.compare;
    }
  in
  let candidates = List.init n Fun.id in
  Staged.stage (fun () ->
      Array.fill level 0 n 0;
      Array.blit room 0 counters 0 links;
      Policy.equal_share.Policy.run env candidates)

(* Built when the micro bench runs, not at start-up: the fallback case
   loads 20 000 connections.  The services and the Markov solve record
   into the bench's context [obs]. *)
let tests obs =
  [
    Test.make ~name:"flooding primary route (fig2-4 inner loop)" (bench_flooding ());
    Test.make ~name:"backup route search" (bench_backup_route ());
    Test.make ~name:"backup route fallback (loaded transit-stub)"
      (bench_backup_fallback obs);
    Test.make ~name:"backup pool query x256 (loaded paper network)"
      (bench_backup_pool_query obs);
    Test.make ~name:"backup route search (loaded paper network)"
      (bench_backup_route_loaded obs);
    Test.make ~name:"water-fill rounds (equal-share, 4000 candidates)"
      (bench_water_fill ());
    Test.make ~name:"DR admission + termination" (bench_admission obs);
    Test.make ~name:"9-state Markov solve (table1/fig2)" (bench_markov_solve obs);
    Test.make ~name:"100-node Waxman generation" (bench_waxman ());
  ]

let run scale =
  Exp.with_record "micro" scale @@ fun obs ->
  Exp.section "Micro-benchmarks (bechamel)";
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let instances = [ Instance.monotonic_clock ] in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"micro" (tests obs)) in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name result acc ->
        let time_ns =
          match Analyze.OLS.estimates result with
          | Some [ est ] -> est
          | _ -> nan
        in
        (name, time_ns) :: acc)
      results []
    |> List.sort compare
    |> List.map (fun (name, ns) ->
           let pretty =
             if Float.is_nan ns then "n/a"
             else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
             else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
             else Printf.sprintf "%.0f ns" ns
           in
           [ name; pretty ])
  in
  Exp.table ~export:"micro" ~header:[ "operation"; "time/run" ] ~rows ()
