(* End-to-end tests of the experiment runner.  Configurations are kept
   small so the whole file runs in seconds; the paper-scale sweeps live in
   bench/. *)

(* Small topology with 2 Mbps links so that a few hundred connections
   already contend (20 floors per link). *)
let tiny ?(offered = 120) ?(nodes = 30) ?(gamma = 0.) ?(seed = 3) () =
  {
    Scenario.default with
    Scenario.topology = Scenario.Waxman (Waxman.spec ~nodes ~alpha:0.5 ~beta:0.3 ());
    capacity = Bandwidth.mbps 2;
    offered;
    gamma;
    warmup_events = 50;
    churn_events = 200;
    seed;
  }

let in_qos_range x = x >= 100. -. 1e-6 && x <= 500. +. 1e-6

let test_runs_and_is_sane () =
  let r = Scenario.run (tiny ()) in
  Alcotest.(check bool) "carried within offered" true
    (r.Scenario.carried_initial <= r.Scenario.offered);
  Alcotest.(check bool) "sim avg within QoS range" true
    (in_qos_range r.Scenario.sim_avg_bandwidth);
  Alcotest.(check bool) "model avg within QoS range" true
    (in_qos_range r.Scenario.model_avg_bandwidth);
  Alcotest.(check bool) "ideal positive" true (r.Scenario.ideal_avg_bandwidth > 0.);
  Alcotest.(check bool) "hops positive" true (r.Scenario.avg_hops > 0.);
  let dist_total = Array.fold_left ( +. ) 0. r.Scenario.channel_bandwidth_dist in
  Alcotest.check (Alcotest.float 1e-6) "distribution normalised" 1. dist_total;
  Alcotest.(check int) "9 levels" 9 (Array.length r.Scenario.channel_bandwidth_dist)

let test_deterministic_in_seed () =
  let r1 = Scenario.run (tiny ()) in
  let r2 = Scenario.run (tiny ()) in
  Alcotest.(check int) "same carried" r1.Scenario.carried_initial
    r2.Scenario.carried_initial;
  Alcotest.check (Alcotest.float 1e-12) "same sim average" r1.Scenario.sim_avg_bandwidth
    r2.Scenario.sim_avg_bandwidth;
  Alcotest.check (Alcotest.float 1e-12) "same model average"
    r1.Scenario.model_avg_bandwidth r2.Scenario.model_avg_bandwidth

let test_seed_changes_result () =
  let r1 = Scenario.run (tiny ~seed:3 ()) in
  let r2 = Scenario.run (tiny ~seed:4 ()) in
  Alcotest.(check bool) "different topology or trajectory" true
    (r1.Scenario.sim_avg_bandwidth <> r2.Scenario.sim_avg_bandwidth)

let test_load_monotonicity () =
  (* More offered connections -> lower average bandwidth (Fig. 2's core
     shape). *)
  let light = Scenario.run (tiny ~offered:40 ()) in
  let heavy = Scenario.run (tiny ~offered:400 ()) in
  Alcotest.(check bool)
    (Printf.sprintf "light %.0f > heavy %.0f" light.Scenario.sim_avg_bandwidth
       heavy.Scenario.sim_avg_bandwidth)
    true
    (light.Scenario.sim_avg_bandwidth > heavy.Scenario.sim_avg_bandwidth);
  (* And the analytic model must agree on the direction. *)
  Alcotest.(check bool) "model agrees" true
    (light.Scenario.model_avg_bandwidth > heavy.Scenario.model_avg_bandwidth)

let test_light_load_sits_at_ceiling () =
  let r = Scenario.run (tiny ~offered:10 ()) in
  Alcotest.(check bool) "sim at ceiling" true (r.Scenario.sim_avg_bandwidth > 480.);
  Alcotest.(check bool) "model at ceiling" true (r.Scenario.model_avg_bandwidth > 480.)

let test_failures_injected_and_survived () =
  let r = Scenario.run (tiny ~gamma:0.0005 ()) in
  Alcotest.(check bool) "some failures happened" true (r.Scenario.failures_injected > 0);
  (* The service must keep running and the measurement stay in range. *)
  Alcotest.(check bool) "avg still sane" true (in_qos_range r.Scenario.sim_avg_bandwidth)

let test_transit_stub_topology_runs () =
  let cfg =
    {
      (tiny ~offered:150 ()) with
      Scenario.topology = Scenario.Transit_stub Transit_stub.paper_spec;
    }
  in
  let r = Scenario.run cfg in
  (* The tiered core saturates early: rejections are the expected
     signature (Table 1's "Tier" column). *)
  Alcotest.(check bool) "ran" true (r.Scenario.carried_initial > 0);
  Alcotest.(check int) "offered preserved" 150 r.Scenario.offered

let test_fixed_topology () =
  let g = Waxman.generate (Prng.create 77) (Waxman.spec ~nodes:20 ~alpha:0.5 ~beta:0.3 ()) in
  let cfg = { (tiny ~offered:30 ()) with Scenario.topology = Scenario.Fixed g } in
  let r = Scenario.run cfg in
  Alcotest.(check int) "same graph" (Graph.edge_count g)
    (Graph.edge_count r.Scenario.graph)

let test_increment_size_insensitivity () =
  (* Table 1's claim: 5-state and 9-state chains give nearly the same
     average. *)
  let base = tiny ~offered:200 () in
  let r50 = Scenario.run { base with Scenario.qos = Qos.paper_spec ~increment:50 } in
  let r100 = Scenario.run { base with Scenario.qos = Qos.paper_spec ~increment:100 } in
  let gap = Float.abs (r50.Scenario.sim_avg_bandwidth -. r100.Scenario.sim_avg_bandwidth) in
  Alcotest.(check bool)
    (Printf.sprintf "within 12%% (gap %.1f)" gap)
    true
    (gap < 0.12 *. r50.Scenario.sim_avg_bandwidth)

let test_multi_backup_scenario () =
  let cfg =
    {
      (tiny ~offered:100 ~gamma:0.0005 ()) with
      Scenario.service = Drcomm.Config.make ~backups_per_connection:2 ();
    }
  in
  let r = Scenario.run cfg in
  Alcotest.(check bool) "ran with failures" true (r.Scenario.failures_injected > 0);
  Alcotest.(check bool) "in range" true (in_qos_range r.Scenario.sim_avg_bandwidth)

let test_restoration_scenario () =
  let cfg =
    {
      (tiny ~offered:150 ~gamma:0.001 ()) with
      Scenario.service =
        Drcomm.Config.make ~with_backups:false ~require_backup:false
          ~restore_on_failure:true ();
    }
  in
  let r = Scenario.run cfg in
  Alcotest.(check bool) "restorations happened" true (r.Scenario.restored_from_scratch > 0);
  Alcotest.(check int) "no backup switches" 0 r.Scenario.recovered_by_backup

let test_sequential_route_search_scenario () =
  let flood = Scenario.run (tiny ~offered:150 ()) in
  let seq =
    Scenario.run
      {
        (tiny ~offered:150 ()) with
        Scenario.service = Drcomm.Config.make ~route_search:(`Sequential 8) ();
      }
  in
  (* Both strategies must carry comparable populations at light load. *)
  Alcotest.(check bool)
    (Printf.sprintf "flooding %d vs sequential %d" flood.Scenario.carried_initial
       seq.Scenario.carried_initial)
    true
    (abs (flood.Scenario.carried_initial - seq.Scenario.carried_initial) < 15)

let test_pf_estimators_agree () =
  (* Property (fuzzer satellite): the two P_f estimators — the
     event-triggered one and the per-termination one — measure the same
     quantity and must agree closely when arrivals and departures are
     balanced (lambda = mu).  Measured gap over seeds 1..8 is < 5e-4;
     0.005 leaves an order of magnitude of slack without admitting a
     real divergence. *)
  List.iter
    (fun seed ->
      let cfg =
        {
          (tiny ~offered:200 ~seed ()) with
          Scenario.lambda = 0.001;
          mu = 0.001;
          warmup_events = 100;
          churn_events = 1500;
        }
      in
      let r = Scenario.run cfg in
      let e = r.Scenario.estimator in
      let pf = Estimator.p_f e and pft = Estimator.p_f_termination e in
      Alcotest.(check bool) (Printf.sprintf "seed %d: non-vacuous (p_f %.4f)" seed pf)
        true (pf > 0.);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: p_f %.4f vs p_f_termination %.4f" seed pf pft)
        true
        (Float.abs (pf -. pft) < 0.005))
    [ 1; 2; 3 ]

let test_rate_validation () =
  Alcotest.check_raises "bad lambda"
    (Invalid_argument "Scenario.run: lambda and mu must be positive") (fun () ->
      ignore (Scenario.run { (tiny ()) with Scenario.lambda = 0. }))

let test_single_value_qos_scenario () =
  (* The inelastic baseline: channels never leave their floor, so the
     simulated average equals b_min when floors are all that is granted. *)
  let cfg = { (tiny ~offered:150 ()) with Scenario.qos = Qos.single_value 100 } in
  let r = Scenario.run cfg in
  Alcotest.check (Alcotest.float 1e-6) "pinned to floor" 100.
    r.Scenario.sim_avg_bandwidth

let test_replications_summary () =
  let cfg = { (tiny ~offered:80 ()) with Scenario.churn_events = 80; warmup_events = 20 } in
  let results, s = Scenario.run_replications ~seeds:[ 1; 2; 3 ] cfg in
  Alcotest.(check int) "runs" 3 s.Scenario.runs;
  Alcotest.(check int) "one result per seed" 3 (List.length results);
  Alcotest.(check (list int)) "results in seed order" [ 1; 2; 3 ]
    (List.map (fun r -> r.Scenario.config.Scenario.seed) results);
  let lo, hi = s.Scenario.sim_ci in
  Alcotest.(check bool) "ci contains mean" true
    (lo <= s.Scenario.sim_mean && s.Scenario.sim_mean <= hi);
  Alcotest.(check bool) "mean in range" true
    (s.Scenario.sim_mean >= 100. -. 1e-6 && s.Scenario.sim_mean <= 500. +. 1e-6);
  Alcotest.(check bool) "carried positive" true (s.Scenario.carried_mean > 0.);
  (* The summary is the fold of the returned per-seed results. *)
  let mean =
    List.fold_left (fun acc r -> acc +. r.Scenario.sim_avg_bandwidth) 0. results /. 3.
  in
  Alcotest.check (Alcotest.float 1e-9) "summary folds the results" mean
    s.Scenario.sim_mean;
  (* Deterministic given the same seed list, sequential or parallel. *)
  let _, s' = Scenario.run_replications ~seeds:[ 1; 2; 3 ] ~jobs:1 cfg in
  Alcotest.check (Alcotest.float 1e-12) "deterministic" s.Scenario.sim_mean
    s'.Scenario.sim_mean;
  let _, s2 = Scenario.run_replications ~seeds:[ 1; 2; 3 ] ~jobs:3 cfg in
  Alcotest.check (Alcotest.float 1e-12) "parallel equals sequential"
    s.Scenario.sim_mean s2.Scenario.sim_mean

(* The chain's solve reports only into the context the caller passes:
   a live registry and tracer handed to [Scenario.run] receive the
   solver's counter, timer, residual gauge and one [Solve] event per
   solve, and a live context passed to nothing records nothing. *)
let test_solver_reports_to_passed_context () =
  let solves = ref 0 in
  let tracer =
    Trace.create
      {
        Trace.emit = (fun _ -> function Trace.Solve _ -> incr solves | _ -> ());
        close = ignore;
      }
  in
  let obs = Obs.create ~metrics:(Metrics.create ()) ~trace:tracer () in
  let unrelated_events = ref 0 in
  let unrelated =
    Obs.create ~metrics:(Metrics.create ())
      ~trace:(Trace.create { Trace.emit = (fun _ _ -> incr unrelated_events); close = ignore })
      ()
  in
  let names o section =
    match Jsonx.member section (Obs.metrics_json o) with
    | Some (Jsonx.Obj kvs) -> List.map fst kvs
    | _ -> []
  in
  ignore (Scenario.run ~obs (tiny ()));
  List.iter
    (fun (section, name) ->
      Alcotest.(check bool) (name ^ " recorded") true (List.mem name (names obs section)))
    [
      ("counters", "markov.stationary_solves");
      ("timers", "markov.stationary_s");
      ("gauges", "linalg.nullvector_residual");
    ];
  let m = Obs.metrics obs in
  Alcotest.(check int) "one solve counted" 1
    (Metrics.count (Metrics.counter m "markov.stationary_solves"));
  Alcotest.(check int) "one solve timed" 1
    (Metrics.timer_count (Metrics.timer m "markov.stationary_s"));
  Alcotest.(check int) "one solve event" 1 !solves;
  List.iter
    (fun section ->
      Alcotest.(check (list string)) ("unrelated " ^ section ^ " untouched") []
        (names unrelated section))
    [ "counters"; "gauges"; "hwm"; "timers" ];
  Alcotest.(check int) "unrelated tracer untouched" 0 !unrelated_events;
  (* Worker domains record into forks of the same context, merged at
     join: one solve per replication. *)
  let obs = Obs.create ~metrics:(Metrics.create ()) () in
  let cfg = { (tiny ~offered:80 ()) with Scenario.churn_events = 80; warmup_events = 20 } in
  ignore (Scenario.run_replications ~seeds:[ 1; 2 ] ~jobs:2 ~obs cfg);
  Alcotest.(check int) "one solve per replication" 2
    (Metrics.count (Metrics.counter (Obs.metrics obs) "markov.stationary_solves"))

let test_replications_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Scenario.run_replications: no seeds")
    (fun () -> ignore (Scenario.run_replications ~seeds:[] (tiny ())))

let () =
  Alcotest.run "scenario"
    [
      ( "pipeline",
        [
          Alcotest.test_case "runs and is sane" `Quick test_runs_and_is_sane;
          Alcotest.test_case "deterministic" `Quick test_deterministic_in_seed;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_changes_result;
          Alcotest.test_case "rate validation" `Quick test_rate_validation;
        ] );
      ( "paper-shapes",
        [
          Alcotest.test_case "load monotonicity" `Quick test_load_monotonicity;
          Alcotest.test_case "light load at ceiling" `Quick test_light_load_sits_at_ceiling;
          Alcotest.test_case "failures survived" `Quick test_failures_injected_and_survived;
          Alcotest.test_case "increment insensitivity" `Quick
            test_increment_size_insensitivity;
          Alcotest.test_case "single-value baseline" `Quick test_single_value_qos_scenario;
          Alcotest.test_case "p_f estimators agree" `Quick test_pf_estimators_agree;
        ] );
      ( "knobs",
        [
          Alcotest.test_case "multi-backup" `Quick test_multi_backup_scenario;
          Alcotest.test_case "restoration" `Quick test_restoration_scenario;
          Alcotest.test_case "sequential search" `Quick
            test_sequential_route_search_scenario;
        ] );
      ( "observability",
        [
          Alcotest.test_case "solver reports to the passed context" `Quick
            test_solver_reports_to_passed_context;
        ] );
      ( "replications",
        [
          Alcotest.test_case "summary aggregates" `Quick test_replications_summary;
          Alcotest.test_case "empty seeds" `Quick test_replications_validation;
        ] );
      ( "topologies",
        [
          Alcotest.test_case "transit-stub" `Quick test_transit_stub_topology_runs;
          Alcotest.test_case "fixed graph" `Quick test_fixed_topology;
        ] );
    ]
