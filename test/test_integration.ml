(* Cross-module integration tests: run real (small) simulations and check
   that the measured parameters have the structure the paper's model
   assumes, and that ablation-level effects point the right way. *)

let paper_qos = Qos.paper_spec ~increment:100 (* 5 levels: cheap runs *)

(* A loaded service on a small calibrated network plus a churn driver
   feeding an estimator. *)
let churned_estimator ~seed ~offered ~events =
  let g = Waxman.generate (Prng.create seed) (Waxman.spec ~nodes:40 ~alpha:0.5 ~beta:0.25 ()) in
  let net = Net_state.create ~capacity:(Bandwidth.mbps 2) g in
  let service = Drcomm.create net in
  let rng = Prng.create (seed + 1) in
  for _ = 1 to offered do
    let src, dst = Prng.sample_distinct_pair rng (Graph.node_count g) in
    ignore (Drcomm.admit ~want_indirect:false service ~src ~dst ~qos:paper_qos)
  done;
  let est = Estimator.create ~levels:(Qos.levels paper_qos) in
  for i = 1 to events do
    if i mod 2 = 0 then begin
      match Drcomm.active_channels service with
      | [] -> ()
      | ids ->
        Estimator.observe_termination est
          (Drcomm.terminate service (Prng.pick_list rng ids))
    end
    else begin
      let src, dst = Prng.sample_distinct_pair rng (Graph.node_count g) in
      match Drcomm.admit service ~src ~dst ~qos:paper_qos with
      | Drcomm.Admitted (_, report) -> Estimator.observe_arrival est report
      | Drcomm.Rejected _ -> ()
    end
  done;
  (service, est)

let mass_below_diagonal m =
  let n = Matrix.rows m in
  let below = ref 0. and above = ref 0. in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if j < i then below := !below +. Matrix.get m i j
      else if j > i then above := !above +. Matrix.get m i j
    done
  done;
  (!below, !above)

let test_a_matrix_is_downward () =
  (* Arrivals retreat sharing channels: the measured A matrix must be
     dominated by downward mass.  (A little upward mass is genuine: the
     retreat-and-refill reshuffle can leave a previously-squeezed channel
     better off; the paper's Fig. 1 idealises it away, and Model.build
     ignores those entries accordingly.) *)
  let _, est = churned_estimator ~seed:5 ~offered:400 ~events:400 in
  let below, above = mass_below_diagonal (Estimator.a_matrix est) in
  Alcotest.(check bool)
    (Printf.sprintf "downward %.2f >> upward %.2f" below above)
    true
    (below > 0. && above <= 0.2 *. below)

let test_t_matrix_is_upward () =
  let _, est = churned_estimator ~seed:5 ~offered:400 ~events:400 in
  let below, above = mass_below_diagonal (Estimator.t_matrix est) in
  Alcotest.(check bool)
    (Printf.sprintf "upward %.2f >> downward %.2f" above below)
    true
    (above > 0. && below <= 0.05 *. Float.max above 1e-9)

let test_b_matrix_is_upward () =
  let _, est = churned_estimator ~seed:5 ~offered:400 ~events:400 in
  let below, above = mass_below_diagonal (Estimator.b_matrix est) in
  Alcotest.(check bool)
    (Printf.sprintf "upward %.2f >= downward %.2f" above below)
    true (above >= below)

let test_pf_consistent_across_event_kinds () =
  (* In steady state the sharing probability seen by arrivals and by
     terminations must be close (both estimate the same P_f). *)
  let _, est = churned_estimator ~seed:7 ~offered:400 ~events:600 in
  let pf_a = Estimator.p_f est and pf_t = Estimator.p_f_termination est in
  Alcotest.(check bool)
    (Printf.sprintf "p_f arrivals %.4f vs terminations %.4f" pf_a pf_t)
    true
    (pf_a > 0. && pf_t > 0. && Float.abs (pf_a -. pf_t) < 0.5 *. pf_a)

let test_measured_chain_solves () =
  let service, est = churned_estimator ~seed:9 ~offered:400 ~events:400 in
  let p = Model.params_of_estimator ~lambda:0.001 ~mu:0.001 ~gamma:0. est in
  Model.validate p;
  let predicted = Model.average_bandwidth_regularized p ~qos:paper_qos in
  let simulated = Drcomm.average_bandwidth service in
  Alcotest.(check bool)
    (Printf.sprintf "model %.0f and sim %.0f both in range" predicted simulated)
    true
    (predicted >= 100. && predicted <= 500. && simulated >= 100.
   && simulated <= 500.)

let test_failure_matrix_downward () =
  let g = Waxman.generate (Prng.create 12) (Waxman.spec ~nodes:40 ~alpha:0.5 ~beta:0.25 ()) in
  let net = Net_state.create ~capacity:(Bandwidth.mbps 2) g in
  let service = Drcomm.create net in
  let rng = Prng.create 13 in
  for _ = 1 to 300 do
    let src, dst = Prng.sample_distinct_pair rng (Graph.node_count g) in
    ignore (Drcomm.admit ~want_indirect:false service ~src ~dst ~qos:paper_qos)
  done;
  let est = Estimator.create ~levels:(Qos.levels paper_qos) in
  for _ = 1 to 60 do
    let e = Prng.int rng (Graph.edge_count g) in
    let r = Drcomm.fail_edge service e in
    Estimator.observe_failure est r.Drcomm.event;
    Drcomm.repair_edge service e
  done;
  Alcotest.(check int) "failures recorded" 60 (Estimator.failures est);
  let below, above = mass_below_diagonal (Estimator.f_matrix est) in
  Alcotest.(check bool)
    (Printf.sprintf "failure transitions downward (%.2f vs %.2f)" below above)
    true (below >= above);
  Drcomm.check_invariants service

let test_multiplexing_carries_more () =
  (* Ablation A as an invariant: with tight links, multiplexed pools admit
     at least as many DR-connections as dedicated pools. *)
  let carried multiplexing =
    let g = Waxman.generate (Prng.create 21) (Waxman.spec ~nodes:40 ~alpha:0.5 ~beta:0.25 ()) in
    let net = Net_state.create ~multiplexing ~capacity:(Bandwidth.kbps 800) g in
    let service = Drcomm.create net in
    let rng = Prng.create 22 in
    let ok = ref 0 in
    for _ = 1 to 400 do
      let src, dst = Prng.sample_distinct_pair rng (Graph.node_count g) in
      match Drcomm.admit ~want_indirect:false service ~src ~dst ~qos:paper_qos with
      | Drcomm.Admitted _ -> incr ok
      | Drcomm.Rejected _ -> ()
    done;
    !ok
  in
  let muxed = carried true and dedicated = carried false in
  Alcotest.(check bool)
    (Printf.sprintf "multiplexed %d > dedicated %d" muxed dedicated)
    true (muxed > dedicated)

let test_heavier_failures_do_not_raise_average () =
  let base =
    {
      Scenario.default with
      Scenario.topology = Scenario.Waxman (Waxman.spec ~nodes:30 ~alpha:0.5 ~beta:0.3 ());
      capacity = Bandwidth.mbps 2;
      offered = 250;
      warmup_events = 50;
      churn_events = 250;
      seed = 31;
    }
  in
  let calm = Scenario.run { base with Scenario.gamma = 0. } in
  let stormy = Scenario.run { base with Scenario.gamma = 0.002 } in
  Alcotest.(check bool) "storm injected failures" true
    (stormy.Scenario.failures_injected > 0);
  Alcotest.(check bool)
    (Printf.sprintf "stormy %.0f <= calm %.0f + slack" stormy.Scenario.sim_avg_bandwidth
       calm.Scenario.sim_avg_bandwidth)
    true
    (stormy.Scenario.sim_avg_bandwidth
    <= calm.Scenario.sim_avg_bandwidth +. 25.)

let test_full_pipeline_with_policies () =
  (* The scenario runner must work under every policy. *)
  List.iter
    (fun policy ->
      let cfg =
        {
          Scenario.default with
          Scenario.topology =
            Scenario.Waxman (Waxman.spec ~nodes:25 ~alpha:0.5 ~beta:0.3 ());
          capacity = Bandwidth.mbps 2;
          service = Drcomm.Config.make ~policy ();
          offered = 150;
          warmup_events = 30;
          churn_events = 120;
          seed = 41;
        }
      in
      let r = Scenario.run cfg in
      Alcotest.(check bool)
        (Format.asprintf "%a in range" Policy.pp policy)
        true
        (r.Scenario.sim_avg_bandwidth >= 100. -. 1e-6
        && r.Scenario.sim_avg_bandwidth <= 500. +. 1e-6))
    Policy.all

let test_regular_topology_pf_analytic () =
  (* §3.3: on a regular topology the chaining probability follows from
     the structure alone.  Measure P_f on a torus and compare with the
     uniform-usage closed form. *)
  let rows = 8 and cols = 8 in
  let g = Torus.generate ~rows ~cols in
  let net = Net_state.create ~capacity:(Bandwidth.mbps 10) g in
  let service = Drcomm.create net in
  let rng = Prng.create 17 in
  for _ = 1 to 300 do
    let src, dst = Prng.sample_distinct_pair rng (Graph.node_count g) in
    ignore (Drcomm.admit ~want_indirect:false service ~src ~dst ~qos:paper_qos)
  done;
  let est = Estimator.create ~levels:(Qos.levels paper_qos) in
  for i = 1 to 600 do
    if i mod 2 = 0 then begin
      match Drcomm.active_channels service with
      | [] -> ()
      | ids ->
        Estimator.observe_termination est
          (Drcomm.terminate service (Prng.pick_list rng ids))
    end
    else begin
      let src, dst = Prng.sample_distinct_pair rng (Graph.node_count g) in
      match Drcomm.admit service ~src ~dst ~qos:paper_qos with
      | Drcomm.Admitted (_, report) -> Estimator.observe_arrival est report
      | Drcomm.Rejected _ -> ()
    end
  done;
  let measured = Estimator.p_f est in
  let predicted =
    Torus.estimate_p_f ~rows ~cols ~avg_hops:(Torus.average_hops ~rows ~cols)
  in
  Alcotest.(check bool)
    (Printf.sprintf "measured %.4f within 2x of analytic %.4f" measured predicted)
    true
    (measured > predicted /. 2. && measured < predicted *. 2.)

let () =
  Alcotest.run "integration"
    [
      ( "measured-structure",
        [
          Alcotest.test_case "A is downward" `Quick test_a_matrix_is_downward;
          Alcotest.test_case "T is upward" `Quick test_t_matrix_is_upward;
          Alcotest.test_case "B is upward" `Quick test_b_matrix_is_upward;
          Alcotest.test_case "P_f consistent" `Quick test_pf_consistent_across_event_kinds;
          Alcotest.test_case "measured chain solves" `Quick test_measured_chain_solves;
          Alcotest.test_case "F is downward" `Quick test_failure_matrix_downward;
          Alcotest.test_case "regular-topology P_f analytic" `Quick
            test_regular_topology_pf_analytic;
        ] );
      ( "effects",
        [
          Alcotest.test_case "multiplexing carries more" `Quick
            test_multiplexing_carries_more;
          Alcotest.test_case "failures don't help" `Quick
            test_heavier_failures_do_not_raise_average;
          Alcotest.test_case "all policies run" `Quick test_full_pipeline_with_policies;
        ] );
    ]
