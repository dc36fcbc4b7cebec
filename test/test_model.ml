(* Tests for the paper's Markov model, the parameter estimator and the
   ideal-bandwidth formula. *)

let approx = Alcotest.float 1e-9
let loose = Alcotest.float 1e-6

let qos3 = Qos.make ~b_min:100 ~b_max:300 ~increment:100 () (* 3 levels *)

(* A hand-built 3-level parameter set:
   - arrivals knock every upper level straight to 0 (A row i: -> 0),
   - indirect arrivals lift 0 -> 1 (B),
   - terminations lift i -> i+1 (T). *)
let params ?(lambda = 1.) ?(mu = 1.) ?(gamma = 0.) ?(p_f = 0.5) ?(p_s = 0.25) () =
  {
    Model.lambda;
    mu;
    gamma;
    p_f;
    p_s;
    a = Matrix.of_arrays [| [| 1.; 0.; 0. |]; [| 1.; 0.; 0. |]; [| 1.; 0.; 0. |] |];
    b = Matrix.of_arrays [| [| 0.; 1.; 0. |]; [| 0.; 1.; 0. |]; [| 0.; 0.; 1. |] |];
    t_mat = Matrix.of_arrays [| [| 0.; 1.; 0. |]; [| 0.; 0.; 1. |]; [| 0.; 0.; 1. |] |];
  }

(* The paper's average bandwidth on the unregularised chain. *)
let average_bandwidth p ~qos =
  Ctmc.mean_reward (Model.build p) (fun i -> float_of_int (Qos.bandwidth_of_level qos i))

let test_build_rates_match_figure1 () =
  let p = params () in
  let c = Model.build p in
  (* Downward 1 -> 0: P_f * A_10 * (lambda + gamma) = 0.5 * 1 * 1. *)
  Alcotest.check approx "down 1->0" 0.5 (Ctmc.rate c ~src:1 ~dst:0);
  Alcotest.check approx "down 2->0" 0.5 (Ctmc.rate c ~src:2 ~dst:0);
  (* Upward 0 -> 1: P_s * B_01 * lambda + P_f * T_01 * mu
     = 0.25 + 0.5 = 0.75. *)
  Alcotest.check approx "up 0->1" 0.75 (Ctmc.rate c ~src:0 ~dst:1);
  (* Upward 1 -> 2 comes only from T (B_12 = 0 in row 1): 0.5. *)
  Alcotest.check approx "up 1->2" 0.5 (Ctmc.rate c ~src:1 ~dst:2);
  Alcotest.check approx "no 2->1" 0. (Ctmc.rate c ~src:2 ~dst:1)

let test_gamma_adds_downward_pressure () =
  let without = average_bandwidth (params ()) ~qos:qos3 in
  let with_failures = average_bandwidth (params ~gamma:2. ()) ~qos:qos3 in
  Alcotest.(check bool)
    (Printf.sprintf "failures reduce average (%.1f -> %.1f)" without with_failures)
    true
    (with_failures < without)

let test_upward_triangle_of_a_ignored () =
  (* Planting an upward entry in A must not create an upward rate. *)
  let p = params () in
  let a = Matrix.of_arrays [| [| 0.5; 0.5; 0. |]; [| 1.; 0.; 0. |]; [| 1.; 0.; 0. |] |] in
  let c = Model.build { p with Model.a } in
  Alcotest.check approx "A upward ignored" 0.75 (Ctmc.rate c ~src:0 ~dst:1)

let test_average_bandwidth_in_range () =
  let avg = average_bandwidth (params ()) ~qos:qos3 in
  Alcotest.(check bool) "within [100, 300]" true (avg >= 100. && avg <= 300.)

let test_more_contention_lower_average () =
  let light = average_bandwidth (params ~p_f:0.05 ~p_s:0.05 ()) ~qos:qos3 in
  let heavy = average_bandwidth (params ~p_f:0.9 ~p_s:0.05 ()) ~qos:qos3 in
  Alcotest.(check bool)
    (Printf.sprintf "p_f up, average down (%.1f vs %.1f)" light heavy)
    true (heavy < light)

let test_validate_rejects () =
  let p = params () in
  Alcotest.check_raises "bad p_f"
    (Invalid_argument "Model.validate: p_f = 1.5 outside [0, 1]") (fun () ->
      Model.validate { p with Model.p_f = 1.5 });
  Alcotest.check_raises "negative rate"
    (Invalid_argument "Model.validate: bad lambda rate -1") (fun () ->
      Model.validate { p with Model.lambda = -1. });
  (* A defines the chain's dimension, so plant the mismatch in B. *)
  let bad_matrix = Matrix.of_arrays [| [| 1. |] |] in
  Alcotest.check_raises "wrong dims"
    (Invalid_argument "Model.validate: B has wrong dimensions") (fun () ->
      Model.validate { p with Model.b = bad_matrix })

let test_average_bandwidth_levels_mismatch () =
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Model.average_bandwidth_regularized: QoS levels mismatch")
    (fun () ->
      ignore
        (Model.average_bandwidth_regularized (params ())
           ~qos:(Qos.paper_spec ~increment:50)))

let test_degenerate_chain_regularised_to_ceiling () =
  (* All-identity matrices: no transitions observed (uncontended network).
     The plain chain is singular; the regularised one concentrates at the
     top level. *)
  let p =
    {
      Model.lambda = 1.;
      mu = 1.;
      gamma = 0.;
      p_f = 0.;
      p_s = 0.;
      a = Matrix.identity 3;
      b = Matrix.identity 3;
      t_mat = Matrix.identity 3;
    }
  in
  Alcotest.check_raises "singular" Linsolve.Singular (fun () ->
      ignore (Ctmc.stationary (Model.build p)));
  let avg = Model.average_bandwidth_regularized p ~qos:qos3 in
  Alcotest.check (Alcotest.float 0.5) "ceiling" 300. avg

let test_regularisation_negligible_when_rates_exist () =
  let p = params () in
  let plain = average_bandwidth p ~qos:qos3 in
  let reg = Model.average_bandwidth_regularized p ~qos:qos3 in
  Alcotest.check loose "negligible perturbation" plain reg

let test_sensitivity_signs () =
  let p = params () in
  (* More failures or more contention cost bandwidth; more terminations
     (upward pressure) gain it. *)
  Alcotest.(check bool) "gamma hurts" true (Model.sensitivity p ~qos:qos3 `Gamma < 0.);
  Alcotest.(check bool) "p_f hurts" true (Model.sensitivity p ~qos:qos3 `P_f < 0.);
  Alcotest.(check bool) "mu helps" true (Model.sensitivity p ~qos:qos3 `Mu > 0.);
  Alcotest.(check bool) "p_s helps" true (Model.sensitivity p ~qos:qos3 `P_s > 0.)

let test_sensitivity_matches_secant () =
  let p = params () in
  let d = Model.sensitivity p ~qos:qos3 `Gamma in
  let f g = Model.average_bandwidth_regularized { p with Model.gamma = g } ~qos:qos3 in
  let secant = (f 0.1 -. f 0.) /. 0.1 in
  (* The local derivative and a coarse secant agree in sign and rough
     magnitude on this smooth chain. *)
  Alcotest.(check bool)
    (Printf.sprintf "derivative %.2f vs secant %.2f" d secant)
    true
    (d < 0. && secant < 0. && Float.abs (d -. secant) < Float.abs d)

(* --- Estimator --- *)

let report ~existing ~direct ~indirect transitions =
  { Drcomm.existing; direct_count = direct; indirect_count = indirect; transitions }

(* The estimator never inspects channel identity — it only tallies level
   transitions — but the report type carries opaque handles, so mint a
   pool of real ones once and index into it. *)
let handles =
  let g = Graph.create 2 in
  ignore (Graph.add_edge g 0 1);
  let cfg = Drcomm.Config.make ~backups_per_connection:0 () in
  let t = Drcomm.create ~config:cfg (Net_state.create ~capacity:10_000 g) in
  Array.init 8 (fun _ ->
      match Drcomm.admit t ~src:0 ~dst:1 ~qos:(Qos.single_value 10) with
      | Drcomm.Admitted (id, _) -> id
      | Drcomm.Rejected _ -> assert false)

let tr channel before after chained =
  { Drcomm.channel = handles.(channel); before; after; chained }

let test_estimator_counts_and_probabilities () =
  let est = Estimator.create ~levels:3 in
  Estimator.observe_arrival est
    (report ~existing:10 ~direct:2 ~indirect:3
       [ tr 1 2 0 `Direct; tr 2 1 1 `Direct; tr 3 0 1 `Indirect ]);
  Estimator.observe_arrival est (report ~existing:10 ~direct:3 ~indirect:1 []);
  Alcotest.(check int) "arrivals" 2 (Estimator.arrivals est);
  Alcotest.check approx "p_f = 5/20" 0.25 (Estimator.p_f est);
  Alcotest.check approx "p_s = 4/20" 0.2 (Estimator.p_s est)

let test_estimator_matrices_row_stochastic () =
  let est = Estimator.create ~levels:3 in
  Estimator.observe_arrival est
    (report ~existing:5 ~direct:3 ~indirect:0
       [ tr 1 2 0 `Direct; tr 2 2 1 `Direct; tr 3 2 2 `Direct ]);
  let a = Estimator.a_matrix est in
  Dtmc.validate a;
  Alcotest.check approx "a[2][0]" (1. /. 3.) (Matrix.get a 2 0);
  Alcotest.check approx "a[2][1]" (1. /. 3.) (Matrix.get a 2 1);
  Alcotest.check approx "a[2][2]" (1. /. 3.) (Matrix.get a 2 2);
  (* Unobserved rows are identity. *)
  Alcotest.check approx "a[0][0]" 1. (Matrix.get a 0 0);
  Alcotest.(check int) "row count" 3 (Estimator.a_row_count est 2);
  Alcotest.(check int) "row 0 empty" 0 (Estimator.a_row_count est 0)

let test_estimator_separates_event_kinds () =
  let est = Estimator.create ~levels:2 in
  Estimator.observe_arrival est
    (report ~existing:2 ~direct:1 ~indirect:1 [ tr 1 1 0 `Direct; tr 2 0 1 `Indirect ]);
  Estimator.observe_termination est
    (report ~existing:2 ~direct:1 ~indirect:0 [ tr 1 0 1 `Direct ]);
  Estimator.observe_failure est
    (report ~existing:2 ~direct:1 ~indirect:0 [ tr 2 1 0 `Direct ]);
  (* A has the arrival direct transition only. *)
  Alcotest.check approx "A" 1. (Matrix.get (Estimator.a_matrix est) 1 0);
  Alcotest.check approx "B" 1. (Matrix.get (Estimator.b_matrix est) 0 1);
  Alcotest.check approx "T" 1. (Matrix.get (Estimator.t_matrix est) 0 1);
  Alcotest.check approx "F" 1. (Matrix.get (Estimator.f_matrix est) 1 0);
  (* And F did not leak into A: row 1 of A has only the observed 1->0. *)
  Alcotest.(check int) "one A obs in row 1" 1 (Estimator.a_row_count est 1);
  Alcotest.check approx "p_f termination side" 0.5 (Estimator.p_f_termination est)

let test_estimator_level_out_of_range () =
  let est = Estimator.create ~levels:2 in
  Alcotest.check_raises "range" (Invalid_argument "Estimator: level out of range")
    (fun () ->
      Estimator.observe_arrival est
        (report ~existing:1 ~direct:1 ~indirect:0 [ tr 1 5 0 `Direct ]))

let test_estimator_adaptation_counts () =
  let est = Estimator.create ~levels:3 in
  Estimator.observe_arrival est
    (report ~existing:3 ~direct:2 ~indirect:0
       [ tr 1 2 0 `Direct; tr 2 1 1 `Direct (* unchanged *) ]);
  Estimator.observe_termination est
    (report ~existing:3 ~direct:1 ~indirect:0 [ tr 1 0 2 `Direct ]);
  Alcotest.(check int) "two level changes" 2 (Estimator.adaptations est);
  Alcotest.check approx "per event" 1. (Estimator.adaptation_rate est)

let test_params_of_estimator_roundtrip () =
  let est = Estimator.create ~levels:2 in
  Estimator.observe_arrival est
    (report ~existing:4 ~direct:2 ~indirect:1 [ tr 1 1 0 `Direct; tr 2 0 1 `Indirect ]);
  Estimator.observe_termination est
    (report ~existing:4 ~direct:1 ~indirect:0 [ tr 1 0 1 `Direct ]);
  let p = Model.params_of_estimator ~lambda:0.7 ~mu:0.7 ~gamma:0.1 est in
  Model.validate p;
  Alcotest.check approx "p_f copied" 0.5 p.Model.p_f;
  Alcotest.check approx "lambda" 0.7 p.Model.lambda;
  let avg = Model.average_bandwidth_regularized p ~qos:(Qos.make ~b_min:100 ~b_max:200 ~increment:100 ()) in
  Alcotest.(check bool) "solvable" true (avg >= 100. && avg <= 200.)

(* --- Ideal --- *)

let test_ideal_formula () =
  (* 10 Mbps * 354 links / (1000 channels * 4 hops) = 885. *)
  Alcotest.check approx "raw" 885.
    (Ideal.bandwidth ~link_bandwidth:10_000 ~links:354 ~channels:1000 ~avg_hops:4.);
  let qos = Qos.paper_spec ~increment:50 in
  Alcotest.check approx "capped above" 500.
    (Ideal.bandwidth_capped ~qos ~link_bandwidth:10_000 ~links:354 ~channels:1000
       ~avg_hops:4.);
  Alcotest.check approx "capped below" 100.
    (Ideal.bandwidth_capped ~qos ~link_bandwidth:10_000 ~links:354 ~channels:100_000
       ~avg_hops:4.)

let test_ideal_monotone_in_load () =
  let at channels =
    Ideal.bandwidth ~link_bandwidth:10_000 ~links:354 ~channels ~avg_hops:3.9
  in
  Alcotest.(check bool) "decreasing" true (at 1000 > at 2000 && at 2000 > at 5000)

let test_ideal_of_graph () =
  let g = Graph.create 3 in
  ignore (Graph.add_edge g 0 1);
  ignore (Graph.add_edge g 1 2);
  (* 4 directed links, avg hops = (1+1+1+1+2+2)/6 = 4/3. *)
  Alcotest.check loose "of_graph" (10_000. *. 4. /. (3. *. (4. /. 3.)))
    (Ideal.of_graph g ~channels:3)

let test_ideal_validation () =
  Alcotest.check_raises "channels" (Invalid_argument "Ideal.bandwidth: non-positive channel count")
    (fun () ->
      ignore (Ideal.bandwidth ~link_bandwidth:10 ~links:10 ~channels:0 ~avg_hops:1.))

(* Property: the chain solution is a genuine distribution and the average
   stays within the QoS range, for random stochastic matrices. *)
let random_stochastic rng n =
  let m = Matrix.create n n in
  for i = 0 to n - 1 do
    let row = Array.init n (fun _ -> Prng.float rng 1.) in
    let total = Array.fold_left ( +. ) 0. row in
    Array.iteri (fun j x -> Matrix.set m i j (x /. total)) row
  done;
  m

let qcheck_model_average_in_range =
  QCheck.Test.make ~name:"model average within QoS range" ~count:200 QCheck.small_int
    (fun seed ->
      let rng = Prng.create seed in
      let qos = Qos.make ~b_min:100 ~b_max:500 ~increment:100 () in
      let n = Qos.levels qos in
      let p =
        {
          Model.lambda = 0.5 +. Prng.float rng 2.;
          mu = 0.5 +. Prng.float rng 2.;
          gamma = Prng.float rng 0.5;
          p_f = 0.05 +. Prng.float rng 0.5;
          p_s = 0.05 +. Prng.float rng 0.4;
          a = random_stochastic rng n;
          b = random_stochastic rng n;
          t_mat = random_stochastic rng n;
        }
      in
      let pi = Ctmc.stationary (Model.build_regularized p) in
      let total = Array.fold_left ( +. ) 0. pi in
      let avg = Model.average_bandwidth_regularized p ~qos in
      Float.abs (total -. 1.) < 1e-9
      && Array.for_all (fun x -> x >= -1e-12) pi
      && avg >= 100. && avg <= 500.)

let () =
  Alcotest.run "model"
    [
      ( "chain",
        [
          Alcotest.test_case "figure 1 rates" `Quick test_build_rates_match_figure1;
          Alcotest.test_case "gamma pressure" `Quick test_gamma_adds_downward_pressure;
          Alcotest.test_case "upward A ignored" `Quick test_upward_triangle_of_a_ignored;
          Alcotest.test_case "average in range" `Quick test_average_bandwidth_in_range;
          Alcotest.test_case "contention monotone" `Quick test_more_contention_lower_average;
          Alcotest.test_case "validation" `Quick test_validate_rejects;
          Alcotest.test_case "levels mismatch" `Quick test_average_bandwidth_levels_mismatch;
          Alcotest.test_case "degenerate regularised" `Quick
            test_degenerate_chain_regularised_to_ceiling;
          Alcotest.test_case "regularisation negligible" `Quick
            test_regularisation_negligible_when_rates_exist;
          Alcotest.test_case "sensitivity signs" `Quick test_sensitivity_signs;
          Alcotest.test_case "sensitivity vs secant" `Quick test_sensitivity_matches_secant;
        ] );
      ( "estimator",
        [
          Alcotest.test_case "probabilities" `Quick test_estimator_counts_and_probabilities;
          Alcotest.test_case "row-stochastic matrices" `Quick
            test_estimator_matrices_row_stochastic;
          Alcotest.test_case "event kinds separated" `Quick
            test_estimator_separates_event_kinds;
          Alcotest.test_case "level range" `Quick test_estimator_level_out_of_range;
          Alcotest.test_case "adaptation counts" `Quick test_estimator_adaptation_counts;
          Alcotest.test_case "params roundtrip" `Quick test_params_of_estimator_roundtrip;
        ] );
      ( "ideal",
        [
          Alcotest.test_case "formula" `Quick test_ideal_formula;
          Alcotest.test_case "monotone in load" `Quick test_ideal_monotone_in_load;
          Alcotest.test_case "of_graph" `Quick test_ideal_of_graph;
          Alcotest.test_case "validation" `Quick test_ideal_validation;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest qcheck_model_average_in_range ]);
    ]
