(* The analysis side of the paper as a standalone toolkit: build the
   N-state chain from measured parameters and interrogate it — the
   stationary QoS mix, its average bandwidth, and what-if sensitivities
   for planning.

     dune exec examples/markov_analysis.exe *)

let printf = Printf.printf

let () =
  (* Measure parameters on a moderately loaded paper network. *)
  let qos = Qos.paper_spec ~increment:50 in
  let cfg =
    {
      Scenario.default with
      Scenario.offered = 2000;
      churn_events = 1200;
      warmup_events = 300;
      seed = 7;
    }
  in
  printf "measuring P_f, P_s, A, B, T on the 100-node network (2000 connections)...\n";
  let r = Scenario.run cfg in
  let est = r.Scenario.estimator in
  printf "  P_f = %.4f, P_s = %.4f over %d arrivals\n" (Estimator.p_f est)
    (Estimator.p_s est) (Estimator.arrivals est);

  let params =
    Model.params_of_estimator ~lambda:cfg.Scenario.lambda ~mu:cfg.Scenario.mu
      ~gamma:0. est
  in
  let chain = Model.build_regularized params in
  let pi = Ctmc.stationary chain in
  printf "\nstationary QoS mix of one DR-connection:\n";
  Array.iteri
    (fun i p ->
      if p > 0.005 then
        printf "  %3d Kbps  %5.1f%%  %s\n"
          (Qos.bandwidth_of_level qos i)
          (100. *. p)
          (String.make (int_of_float (60. *. p)) '#'))
    pi;
  printf "  average: %.0f Kbps (simulation said %.0f)\n"
    (Model.average_bandwidth_regularized params ~qos)
    r.Scenario.sim_avg_bandwidth;

  (* Sensitivities: where should the provider spend effort?  Scale each
     derivative by a plausible actionable change in its knob. *)
  printf "\nwhat-if analysis (effect of a realistic change in each knob):\n";
  List.iter
    (fun (label, knob, delta) ->
      printf "  %-34s %+7.1f Kbps\n" label
        (Model.sensitivity params ~qos knob *. delta))
    [
      ("10% more arrivals", `Lambda, 0.1 *. cfg.Scenario.lambda);
      ("10% faster turnover (mu)", `Mu, 0.1 *. cfg.Scenario.mu);
      ("failures at gamma = lambda/10", `Gamma, cfg.Scenario.lambda /. 10.);
      ("P_f up by 0.01 (denser routes)", `P_f, 0.01);
      ("P_s up by 0.05 (more chaining)", `P_s, 0.05);
    ];
  printf
    "\nreading: route sharing (P_f) is the lever — a 0.01 increase costs more\n\
     than turning on a realistic failure process; the paper's Fig. 4 finding\n\
     (failures negligible at gamma << lambda) drops out of the same chain.\n"
