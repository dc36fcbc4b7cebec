(* Capacity planning with the analytic model — the use the paper names in
   §1: "performance evaluation ... enables prediction of the behavior of
   an application on a given network and the future planning of the
   network".

   A provider wants every DR-connection to average at least 300 Kbps.
   How many connections can the 100-node network carry?  We sweep the
   offered load, and at each point compare the (cheap) Markov prediction
   against the (expensive) detailed simulation — the planning workflow
   the analytic model exists for.

     dune exec examples/capacity_planning.exe *)

let printf = Printf.printf

let sla_kbps = 300.

let () =
  printf "SLA target: every connection averages >= %.0f Kbps\n\n" sla_kbps;
  printf "%8s %8s %12s %12s %8s\n" "offered" "carried" "markov Kbps" "sim Kbps" "SLA?";
  let knee = ref None in
  List.iter
    (fun offered ->
      let cfg =
        {
          Scenario.default with
          Scenario.offered;
          churn_events = 600;
          warmup_events = 150;
          seed = 4;
        }
      in
      let r = Scenario.run cfg in
      let ok = r.Scenario.model_avg_bandwidth >= sla_kbps in
      if (not ok) && !knee = None then knee := Some offered;
      printf "%8d %8d %12.0f %12.0f %8s\n" offered r.Scenario.carried_initial
        r.Scenario.model_avg_bandwidth r.Scenario.sim_avg_bandwidth
        (if ok then "yes" else "NO"))
    [ 500; 1000; 1500; 2000; 2500; 3000 ];
  (match !knee with
  | Some offered ->
    printf
      "\nplanning verdict: the SLA breaks between %d and %d connections —\n\
       provision more capacity (or raise prices) before crossing that load.\n"
      (offered - 500) offered
  | None -> printf "\nplanning verdict: SLA holds across the whole sweep.\n");
  printf
    "\nnote: the Markov column comes from solving a 9-state chain with measured\n\
     parameters — the same verdicts as simulation at a fraction of the cost\n\
     once P_f/P_s/A/B/T are known for the network (the paper's §3.3 workflow).\n";

  (* And the confidence view: replicate the knee point across seeds. *)
  let knee_cfg =
    {
      Scenario.default with
      Scenario.offered = 2000;
      churn_events = 400;
      warmup_events = 100;
    }
  in
  let _, s = Scenario.run_replications ~seeds:[ 1; 2; 3 ] knee_cfg in
  printf "\nknee-point check across 3 topology replications:\n%s\n"
    (Format.asprintf "%a" Scenario.pp_summary s)
