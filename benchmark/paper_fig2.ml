(* The paper's Fig. 2 through [Scenario.run]: the calibrated 100-node
   Waxman, 10 Mbps links, QoS 100-500 Kbps in steps of 50,
   lambda = mu = 0.001, at offered 3000, 4000 and 5000 connections (the
   figure's loaded half: below it arrivals take a fraction of the time,
   and a latency sample mixing both has its median in the gap).
   This is what reproducing the paper costs, and the only workload that
   runs the indirectly-chained census.  Water-filling dominates.

   The window runs whole figures, each point on a fresh seed-drawn
   workload.  An operation is one connection request (arrival) of the
   warmup and measure phases; terminations run between them and their
   cost counts in the request rate.  Set-up is the load phase.  The
   metrics registry is on, as in the bench harness; the span profiler
   runs only in the traced run's instrumented figures. *)

open Kit

let topology_seed = 1

type sizes = { points : int list; warmup : int; churn : int }

let sizes env =
  if env.smoke then { points = [ 200; 400 ]; warmup = 20; churn = 60 }
  else { points = [ 3000; 4000; 5000 ]; warmup = 30; churn = 120 }

(* Peak memory is read after this many figures.  It creeps up over the
   first four to six and then mostly holds, so a reading at the window's
   end would follow how many figures the host got through. *)
let peak_figures = 6

(* Every churn event ends in exactly one Admit, Reject or Terminate
   trace event, emitted by Drcomm as its last step.  This sink notes the
   clock at those marks only: the wall time of a churn event is the gap
   from the previous mark (or its phase's start).  Arrivals are the
   operations; [clock] advances by every churn event, so request rates
   exclude the load and solve phases.  (Terminations take tens of
   microseconds, arrivals milliseconds: a latency sample mixing both
   would put its median in the gap between the two.) *)
let event_timer latency clock =
  let churn = ref false and last = ref 0. in
  let churn_phase name = name = "warmup" || name = "measure" in
  let emit _ = function
    | Trace.Phase_begin { name } | Trace.Span_begin { name; _ } when churn_phase name ->
      churn := true;
      last := now ()
    | Trace.Phase_end { name; _ } | Trace.Span_end { name; _ } when churn_phase name ->
      churn := false
    | (Trace.Admit _ | Trace.Reject _) when !churn ->
      let t = now () in
      clock := !clock +. (t -. !last);
      Samples.add latency (t -. !last);
      last := t
    | Trace.Terminate _ when !churn ->
      let t = now () in
      clock := !clock +. (t -. !last);
      last := t
    | _ -> ()
  in
  Trace.create { Trace.emit; close = ignore }

(* Span names the program already records, and the per-layer metric
   each feeds (seconds per instrumented figure). *)
let profiled_totals =
  [
    ("load", "scenario.load_s");
    ("warmup", "scenario.warmup_s");
    ("measure", "scenario.measure_s");
    ("solve", "scenario.solve_s");
    ("drcomm.redistribute", "core.redistribute_s");
  ]

let profiled_selves =
  [ ("drcomm.admit", "core.admit_self_s"); ("engine.run", "sim.engine_self_s") ]

let run env =
  let sz = sizes env in
  let t0 = now () in
  let graph = Waxman.generate (Prng.create topology_seed) (Waxman.paper_spec ~nodes:100) in
  let topology_s = now () -. t0 in
  let seeds = Prng.create env.seed in
  let traced_prof = profiler env in
  (* Arrival latencies and churn time of plain figures (every figure of
     the untraced run), and the arrivals of profiled ones. *)
  let latency = Samples.create () and clock = ref 0. in
  let profiled_latency = Samples.create () in
  let figure_setup = ref [] in
  let plain_event = Samples.create () and traced_event = Samples.create () in
  let profiled_figures = ref 0 and profiled_wall = ref 0. in
  let digest = ref [] and peak = ref nan in
  let figure i =
    (* Plain figures of the traced run record no spans. *)
    let profiled = instrumented env ~block:1 i in
    let prof = if profiled then traced_prof else Span.disabled in
    let arrivals = if profiled then profiled_latency else latency in
    if profiled then incr profiled_figures;
    let load = ref 0. in
    let rows =
      List.filter_map
        (fun offered ->
          let obs =
            Obs.create ~metrics:(Metrics.create ())
              ~trace:(event_timer arrivals (if profiled then ref 0. else clock))
              ~spans:prof ()
          in
          let cfg =
            {
              Scenario.default with
              topology = Scenario.Fixed graph;
              offered;
              warmup_events = sz.warmup;
              churn_events = sz.churn;
              seed = Prng.int seeds 1_000_000_000;
            }
          in
          match call prof "scenario.run" (fun () -> Scenario.run ~obs cfg) with
          | r, wall ->
            if profiled then profiled_wall := !profiled_wall +. wall;
            let phase name =
              Metrics.timer_total (Metrics.timer (Obs.metrics obs) ("phase." ^ name))
            in
            load := !load +. phase "load";
            Samples.add
              (if profiled then traced_event else plain_event)
              ((phase "warmup" +. phase "measure") /. float_of_int (sz.warmup + sz.churn));
            Some r
          | exception e ->
            Printf.eprintf "paper_fig2: offered %d raised %s\n%!" offered
              (Printexc.to_string e);
            Samples.add_failed arrivals;
            None)
        sz.points
    in
    figure_setup := !load :: !figure_setup;
    if i = 0 then
      digest :=
        List.concat_map
          (fun r ->
            let key k = Printf.sprintf "offered%d.%s" r.Scenario.offered k in
            [
              dint (key "carried_initial") r.Scenario.carried_initial;
              dint (key "carried_final") r.Scenario.carried_final;
              dint (key "rejected_churn") r.Scenario.rejected_churn;
              dfloat (key "sim_kbps") r.Scenario.sim_avg_bandwidth;
              dfloat (key "model_kbps") r.Scenario.model_avg_bandwidth;
              dfloat (key "ideal_kbps") r.Scenario.ideal_avg_bandwidth;
            ])
          rows;
    if i + 1 = peak_figures then peak := peak_rss_mb ()
  in
  let g0 = Gc.quick_stat () in
  (* The traced run needs a plain and an instrumented figure. *)
  let figures, _ =
    window ~seconds:env.seconds ~min_ops:(if env.traced then 2 else peak_figures) figure
  in
  let g1 = Gc.quick_stat () in
  let requests = Samples.count latency + Samples.count profiled_latency in
  let metrics =
    if not env.traced then
      [
        metric ~samples:figures "setup_s" (median !figure_setup);
        metric "peak_rss_mb" !peak;
      ]
    else begin
      let aggs = Span.aggregate traced_prof in
      let figs = float_of_int (max 1 !profiled_figures) in
      let per_figure name field =
        List.fold_left
          (fun acc a -> if a.Span.agg_name = name then acc +. field a else acc)
          0. aggs
        /. figs
      in
      let total a = a.Span.agg_total_s and self a = a.Span.agg_self_s in
      let phases =
        List.fold_left
          (fun acc name -> acc +. per_figure name total)
          0.
          [ "load"; "warmup"; "measure"; "solve" ]
      in
      [
        metric "topology.generate_s" topology_s;
        metric ~samples:figures "obs.trace_overhead_pct"
          (overhead_pct ~traced:traced_event ~plain:plain_event);
        metric ~samples:!profiled_figures "unattributed_share"
          (1. -. (phases /. (!profiled_wall /. figs)));
      ]
      @ op_metrics ~n:(Samples.count latency) ~busy_s:!clock latency
      @ List.map
          (fun (span, name) ->
            metric ~samples:!profiled_figures name (per_figure span total))
          profiled_totals
      @ List.map
          (fun (span, name) ->
            metric ~samples:!profiled_figures name (per_figure span self))
          profiled_selves
      @ gc_metrics g0 g1 ~ops:requests
    end
  in
  {
    attempted = requests;
    failed = Samples.failed latency + Samples.failed profiled_latency;
    digest = !digest;
    metrics;
    spans = spans_json traced_prof;
  }
