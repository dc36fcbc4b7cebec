(* Command-line driver for the drqos library.

     drqos_cli run   — run a full scenario (simulate, estimate, solve)
     drqos_cli sweep — sweep offered load (and failure rate) in parallel
     drqos_cli topo  — generate a topology and print its statistics
     drqos_cli chain — solve a synthetic instance of the paper's chain

   Every command is deterministic in its --seed — including sweep,
   whatever --jobs is. *)

open Cmdliner

(* --- shared argument definitions --- *)

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let nodes_arg =
  Arg.(value & opt int 100 & info [ "nodes" ] ~docv:"N" ~doc:"Number of nodes.")

let topology_arg =
  Arg.(
    value
    & opt (enum [ ("waxman", `Waxman); ("transit-stub", `Transit_stub) ]) `Waxman
    & info [ "topology" ] ~docv:"KIND"
        ~doc:"Topology generator: $(b,waxman) (the paper's Random network, \
              calibrated to its 354-link instance at 100 nodes) or \
              $(b,transit-stub) (the Tier network).")

let capacity_arg =
  Arg.(
    value & opt int 10_000
    & info [ "capacity" ] ~docv:"KBPS" ~doc:"Per-link capacity in Kbps.")

let policy_conv =
  let parse s =
    match Policy.of_string s with
    | Some p -> Ok p
    | None -> Error (`Msg (Printf.sprintf "unknown policy %S" s))
  in
  Arg.conv (parse, Policy.pp)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a structured event trace (admissions, rejections, elastic \
           retreats/upgrades, failures, backup activations, solver calls) to \
           $(docv) as JSON Lines; $(b,-) pretty-prints to stdout instead.")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write a metrics manifest (counters, gauges, phase timers, solver \
           timings, run metadata) to $(docv) as JSON.")

let profile_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Attach the span profiler: hierarchical engine / admission / \
           water-filling spans land in the trace (as $(b,span_begin) / \
           $(b,span_end) events, wall time and GC words included) and the \
           metrics manifest gains their aggregates.  Profiled traces carry \
           wall-clock values and are not byte-reproducible; analyse them with \
           $(b,drqos_cli analyze).")

(* Build the observability context the run-like commands share: a live
   tracer when --trace is given, a live registry when --metrics is, a
   span profiler under --profile, and the disabled singletons otherwise.
   Its at_exit flush keeps an abnormal exit from losing buffered trace
   output. *)
let open_out_or_exit path =
  try open_out path
  with Sys_error msg ->
    Printf.eprintf "drqos_cli: cannot open output file: %s\n" msg;
    exit 1

let make_obs ?(profile = false) ?flight ~trace ~metrics () =
  (* Open (or validate) every output file before a single sink exists:
     [open_out_or_exit] calls [exit 1], and once [Obs.close_at_exit] has
     run an exit triggers the at_exit trace flush — which must never fire
     against a context whose other outputs failed to open.  Opening
     first also keeps a failed invocation from leaving a freshly
     truncated trace file behind (see test_cli). *)
  let trace_oc =
    match trace with
    | None | Some "-" -> None
    | Some path -> Some (open_out_or_exit path)
  in
  (match metrics with
  | None -> ()
  | Some path ->
    (* Validate writability now, not after a long run. *)
    close_out (open_out_or_exit path));
  let tracer =
    match (trace, trace_oc) with
    | Some "-", _ -> Trace.create (Trace.console_sink stdout)
    | _, Some oc -> Trace.create (Trace.jsonl_sink oc)
    | _, None -> Trace.disabled
  in
  let registry =
    match metrics with None -> Metrics.disabled | Some _ -> Metrics.create ()
  in
  let spans = if profile then Span.create () else Span.disabled in
  let obs = Obs.create ~metrics:registry ~trace:tracer ~spans ?flight () in
  Obs.close_at_exit obs;
  obs

let write_file path f =
  let oc = open_out_or_exit path in
  f oc;
  close_out oc

let write_json path doc =
  write_file path (fun oc ->
      Jsonx.output oc doc;
      output_char oc '\n')

let write_metrics_manifest obs ~path ~meta =
  let spans =
    if Obs.profiling obs then [ ("spans", Span.to_json (Obs.spans obs)) ] else []
  in
  write_json path (Jsonx.Obj (meta @ [ ("metrics", Obs.metrics_json obs) ] @ spans))

let usage_error_if bad msg =
  if bad then begin
    prerr_endline ("drqos_cli: " ^ msg);
    exit 2
  end

let or_exit = function
  | Ok v -> v
  | Error msg ->
    Printf.eprintf "drqos_cli: %s\n" msg;
    exit 1

let mkdir_p dir = or_exit (Cliopt.mkdir_p dir)

(* Replay trace files for the read-only commands; unreadable or
   malformed input exits 1. *)
let load_traces paths = or_exit (Analysis.load paths)

let rec take k = function x :: rest when k > 0 -> x :: take (k - 1) rest | _ -> []

let scenario_topology nodes = function
  | `Waxman -> Scenario.Waxman (Waxman.paper_spec ~nodes)
  | `Transit_stub ->
    if nodes = 100 then Scenario.Transit_stub Transit_stub.paper_spec
    else
      (* Scale the stub population to approximate the requested size. *)
      let stub_size = max 1 ((nodes - 4) / 12) in
      Scenario.Transit_stub
        (Transit_stub.spec ~transit_domains:1 ~transit_size:4
           ~stubs_per_transit_node:3 ~stub_size ())

(* The scenario flags [run] and [sweep] share: seed, topology and
   capacity, the rates, the QoS increment, the policy and the churn
   windows, as the base configuration both start from. *)
let scenario_term =
  let lambda =
    Arg.(value & opt float 0.001 & info [ "lambda" ] ~doc:"Arrival rate.")
  in
  let mu = Arg.(value & opt float 0.001 & info [ "mu" ] ~doc:"Termination rate.") in
  let increment =
    Arg.(
      value & opt int 50
      & info [ "increment" ] ~docv:"KBPS"
          ~doc:"Elastic increment (50 = 9-state chain, 100 = 5-state).")
  in
  let policy =
    Arg.(
      value & opt policy_conv Policy.equal_share
      & info [ "policy" ] ~docv:"POLICY"
          ~doc:"Adaptation policy: equal-share, proportional or max-utility.")
  in
  let churn =
    Arg.(value & opt int 2000 & info [ "churn" ] ~doc:"Measured churn events.")
  in
  let warmup =
    Arg.(value & opt int 400 & info [ "warmup" ] ~doc:"Warmup churn events.")
  in
  let base seed nodes topo capacity lambda mu increment policy churn warmup =
    {
      Scenario.default with
      Scenario.topology = scenario_topology nodes topo;
      capacity;
      qos = Qos.paper_spec ~increment;
      service = Drcomm.Config.make ~policy ();
      lambda;
      mu;
      churn_events = churn;
      warmup_events = warmup;
      seed;
    }
  in
  Term.(
    const base $ seed_arg $ nodes_arg $ topology_arg $ capacity_arg $ lambda $ mu
    $ increment $ policy $ churn $ warmup)

(* --- run --- *)

let run_cmd =
  let offered =
    Arg.(
      value & opt int 3000
      & info [ "offered" ] ~docv:"N" ~doc:"DR-connection set-ups attempted.")
  in
  let gamma =
    Arg.(value & opt float 0. & info [ "gamma" ] ~doc:"Link failure rate.")
  in
  let no_multiplexing =
    Arg.(
      value & flag
      & info [ "no-multiplexing" ] ~doc:"Dedicate backup reservations (ablation).")
  in
  let no_backups =
    Arg.(
      value & flag
      & info [ "no-backups" ] ~doc:"Disable backup channels entirely (baseline).")
  in
  let heartbeat =
    Arg.(
      value & opt (some string) None
      & info [ "heartbeat" ] ~docv:"FILE"
          ~doc:
            "Write periodic telemetry snapshots (JSONL) to $(docv); feed it to \
             $(b,drqos_cli top).")
  in
  let heartbeat_every =
    Arg.(
      value & opt float 5000.
      & info [ "heartbeat-every" ] ~docv:"T"
          ~doc:"Simulation-time interval between snapshots.")
  in
  let heartbeat_wall =
    Arg.(
      value & opt (some float) None
      & info [ "heartbeat-wall" ] ~docv:"S"
          ~doc:
            "Also emit wall-clock heartbeats every $(docv) seconds (progress / \
             GC / stall telemetry; non-deterministic lines).")
  in
  let flight_dump =
    Arg.(
      value & opt string "drqos.flight.jsonl"
      & info [ "flight-dump" ] ~docv:"FILE"
          ~doc:
            "Where the crash flight recorder dumps the last trace events if \
             the run dies.")
  in
  let run nodes base offered gamma no_multiplexing no_backups trace metrics profile
      heartbeat heartbeat_every heartbeat_wall flight_dump =
    let cfg =
      {
        base with
        Scenario.multiplexing = not no_multiplexing;
        service =
          Drcomm.Config.make
            ~policy:(Drcomm.Config.policy base.Scenario.service)
            ~with_backups:(not no_backups) ~require_backup:(not no_backups) ();
        offered;
        gamma;
      }
    in
    (* The heartbeat sink opens before [make_obs] opens the trace and
       metrics sinks: a bad --heartbeat path must exit before any other
       output file has been created (regression covered in test_cli). *)
    let hb_oc = Option.map open_out_or_exit heartbeat in
    let obs =
      make_obs ~profile ~trace ~metrics
        ~flight:(Flight.create ~capacity:2048 ()) ()
    in
    Obs.set_flight_dump obs flight_dump;
    let snapshot =
      Option.map
        (fun oc ->
          Snapshot.create ~sim_every:heartbeat_every ?wall_every:heartbeat_wall
            ~sink:(Trace.jsonl_sink oc) ())
        hb_oc
    in
    (* The protect (plus the at_exit hook in [make_obs]) flushes the
       trace sink — and dumps the flight recorder — even when the run
       raises mid-way. *)
    Fun.protect
      ~finally:(fun () ->
        (match Obs.dump_flight obs with
        | Some path -> Format.eprintf "flight recorder dumped to %s@." path
        | None -> ());
        Option.iter close_out hb_oc;
        Obs.close obs)
    @@ fun () ->
    let t0 = Clock.now () in
    let r = Scenario.run ~obs ?snapshot cfg in
    Obs.cancel_flight_dump obs;
    let wall_s = Clock.elapsed_since t0 in
    Format.printf "%a@." Scenario.pp_result r;
    Format.printf "level distribution (time-weighted):@.";
    Array.iteri
      (fun i p ->
        Format.printf "  %3d Kbps: %5.1f%%@."
          (Qos.bandwidth_of_level cfg.Scenario.qos i)
          (100. *. p))
      r.Scenario.channel_bandwidth_dist;
    Option.iter
      (fun path ->
        write_metrics_manifest obs ~path
          ~meta:
            [
              ("command", Jsonx.String "run");
              ("seed", Jsonx.Int cfg.seed);
              ("nodes", Jsonx.Int nodes);
              ("offered", Jsonx.Int offered);
              ("churn_events", Jsonx.Int cfg.churn_events);
              ("warmup_events", Jsonx.Int cfg.warmup_events);
              ("wall_s", Jsonx.Float wall_s);
              ("estimator", Estimator.to_json r.Scenario.estimator);
            ];
        Format.printf "metrics written to %s@." path)
      metrics;
    Option.iter
      (fun path ->
        Obs.close obs;
        if path <> "-" then Format.printf "trace written to %s@." path)
      trace;
    Option.iter
      (fun path ->
        let n = match snapshot with Some s -> Snapshot.emitted s | None -> 0 in
        Format.printf "%d telemetry snapshots written to %s@." n path)
      heartbeat
  in
  let term =
    Term.(
      const run $ nodes_arg $ scenario_term $ offered $ gamma $ no_multiplexing
      $ no_backups $ trace_arg $ metrics_arg $ profile_arg $ heartbeat
      $ heartbeat_every $ heartbeat_wall $ flight_dump)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Run a full experiment: load, churn, estimate parameters, solve the chain.")
    term

(* --- sweep --- *)

let sweep_cmd =
  let offered_from =
    Arg.(
      value & opt int 500
      & info [ "offered-from" ] ~docv:"N" ~doc:"First offered-load point.")
  in
  let offered_to =
    Arg.(
      value & opt int 5000
      & info [ "offered-to" ] ~docv:"N" ~doc:"Last offered-load point (inclusive).")
  in
  let offered_step =
    Arg.(
      value & opt int 500
      & info [ "offered-step" ] ~docv:"N" ~doc:"Offered-load stride.")
  in
  let gammas =
    Arg.(
      value & opt_all float []
      & info [ "gamma" ] ~docv:"RATE"
          ~doc:
            "Link failure rate; repeatable — the sweep runs the full offered \
             range at every given rate.  Default: a single failure-free sweep.")
  in
  let jobs =
    Arg.(
      value
      & opt int (Sweep.recommended_jobs ())
      & info [ "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains evaluating sweep points in parallel.  Results are \
             byte-identical whatever $(docv) is (each point carries its own \
             seed; worker metrics merge at join).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"DIR"
          ~doc:
            "Also write the sweep as $(docv)/sweep.dat (TSV, gnuplot/pandas \
             ready) and $(docv)/sweep.metrics.json (created recursively).")
  in
  let run nodes base offered_from offered_to offered_step gammas jobs out =
    usage_error_if (offered_step < 1) "--offered-step must be >= 1";
    usage_error_if
      (offered_from < 0 || offered_to < offered_from)
      "need 0 <= --offered-from <= --offered-to";
    usage_error_if (jobs < 1) "--jobs must be >= 1";
    let gammas = match gammas with [] -> [ 0. ] | gs -> gs in
    let offereds =
      let rec up acc o = if o > offered_to then List.rev acc else up (o :: acc) (o + offered_step) in
      up [] offered_from
    in
    let grid =
      List.concat_map
        (fun gamma -> List.map (fun offered -> (gamma, offered)) offereds)
        gammas
    in
    let point (gamma, offered) = { base with Scenario.offered; gamma } in
    (* An unusable --out fails before the sweep, not after it. *)
    Option.iter mkdir_p out;
    let obs = Obs.create ~metrics:(Metrics.create ()) () in
    let t0 = Clock.now () in
    let results =
      Sweep.map ~jobs ~obs (fun obs cfg -> Scenario.run ~obs cfg) (List.map point grid)
    in
    let wall_s = Clock.elapsed_since t0 in
    let header =
      [ "gamma"; "offered"; "carried"; "sim Kbps"; "markov Kbps"; "ideal Kbps";
        "P_f"; "P_s" ]
    in
    let rows =
      List.map2
        (fun (gamma, offered) r ->
          [
            Printf.sprintf "%g" gamma;
            string_of_int offered;
            string_of_int r.Scenario.carried_initial;
            Printf.sprintf "%.1f" r.Scenario.sim_avg_bandwidth;
            Printf.sprintf "%.1f" r.Scenario.model_avg_bandwidth;
            Printf.sprintf "%.1f" r.Scenario.ideal_avg_bandwidth;
            Printf.sprintf "%.3f" (Estimator.p_f r.Scenario.estimator);
            Printf.sprintf "%.3f" (Estimator.p_s r.Scenario.estimator);
          ])
        grid results
    in
    let print_tsv oc =
      Printf.fprintf oc "# %s\n" (String.concat "\t" header);
      List.iter (fun row -> Printf.fprintf oc "%s\n" (String.concat "\t" row)) rows
    in
    print_tsv stdout;
    Printf.eprintf "sweep: %d points in %.1fs (%d jobs)\n" (List.length grid) wall_s
      jobs;
    Option.iter
      (fun dir ->
        let dat = Filename.concat dir "sweep.dat" in
        write_file dat print_tsv;
        let manifest = Filename.concat dir "sweep.metrics.json" in
        write_metrics_manifest obs ~path:manifest
          ~meta:
            [
              ("command", Jsonx.String "sweep");
              ("seed", Jsonx.Int base.seed);
              ("nodes", Jsonx.Int nodes);
              ("points", Jsonx.Int (List.length grid));
              ("jobs", Jsonx.Int jobs);
              ("churn_events", Jsonx.Int base.churn_events);
              ("warmup_events", Jsonx.Int base.warmup_events);
              ("wall_s", Jsonx.Float wall_s);
            ];
        Printf.eprintf "sweep data written to %s, metrics to %s\n" dat manifest)
      out
  in
  let term =
    Term.(
      const run $ nodes_arg $ scenario_term $ offered_from $ offered_to
      $ offered_step $ gammas $ jobs $ out)
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Sweep offered load (and optionally failure rate) over a range of \
          scenario points, evaluated in parallel on a deterministic domain \
          pool; emits the table as TSV on stdout and optionally as \
          sweep.dat / sweep.metrics.json under --out.")
    term

(* --- topo --- *)

let topo_cmd =
  let dot =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit the graph in DOT format.")
  in
  let run seed nodes topo dot =
    let g = Scenario.build_graph (Prng.create seed) (scenario_topology nodes topo) in
    if dot then begin
      print_endline "graph drqos {";
      Graph.iter_edges (fun _ u v -> Printf.printf "  n%d -- n%d;\n" u v) g;
      print_endline "}"
    end
    else begin
      Format.printf "%a@." Graph.pp g;
      Format.printf "links (unidirectional): %d@." (2 * Graph.edge_count g);
      Format.printf "diameter: %d hops@." (Paths.diameter g);
      Format.printf "average inter-node distance: %.2f hops@." (Paths.average_hops g);
      Format.printf "connected: %b@." (Graph.is_connected g)
    end
  in
  let term = Term.(const run $ seed_arg $ nodes_arg $ topology_arg $ dot) in
  Cmd.v (Cmd.info "topo" ~doc:"Generate a topology and print statistics (or DOT).") term

(* --- chain --- *)

let chain_cmd =
  let p_f = Arg.(value & opt float 0.04 & info [ "pf" ] ~doc:"P_f (direct chaining).") in
  let p_s = Arg.(value & opt float 0.5 & info [ "ps" ] ~doc:"P_s (indirect chaining).") in
  let lambda = Arg.(value & opt float 0.001 & info [ "lambda" ] ~doc:"Arrival rate.") in
  let mu = Arg.(value & opt float 0.001 & info [ "mu" ] ~doc:"Termination rate.") in
  let gamma = Arg.(value & opt float 0. & info [ "gamma" ] ~doc:"Failure rate.") in
  let increment =
    Arg.(value & opt int 50 & info [ "increment" ] ~doc:"Elastic increment in Kbps.")
  in
  let run p_f p_s lambda mu gamma increment trace metrics =
    let obs = make_obs ~trace ~metrics () in
    Fun.protect ~finally:(fun () -> Obs.close obs) @@ fun () ->
    let qos = Qos.paper_spec ~increment in
    let n = Qos.levels qos in
    let p = Model.synthetic ~lambda ~mu ~gamma ~p_f ~p_s ~levels:n in
    let pi = Ctmc.stationary ~obs (Model.build_regularized p) in
    Format.printf "stationary distribution of the %d-state chain:@." n;
    Array.iteri
      (fun i x ->
        Format.printf "  S%d (%3d Kbps): %6.3f@." i (Qos.bandwidth_of_level qos i) x)
      pi;
    Format.printf "average bandwidth: %.1f Kbps@."
      (Model.average_bandwidth_regularized ~obs p ~qos);
    Format.printf "sensitivities (d avg / d knob):@.";
    List.iter
      (fun (label, knob) ->
        Format.printf "  %-7s %12.1f@." label (Model.sensitivity ~obs p ~qos knob))
      [
        ("lambda", `Lambda); ("mu", `Mu); ("gamma", `Gamma); ("P_f", `P_f); ("P_s", `P_s);
      ];
    Option.iter
      (fun path ->
        write_metrics_manifest obs ~path
          ~meta:
            [
              ("command", Jsonx.String "chain");
              ("states", Jsonx.Int n);
              ("increment", Jsonx.Int increment);
            ];
        Format.printf "metrics written to %s@." path)
      metrics
  in
  let term =
    Term.(
      const run $ p_f $ p_s $ lambda $ mu $ gamma $ increment $ trace_arg
      $ metrics_arg)
  in
  Cmd.v
    (Cmd.info "chain"
       ~doc:"Solve a synthetic instance of the paper's Markov chain from CLI parameters.")
    term

(* --- analyze --- *)

let analyze_cmd =
  let trace_file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TRACE" ~doc:"JSONL trace file written by $(b,--trace).")
  in
  let audit_flag =
    Arg.(
      value & flag
      & info [ "audit" ]
          ~doc:
            "Compare the empirical level residency against the analytic \
             stationary distribution of the paper's chain solved for the \
             trace's own measured rates (overridable below); reports the \
             max (L_inf) and total (L1) per-level error.")
  in
  let levels =
    Arg.(
      value
      & opt (some int) None
      & info [ "levels" ] ~docv:"N"
          ~doc:"Chain size for the audit (default: highest level observed + 1).")
  in
  let over name doc =
    Arg.(value & opt (some float) None & info [ name ] ~docv:"X" ~doc)
  in
  let lambda = over "lambda" "Override the measured arrival rate in the audit." in
  let mu = over "mu" "Override the measured termination rate in the audit." in
  let gamma = over "gamma" "Override the measured failure rate in the audit." in
  let p_f = over "pf" "Override the measured P_f in the audit." in
  let p_s = over "ps" "Override the measured P_s in the audit." in
  let window =
    Arg.(
      value & opt float 10.
      & info [ "window" ] ~docv:"T"
          ~doc:"Causality window after each link failure (simulation time units).")
  in
  let perfetto =
    Arg.(
      value
      & opt (some string) None
      & info [ "perfetto" ] ~docv:"FILE"
          ~doc:
            "Also export the trace as Chrome/Perfetto trace-event JSON \
             (open in ui.perfetto.dev or chrome://tracing).")
  in
  let top_spans =
    Arg.(
      value & opt int 5
      & info [ "top-spans" ] ~docv:"N"
          ~doc:"Show the N hottest profiler spans by self time (0 = none).")
  in
  let run trace_path audit_flag levels lambda mu gamma p_f p_s window perfetto
      top_n =
    let a = load_traces [ trace_path ] in
    Format.printf "trace: %d events, horizon %g, %d channels@."
      (Analysis.event_count a) (Analysis.horizon a)
      (List.length (Analysis.channels a));
    Format.printf "event counts:@.";
    List.iter
      (fun (k, n) -> Format.printf "  %-16s %8d@." k n)
      (Analysis.event_counts a);
    (match Analysis.rejections a with
    | [] -> ()
    | rs ->
      Format.printf "rejections:@.";
      List.iter (fun (k, n) -> Format.printf "  %-16s %8d@." k n) rs);
    let resid = Analysis.residency ?levels a in
    if Array.length resid > 0 then begin
      Format.printf "level residency (fraction of channel-time):@.";
      Array.iteri (fun i p -> Format.printf "  S%-2d %8.4f@." i p) resid
    end;
    let r = Analysis.estimate_rates a in
    Format.printf
      "estimated rates: lambda=%g mu=%g gamma=%g P_f=%.4f P_s=%.4f (%d \
       arrivals, %d chain samples)@."
      r.Analysis.lambda r.Analysis.mu r.Analysis.gamma r.Analysis.p_f
      r.Analysis.p_s r.Analysis.arrivals r.Analysis.chain_samples;
    (match Analysis.failure_windows ~window a with
    | [] -> ()
    | ws ->
      let sum f = List.fold_left (fun acc w -> acc + f w) 0 ws in
      Format.printf
        "failure response (window %g): %d failures, %d retreats, %d upgrades, \
         %d activations, %d drops@."
        window (List.length ws)
        (sum (fun w -> w.Analysis.retreats))
        (sum (fun w -> w.Analysis.upgrades))
        (sum (fun w -> w.Analysis.activations))
        (sum (fun w -> w.Analysis.drops));
      let dts = List.filter_map (fun w -> w.Analysis.first_activation_dt) ws in
      match dts with
      | [] -> ()
      | _ ->
        let mean = List.fold_left ( +. ) 0. dts /. float_of_int (List.length dts) in
        Format.printf "  first backup activation: mean dt %g over %d failures@."
          mean (List.length dts));
    if audit_flag then begin
      let au = Analysis.audit ?levels ?lambda ?mu ?gamma ?p_f ?p_s a in
      let ru = au.Analysis.rates_used in
      Format.printf
        "audit vs %d-state chain (lambda=%g mu=%g gamma=%g P_f=%.4f P_s=%.4f):@."
        au.Analysis.levels ru.Analysis.lambda ru.Analysis.mu ru.Analysis.gamma
        ru.Analysis.p_f ru.Analysis.p_s;
      Format.printf "  level  empirical  analytic@.";
      Array.iteri
        (fun i e ->
          Format.printf "  S%-4d %9.4f %9.4f@." i e au.Analysis.analytic.(i))
        au.Analysis.empirical;
      Format.printf "  L_inf = %.4f, L1 = %.4f@." au.Analysis.linf au.Analysis.l1
    end;
    (if top_n > 0 then
       match Analysis.top_spans ~limit:top_n a with
       | [] -> ()
       | spans ->
         Format.printf "top spans (by self time):@.";
         Format.printf "  %-24s %8s %12s %12s %14s %14s@." "name" "count"
           "total_s" "self_s" "minor_words" "major_words";
         List.iter
           (fun s ->
             Format.printf "  %-24s %8d %12.6f %12.6f %14.0f %14.0f@."
               s.Span.agg_name s.Span.count s.Span.agg_total_s s.Span.agg_self_s
               s.Span.agg_minor_words s.Span.agg_major_words)
           spans;
         Format.printf "  max span depth: %d@." (Analysis.max_span_depth a));
    Option.iter
      (fun path ->
        write_json path (Analysis.to_perfetto a);
        Format.printf "perfetto trace written to %s@." path)
      perfetto
  in
  let term =
    Term.(
      const run $ trace_file $ audit_flag $ levels $ lambda $ mu $ gamma $ p_f
      $ p_s $ window $ perfetto $ top_spans)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Replay a recorded JSONL trace into derived views: per-level \
          residency, rejection breakdown, measured rates, failure-response \
          windows, an empirical-vs-analytic chain audit, profiler span \
          aggregates, and a Perfetto export.  Output is a pure function of \
          the trace bytes.")
    term

(* --- perfdiff --- *)

let perfdiff_cmd =
  let base_file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"BASE" ~doc:"Baseline BENCH_*.json perf record.")
  in
  let new_file =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"NEW" ~doc:"Candidate BENCH_*.json perf record.")
  in
  let max_regress =
    Arg.(
      value
      & opt (some float) None
      & info [ "max-regress" ] ~docv:"PCT"
          ~doc:
            "Exit non-zero when NEW's wall time exceeds BASE's by more than \
             $(docv) percent; without it the comparison is informational.")
  in
  let run base_path new_path max_regress =
    let b = or_exit (Perf_record.load base_path) in
    let n = or_exit (Perf_record.load new_path) in
    let pct = Perf_record.pct_change in
    let wb = Perf_record.wall_s b and wn = Perf_record.wall_s n in
    Printf.printf "wall_s: %.3f -> %.3f (%+.1f%%)\n" wb wn (pct wb wn);
    (match (Perf_record.major_words b, Perf_record.major_words n) with
    | Some gb, Some gn ->
      Printf.printf "gc.major_words: %.0f -> %.0f (%+.1f%%)\n" gb gn (pct gb gn)
    | _ -> ());
    (* Per-name tables over the union of names: span self times, and
       (serve records) stage p99s — informational, the gate is wall
       time; the deltas say *where* a regression lives. *)
    List.iter2
      (fun (title, base) (_, fresh) ->
        match Perf_record.join base fresh with
        | [] -> ()
        | rows ->
          Printf.printf "%-24s %12s %12s %9s\n" title "base" "new" "delta";
          List.iter
            (function
              | name, Some a, Some c ->
                Printf.printf "%-24s %12.6f %12.6f %+8.1f%%\n" name a c (pct a c)
              | name, Some a, None -> Printf.printf "%-24s %12.6f %12s %9s\n" name a "-" "-"
              | name, None, Some c -> Printf.printf "%-24s %12s %12.6f %9s\n" name "-" c "-"
              | _, None, None -> ())
            rows)
      (Perf_record.tables b) (Perf_record.tables n);
    match max_regress with
    | Some lim when Perf_record.regressed ~max_pct:lim wb wn ->
      Printf.eprintf "perfdiff: wall time regressed %.1f%% (limit %.1f%%)\n"
        (pct wb wn) lim;
      exit 1
    | _ -> ()
  in
  let term = Term.(const run $ base_file $ new_file $ max_regress) in
  Cmd.v
    (Cmd.info "perfdiff"
       ~doc:
         "Compare two BENCH_*.json perf records (wall time, GC, per-span self \
          times); with --max-regress, gate on the wall-time delta.")
    term

(* --- fuzz --- *)

let fuzz_cmd =
  let ops =
    Arg.(
      value & opt int 10_000
      & info [ "ops" ] ~docv:"N" ~doc:"Operations per topology family.")
  in
  let families =
    let fam =
      Arg.enum
        (List.map (fun f -> (Fuzz.family_name f, f)) Fuzz.all_families)
    in
    Arg.(
      value & opt_all fam []
      & info [ "family" ] ~docv:"FAMILY"
          ~doc:"Topology family to fuzz (repeatable): $(b,waxman), $(b,torus) \
                or $(b,transit-stub).  Default: all three.")
  in
  let fuzz_nodes =
    Arg.(value & opt int 20 & info [ "nodes" ] ~docv:"N" ~doc:"Approximate node count.")
  in
  let capacity =
    Arg.(value & opt int 1200 & info [ "capacity" ] ~docv:"KBPS" ~doc:"Link capacity.")
  in
  let backups =
    Arg.(value & opt int 2 & info [ "backups" ] ~docv:"K" ~doc:"Backups per connection.")
  in
  let restore =
    Arg.(value & flag & info [ "restore" ] ~doc:"Reactive-restoration baseline.")
  in
  let no_mux =
    Arg.(value & flag & info [ "no-multiplexing" ] ~doc:"Dedicated (unshared) backup pools.")
  in
  let policy =
    Arg.(
      value & opt policy_conv Policy.equal_share
      & info [ "policy" ] ~docv:"POLICY" ~doc:"Redistribution policy.")
  in
  let deep_every =
    Arg.(
      value & opt int 20
      & info [ "deep-every" ] ~docv:"N"
          ~doc:"Run the single-failure-safety check every N ops (0 = never).")
  in
  let no_shrink =
    Arg.(value & flag & info [ "no-shrink" ] ~doc:"Print the raw failing prefix unshrunk.")
  in
  let replay_file =
    Arg.(
      value & opt (some file) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:"Replay a reproducer script instead of generating operations.")
  in
  let pp_stats fmt (s : Fuzz.stats) =
    Format.fprintf fmt
      "%d ops: %d admitted, %d rejected, %d terminated, %d qos changes (%d \
       refused), %d edge failures, %d repairs, %d activations, %d backup \
       losses, %d drops, %d restores; %d live"
      s.Fuzz.ops_run s.admitted s.rejected s.terminated s.qos_changed
      s.qos_refused s.edge_failures s.edge_repairs s.activations
      s.backup_losses s.drops s.restores s.live
  in
  let run seed ops families nodes capacity backups restore no_mux policy
      deep_every no_shrink replay_file =
    match replay_file with
    | Some path -> (
      let text =
        try In_channel.with_open_text path In_channel.input_all
        with Sys_error msg ->
          Printf.eprintf "drqos_cli: %s\n" msg;
          exit 1
      in
      match Fuzz.parse_script text with
      | Error msg ->
        Format.eprintf "cannot parse %s: %s@." path msg;
        exit 2
      | Ok (cfg, script) -> (
        let r = Fuzz.replay cfg script in
        match r.Fuzz.violation with
        | None ->
          Format.printf "replay of %s passed (%a)@." path pp_stats r.Fuzz.stats
        | Some v ->
          Format.printf "replay of %s fails at op %d (%a): %s@." path
            v.Fuzz.index Op.pp v.Fuzz.op v.Fuzz.message;
          exit 1))
    | None ->
      let families = if families = [] then Fuzz.all_families else families in
      let violations =
        List.filter_map
          (fun family ->
            let cfg =
              Fuzz.config ~nodes ~capacity ~backups ~restore
                ~multiplexing:(not no_mux) ~policy ~deep_every ~family ~seed
                ~ops ()
            in
            match Fuzz.run ~shrink:(not no_shrink) cfg with
            | Ok stats ->
              Format.printf "%-12s seed=%d ok, %a@." (Fuzz.family_name family)
                seed pp_stats stats;
              None
            | Error f ->
              Format.printf "%-12s seed=%d VIOLATION at op %d: %s@."
                (Fuzz.family_name family) seed f.Fuzz.violation.Fuzz.index
                f.Fuzz.violation.Fuzz.message;
              Format.printf "reproducer (%d ops, shrunk from %d):@.%s"
                (Array.length f.Fuzz.script) f.Fuzz.stats.Fuzz.ops_run
                (Fuzz.to_script f);
              (* Black box: the shrunk replay's last trace events,
                 timestamped with op indices into the script above. *)
              let flight_path =
                Printf.sprintf "%s-seed%d.flight.jsonl"
                  (Fuzz.family_name family) seed
              in
              write_file flight_path (Flight.dump_events f.Fuzz.flight);
              Format.printf "flight recorder (%d events) written to %s@."
                (List.length f.Fuzz.flight) flight_path;
              Some f)
          families
      in
      if violations <> [] then exit 1
  in
  let term =
    Term.(
      const run $ seed_arg $ ops $ families $ fuzz_nodes $ capacity $ backups
      $ restore $ no_mux $ policy $ deep_every $ no_shrink $ replay_file)
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Fuzz the DR-connection service with random op sequences, checking \
             the full invariant suite after every operation; on violation, \
             print a shrunk replayable reproducer.")
    term

(* --- top --- *)

let top_cmd =
  let hb_file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"HEARTBEAT"
          ~doc:"Telemetry JSONL written by a $(b,--heartbeat) run.")
  in
  let follow =
    Arg.(
      value & flag
      & info [ "follow"; "f" ]
          ~doc:"Re-read the file and refresh the view until interrupted.")
  in
  let interval =
    Arg.(
      value & opt float 1.0
      & info [ "interval" ] ~docv:"S"
          ~doc:"Refresh period in $(b,--follow) mode (seconds).")
  in
  let stall_factor =
    Arg.(
      value & opt float 3.0
      & info [ "stall-factor" ] ~docv:"X"
          ~doc:
            "Flag a wall-clock stall when a heartbeat gap exceeds $(docv) \
             times the expected cadence (median observed gap).")
  in
  let links =
    Arg.(
      value & opt int 5
      & info [ "links" ] ~docv:"K" ~doc:"Hottest links shown.")
  in
  let render a path ~stall_factor ~links =
    let snaps = Analysis.snapshots a in
    let hbs = Analysis.heartbeats a in
    Format.printf "drqos top — %s (%d snapshots, %d heartbeats)@." path
      (List.length snaps) (List.length hbs);
    (match List.rev snaps with
    | [] -> Format.printf "no snapshots yet@."
    | (time, last) :: _ ->
      Format.printf "sim t=%g  events=%d  live=%d (peak %d)@." time last.Trace.events
        last.Trace.live last.Trace.peak_live;
      Format.printf "live by level:";
      List.iteri (fun i n -> Format.printf " S%d:%d" i n) last.Trace.live_by_level;
      Format.printf "@.";
      (match Analysis.ops_series a with
      | [] -> ()
      | series ->
        let n = List.length series in
        let mean =
          List.fold_left (fun acc (_, r) -> acc +. r) 0. series /. float_of_int n
        in
        let _, last_rate = List.nth series (n - 1) in
        Format.printf "dispatch rate: %.4g ev/simt (mean %.4g over %d intervals)@."
          last_rate mean n);
      (match take links last.Trace.hot with
      | [] -> ()
      | hot ->
        Format.printf "hottest links (churn):";
        List.iter (fun (dl, n) -> Format.printf " %d:%d" dl n) hot;
        Format.printf "@.");
      (match take 6 last.Trace.counters with
      | [] -> ()
      | cs ->
        Format.printf "counter deltas:";
        List.iter (fun (name, d) -> Format.printf " %s:%+d" name d) cs;
        Format.printf "@.");
      (* Serving-plane hygiene counters: cumulative over the stream
         (snapshot counters carry per-snapshot deltas). *)
      let total name =
        List.fold_left
          (fun acc (_, (s : Trace.snapshot)) ->
            match List.assoc_opt name s.counters with
            | Some d -> acc + d
            | None -> acc)
          0 snaps
      in
      let reaped = total "serve.reaped" in
      let refused = total "serve.refused" in
      let undecodable = total "serve.undecodable" in
      if reaped > 0 || refused > 0 || undecodable > 0 then
        Format.printf
          "serve: %d connections reaped, %d refused, %d undecodable lines@."
          reaped refused undecodable;
      if last.Trace.slo_good + last.Trace.slo_bad > 0 then
        Format.printf
          "slo: %d good / %d bad cumulative (burn rate %.4f%% this beat)@."
          last.Trace.slo_good last.Trace.slo_bad (100. *. last.Trace.slo_burn));
    (match List.rev hbs with
    | [] -> ()
    | (_, last) :: _ ->
      Format.printf
        "wall t=%.1fs  %.0f ops/s  gc: %.0f minor + %.0f major words/beat, \
         heap %d words@."
        last.Trace.wall_s last.Trace.ops_per_s last.Trace.minor_words
        last.Trace.major_words last.Trace.heap_words);
    match Analysis.stalls ~factor:stall_factor a with
    | [] -> if hbs <> [] then Format.printf "no stalls detected@."
    | stalls ->
      Format.printf "STALLS (%d):" (List.length stalls);
      List.iter
        (fun (at, gap) -> Format.printf " %.1fs gap at wall t=%.1fs;" gap at)
        stalls;
      Format.printf "@."
  in
  let run path follow interval stall_factor links =
    usage_error_if (stall_factor <= 0.) "--stall-factor must be positive";
    let render_once ~soft =
      match Analysis.load [ path ] with
      | Ok a ->
        render a path ~stall_factor ~links;
        true
      | Error msg ->
        (* In follow mode a line may be mid-write; try again next tick. *)
        Format.eprintf "drqos_cli: %s@." msg;
        soft
    in
    if not follow then begin
      if not (render_once ~soft:false) then exit 1
    end
    else
      while true do
        print_string "\027[H\027[2J";
        ignore (render_once ~soft:true);
        Format.printf "%!";
        Unix.sleepf (max 0.05 interval)
      done
  in
  let term =
    Term.(const run $ hb_file $ follow $ interval $ stall_factor $ links)
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Terminal view of a heartbeat telemetry stream: dispatch rate, live \
          channels by level, hottest links, GC pressure and wall-clock stall \
          detection.  With $(b,--follow), tails a run in progress.")
    term

(* --- serve / loadgen --- *)

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket to serve on (or dial, for loadgen).")

let port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "port" ] ~docv:"PORT"
        ~doc:"TCP port on 127.0.0.1 to serve on (or dial, for loadgen).")

let check_slo slo =
  usage_error_if (Option.fold ~none:false ~some:(fun s -> s <= 0.) slo) "--slo must be positive"

let address_of socket port : Serve_server.address =
  match (socket, port) with
  | Some _, Some _ ->
    prerr_endline "drqos_cli: --socket and --port are mutually exclusive";
    exit 2
  | Some path, None -> `Unix path
  | None, Some port -> `Tcp ("127.0.0.1", port)
  | None, None ->
    prerr_endline "drqos_cli: one of --socket PATH or --port PORT is required";
    exit 2

let serve_cmd =
  let wall_every =
    Arg.(
      value & opt float 1.0
      & info [ "wall-every" ] ~docv:"SECONDS"
          ~doc:"Heartbeat cadence pushed to subscribed connections (monotonic).")
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "verbose" ]
          ~doc:"Log accepts, disconnects and lifecycle events to stderr.")
  in
  let policy =
    Arg.(
      value
      & opt policy_conv Policy.equal_share
      & info [ "policy" ] ~docv:"POLICY" ~doc:"Bandwidth adaptation policy.")
  in
  let slo =
    Arg.(
      value
      & opt (some float) None
      & info [ "slo" ] ~docv:"SECONDS"
          ~doc:
            "Per-request latency objective: requests whose stage sum exceeds \
             $(docv) count bad (good/bad totals and a rolling burn rate ride \
             the snapshot stream), and each miss emits a $(b,slow_request) \
             exemplar note with its full stage breakdown.")
  in
  let trace_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Tee the daemon's trace stream — including the per-request \
             $(b,req_begin)/$(b,req_stage)/$(b,req_end) records — to $(docv) \
             as JSONL, for $(b,drqos_cli latency).")
  in
  let slow_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "slow-dir" ] ~docv:"DIR"
          ~doc:
            "With $(b,--slo): dump a flight-recorder ring of the events \
             preceding each of the first few SLO misses to \
             $(docv)/slow_<rid>.jsonl (directory created if missing).")
  in
  let run seed nodes topo capacity policy wall_every slo trace_file slow_dir
      socket port verbose =
    let addr = address_of socket port in
    check_slo slo;
    (* Unusable output paths fail before the listener binds, so no
       socket file is left behind. *)
    Option.iter (fun path -> close_out (open_out_or_exit path)) trace_file;
    Option.iter mkdir_p slow_dir;
    let g = Scenario.build_graph (Prng.create seed) (scenario_topology nodes topo) in
    let net = Net_state.create ~capacity g in
    let config = Drcomm.Config.make ~policy () in
    let log = if verbose then prerr_endline else ignore in
    Printf.printf "serving %d nodes / %d edges, capacity %d Kbps\n%!"
      (Graph.node_count g) (Graph.edge_count g) capacity;
    let requests =
      Serve_server.run ~config ~wall_every ?slo ?trace_file ?slow_dir ~log addr
        net
    in
    Printf.printf "served %d requests\n" requests
  in
  let term =
    Term.(
      const run $ seed_arg $ nodes_arg $ topology_arg $ capacity_arg $ policy
      $ wall_every $ slo $ trace_file $ slow_dir $ socket_arg $ port_arg
      $ verbose)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the QoS-broker daemon: a single-threaded event loop serving the \
          DR-connection service over a Unix or TCP socket.  Clients speak \
          JSON-Lines requests (admit, teardown, chqos, fail, repair, stats, \
          snapshot, metrics), may subscribe to pushed trace events and wall \
          heartbeats, and stop the daemon with a $(b,shutdown) request.")
    term

let loadgen_cmd =
  let requests =
    Arg.(
      value & opt int 100_000
      & info [ "requests" ] ~docv:"N" ~doc:"Operations to replay.")
  in
  let rate =
    Arg.(
      value & opt float 20_000.
      & info [ "rate" ] ~docv:"RPS"
          ~doc:"Offered load in requests per second (the open-loop schedule).")
  in
  let arrivals_arg =
    Arg.(
      value
      & opt (enum [ ("poisson", `Poisson); ("bursty", `Bursty) ]) `Poisson
      & info [ "arrivals" ] ~docv:"KIND"
          ~doc:
            "Arrival process: $(b,poisson) (exponential inter-arrivals at \
             $(b,--rate)) or $(b,bursty) (on/off: 100 ms bursts at twice the \
             rate separated by 100 ms silences; same average rate).")
  in
  let jobs =
    Arg.(
      value & opt int 4
      & info [ "jobs" ] ~docv:"J" ~doc:"Worker domains (one connection each).")
  in
  let live_target =
    Arg.(
      value & opt int 400
      & info [ "live" ] ~docv:"N"
          ~doc:
            "Steady-state live-connection population the churn steers toward \
             (split across workers) — the paper's λ/μ operating point.")
  in
  let fail_edges =
    Arg.(
      value & opt int 0
      & info [ "fail-edges" ] ~docv:"K"
          ~doc:
            "Let the workers inject fail/repair round-trips on edge ids below \
             $(docv), each repairing the edges it failed (0 disables failure \
             injection; $(docv) must not exceed the daemon's edge count).")
  in
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:"Smoke-test scale: 2000 requests at 5000 rps (CI gate).")
  in
  let out_dir =
    Arg.(
      value & opt (some string) None
      & info [ "out" ] ~docv:"DIR"
          ~doc:
            "Write $(b,BENCH_serve.json) (machine-readable perf record) and \
             $(b,serve.dat) (percentile table) under $(docv).")
  in
  let shutdown =
    Arg.(
      value & flag
      & info [ "shutdown" ] ~doc:"Send a shutdown request when the replay ends.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record the client side of request tracing: stamp every request \
             line with a $(b,trace) context (rid = schedule index) and write \
             one $(b,req_client) JSONL record per operation to $(docv).  Feed \
             it to $(b,drqos_cli latency) together with the daemon's \
             $(b,--trace) file to join client latency with server stages.")
  in
  let slo_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "slo" ] ~docv:"SECONDS"
          ~doc:
            "Client-side latency objective: count operations whose open-loop \
             latency exceeds $(docv) and report the good/bad split.")
  in
  let run seed nodes socket port requests rate arrivals jobs live_target
      fail_edges quick out_dir shutdown trace_out slo_arg =
    let addr = address_of socket port in
    let requests = if quick then 2000 else requests in
    let rate = if quick then 5000. else rate in
    usage_error_if (requests < 1) "--requests must be >= 1";
    usage_error_if (rate <= 0.) "--rate must be > 0";
    check_slo slo_arg;
    (* Unusable output paths fail before the first request, not after
       the whole replay. *)
    Option.iter mkdir_p out_dir;
    let trace_oc = Option.map (fun path -> (path, open_out_or_exit path)) trace_out in
    let r =
      Serve_loadgen.run ~seed ~nodes ~requests ~rate ~arrivals ~jobs ~live_target
        ~fail_edges ~tracing:(trace_out <> None) ?slo:slo_arg addr
    in
    let s = r.Serve_loadgen.summary in
    let l = s.Perf_record.latency_s in
    Printf.printf
      "replayed %d requests in %.2fs (%.0f rps offered, %.0f achieved)\n"
      s.requests r.wall_s rate s.achieved_rps;
    Printf.printf
      "latency  p50 %.6fs  p95 %.6fs  p99 %.6fs  p99.9 %.6fs  max %.6fs  \
       (max lag %.4fs)\n"
      l.p50 l.p95 l.p99 l.p999 l.max s.max_lag_s;
    Printf.printf "rejected %d  stale %d  errors %d\n" s.rejected s.stale s.errors;
    Option.iter
      (fun slo ->
        Printf.printf "slo %.6fs: %d good / %d bad (%.4f%% bad)\n" slo s.slo_good
          s.slo_bad
          (100. *. float_of_int s.slo_bad /. float_of_int (max 1 (s.slo_good + s.slo_bad))))
      slo_arg;
    Option.iter
      (fun (path, oc) ->
        Serve_loadgen.write_client_log oc r;
        close_out oc;
        Printf.printf "(client request log written to %s)\n" path)
      trace_oc;
    (* Pull the daemon's per-stage p99s for the perf record while it is
       still up — the shutdown below would race this fetch. *)
    let stage_p99_s = if out_dir = None then [] else Serve_loadgen.stage_p99s addr in
    if shutdown && not (Serve_loadgen.shutdown addr) then begin
      prerr_endline "drqos_cli: daemon did not acknowledge shutdown";
      exit 1
    end;
    Option.iter
      (fun dir ->
        let bench = Filename.concat dir "BENCH_serve.json" in
        write_file bench (fun oc ->
            Perf_record.write oc
              (Perf_record.serve
                 ~scale:(if quick then Quick else Full)
                 ~jobs ~wall_s:r.wall_s ~gc:r.gc ~stage_p99_s s));
        Printf.printf "(perf record written to %s)\n" bench;
        let dat = Filename.concat dir "serve.dat" in
        write_file dat (fun oc -> Serve_loadgen.write_percentiles oc r);
        Printf.printf "(percentile table written to %s)\n" dat)
      out_dir;
    if s.errors > 0 then exit 1
  in
  let term =
    Term.(
      const run $ seed_arg $ nodes_arg $ socket_arg $ port_arg $ requests $ rate
      $ arrivals_arg $ jobs $ live_target $ fail_edges $ quick $ out_dir
      $ shutdown $ trace_out $ slo_arg)
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Open-loop multicore load generator for a running $(b,drqos_cli \
          serve) daemon: replays a seeded Poisson or bursty arrival schedule \
          of admit/teardown/chqos (plus optional fail/repair injection) \
          across worker domains, measuring each operation from its \
          $(i,scheduled) arrival to completion on the monotonic clock — \
          coordinated-omission-safe percentiles off log-bucket timers.")
    term

(* --- latency: per-request tail anatomy --- *)

let latency_cmd =
  let traces =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"TRACE"
          ~doc:
            "JSONL trace files, concatenated in order: the daemon's \
             $(b,serve --trace) stream (req_begin/req_stage/req_end) and/or \
             the load generator's $(b,loadgen --trace) client log \
             (req_client).  Records join by rid.")
  in
  let top =
    Arg.(
      value & opt int 5
      & info [ "top" ] ~docv:"N"
          ~doc:
            "Show the N slowest completed requests with their full stage \
             breakdown (0 = none).")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Verify trace consistency — every req_end has its req_begin, no \
             duplicate req_ends per rid, no negative stage or total \
             durations — and exit 1 on any violation (the verify.sh tracing \
             gate).")
  in
  let perfetto =
    Arg.(
      value
      & opt (some string) None
      & info [ "perfetto" ] ~docv:"FILE"
          ~doc:
            "Export the completed requests as Chrome/Perfetto trace-event \
             JSON: one track per stage plus a network+queue residual track \
             for joined requests, requests laid end-to-end.")
  in
  let run traces top check perfetto =
    let a = load_traces traces in
    let reqs = Analysis.requests a in
    let complete = List.filter (fun r -> r.Analysis.rq_complete) reqs in
    let at = Analysis.attribution a in
    Printf.printf
      "requests: %d rids, %d complete server-side, %d joined with a client \
       record\n"
      (List.length reqs) (List.length complete) at.Analysis.at_joined;
    (match Analysis.stage_anatomy a with
    | [] -> ()
    | stats ->
      Printf.printf "stage anatomy (completed requests; tail = totals >= p99):\n";
      Printf.printf "  %-14s %8s %12s %12s %12s %12s %10s\n" "stage" "count"
        "total_s" "p50_s" "p95_s" "p99_s" "tail_share";
      List.iter
        (fun s ->
          Printf.printf "  %-14s %8d %12.6f %12.6f %12.6f %12.6f %9.1f%%\n"
            s.Analysis.st_stage s.Analysis.st_count s.Analysis.st_total_s
            s.Analysis.st_p50_s s.Analysis.st_p95_s s.Analysis.st_p99_s
            (100. *. s.Analysis.st_tail_share))
        stats);
    if at.at_client_s > 0. then begin
      let n = at.at_joined in
      Printf.printf
        "join: %d requests; stages + network residual attribute %.2f%% of \
         client-observed latency\n"
        n
        (100. *. at.at_client_s /. at.at_bound_s);
      Printf.printf
        "      %.3f%% of requests are >=95%% attributed; %d over-attributed \
         (stage sum past the client clock: scheduler preemption at the \
         reply write)\n"
        (100. *. float_of_int at.at_attributed_95 /. float_of_int n)
        at.at_over;
      Printf.printf
        "      server stages explain %.2f%%; mean network+queue residual \
         %.6fs\n"
        (100. *. at.at_server_s /. at.at_client_s)
        ((at.at_client_s -. at.at_server_s) /. float_of_int n)
    end;
    (if top > 0 then
       let slowest =
         List.sort
           (fun x y ->
             Float.compare y.Analysis.rq_total_s x.Analysis.rq_total_s)
           complete
       in
       match take top slowest with
       | [] -> ()
       | rows ->
         Printf.printf "slowest requests (by server stage sum):\n";
         Printf.printf "  %-10s %-10s %-3s %12s %12s  %s\n" "rid" "verb" "ok"
           "total_s" "client_s" "stages";
         List.iter
           (fun r ->
             let client_s =
               match r.Analysis.rq_client with
               | Some (_, _, latency) -> Printf.sprintf "%12.6f" latency
               | None -> Printf.sprintf "%12s" "-"
             in
             let stages =
               String.concat " "
                 (List.map
                    (fun (name, s) -> Printf.sprintf "%s=%.6f" name s)
                    r.Analysis.rq_stages)
             in
             Printf.printf "  %-10d %-10s %-3s %12.6f %s  %s\n"
               r.Analysis.rq_rid r.Analysis.rq_verb
               (if r.Analysis.rq_ok then "ok" else "err")
               r.Analysis.rq_total_s client_s stages)
           rows);
    (match perfetto with
    | None -> ()
    | Some path ->
      write_json path (Analysis.requests_to_perfetto a);
      Printf.printf "perfetto request anatomy written to %s\n" path);
    if check then begin
      match Analysis.request_check a with
      | [] -> Printf.printf "check: ok\n"
      | violations ->
        List.iter (fun v -> Printf.eprintf "drqos_cli: check: %s\n" v) violations;
        exit 1
    end
  in
  let term = Term.(const run $ traces $ top $ check $ perfetto) in
  Cmd.v
    (Cmd.info "latency"
       ~doc:
         "Per-request tail-latency anatomy from recorded request traces: \
          join the daemon's req_begin/req_stage/req_end records with the \
          load generator's req_client log by rid, report per-stage \
          percentiles and each stage's share of the tail mass, list the \
          slowest requests, check trace consistency, and export a \
          per-stage Perfetto view.")
    term

let () =
  let doc = "dependable real-time communication with elastic QoS (Kim & Shin, DSN 2001)" in
  let info = Cmd.info "drqos_cli" ~version:"1.0.0" ~doc in
  (* Repo convention (PR 1/PR 2, bench/main and drqos_lint alike): usage
     errors — unknown sub-command, unknown flag, malformed argument —
     exit 2 with usage on stderr, not cmdliner's default 124. *)
  let code =
    Cmd.eval
      (Cmd.group info
         [
           run_cmd; sweep_cmd; topo_cmd; chain_cmd; analyze_cmd; perfdiff_cmd;
           fuzz_cmd; top_cmd; serve_cmd; loadgen_cmd; latency_cmd;
         ])
  in
  exit (if code = Cmd.Exit.cli_error then 2 else code)
