type topology =
  | Waxman of Waxman.spec
  | Transit_stub of Transit_stub.spec
  | Fixed of Graph.t

type config = {
  topology : topology;
  capacity : Bandwidth.t;
  multiplexing : bool;
  qos : Qos.t;
  service : Drcomm.Config.t;
  offered : int;
  lambda : float;
  mu : float;
  gamma : float;
  repair_rate : float;
  warmup_events : int;
  churn_events : int;
  seed : int;
}

let default =
  {
    topology = Waxman (Waxman.paper_spec ~nodes:100);
    capacity = Bandwidth.paper_link_capacity;
    multiplexing = true;
    qos = Qos.paper_spec ~increment:(Bandwidth.kbps 50);
    service = Drcomm.Config.default;
    offered = 3000;
    lambda = 0.001;
    mu = 0.001;
    gamma = 0.;
    repair_rate = 0.01;
    warmup_events = 500;
    churn_events = 3000;
    seed = 1;
  }

type result = {
  config : config;
  graph : Graph.t;
  offered : int;
  carried_initial : int;
  carried_final : int;
  rejected_load : int;
  rejected_churn : int;
  dropped : int;
  failures_injected : int;
  recovered_by_backup : int;
  restored_from_scratch : int;
  sim_avg_bandwidth : float;
  sim_avg_level : float;
  model_avg_bandwidth : float;
  ideal_avg_bandwidth : float;
  avg_hops : float;
  estimator : Estimator.t;
  channel_bandwidth_dist : float array;
}

let build_graph rng = function
  | Waxman spec -> Waxman.generate rng spec
  | Transit_stub spec -> (Transit_stub.generate rng spec).Transit_stub.graph
  | Fixed g -> g

(* Mutable measurement state for the churn phase. *)
type probe = {
  levels : int;
  mutable last_time : float;
  mutable weighted_bw : float;  (* integral of avg bandwidth dt *)
  mutable weighted_level : float;
  mutable weighted_occupancy : float array;  (* per level: channel-time *)
  mutable span : float;
}

let probe_create ~levels ~start =
  {
    levels;
    last_time = start;
    weighted_bw = 0.;
    weighted_level = 0.;
    weighted_occupancy = Array.make levels 0.;
    span = 0.;
  }

let probe_tick probe service ~now ~qos =
  let dt = now -. probe.last_time in
  if dt > 0. then begin
    let n = Drcomm.count service in
    if n > 0 then begin
      let counts = Drcomm.level_histogram service ~max_levels:probe.levels in
      let total_bw = ref 0 and total_level = ref 0 in
      Array.iteri
        (fun lvl c ->
          total_bw := !total_bw + (c * Qos.bandwidth_of_level qos lvl);
          total_level := !total_level + (c * lvl);
          probe.weighted_occupancy.(lvl) <-
            probe.weighted_occupancy.(lvl) +. (float_of_int c *. dt))
        counts;
      let nf = float_of_int n in
      probe.weighted_bw <- probe.weighted_bw +. (float_of_int !total_bw /. nf *. dt);
      probe.weighted_level <-
        probe.weighted_level +. (float_of_int !total_level /. nf *. dt);
      probe.span <- probe.span +. dt
    end;
    probe.last_time <- now
  end

let probe_avg_bw probe = if probe.span > 0. then probe.weighted_bw /. probe.span else 0.
let probe_avg_level probe =
  if probe.span > 0. then probe.weighted_level /. probe.span else 0.

let probe_distribution probe =
  let total = Array.fold_left ( +. ) 0. probe.weighted_occupancy in
  if total <= 0. then Array.make probe.levels 0.
  else Array.map (fun x -> x /. total) probe.weighted_occupancy

(* One churn step: draw the next event time and kind from the competing
   exponentials, apply it, and reschedule.  Runs inside the engine so the
   event-driven substrate is exercised end-to-end. *)
type churn = {
  cfg : config;
  service : Drcomm.t;
  rng : Prng.t;
  est : Estimator.t;
  probe : probe;
  mutable measuring : bool;
  mutable events_done : int;
  mutable rejected : int;
  mutable failures : int;
  mutable switched : int;
  mutable restored : int;
  mutable stop_after : int;
  m_arrivals : Metrics.counter;
  m_terminations : Metrics.counter;
  m_failures : Metrics.counter;
  m_repairs : Metrics.counter;
}

let random_pair rng n = Prng.sample_distinct_pair rng n

let churn_arrival c =
  Metrics.incr c.m_arrivals;
  let g = Net_state.graph (Drcomm.net c.service) in
  let src, dst = random_pair c.rng (Graph.node_count g) in
  match Drcomm.admit ~want_indirect:c.measuring c.service ~src ~dst ~qos:c.cfg.qos with
  | Admitted (_, report) -> if c.measuring then Estimator.observe_arrival c.est report
  | Rejected _ ->
    c.rejected <- c.rejected + 1;
    (* A rejected request still counts as an arrival for the estimator's
       P_f denominator?  No: the paper's chain is conditioned on accepted
       channels interacting; a rejection changes nobody's level, so we
       skip it (its A-row would be all-diagonal noise). *)
    ()

let churn_termination c =
  Metrics.incr c.m_terminations;
  let n = Drcomm.count c.service in
  if n > 0 then begin
    (* O(1) uniform victim pick off the dense live array — materialising
       the whole live set per termination is what capped the old churn
       loop at small populations. *)
    let id = Drcomm.nth_channel c.service (Prng.int c.rng n) in
    let report = Drcomm.terminate ~report:c.measuring c.service id in
    if c.measuring then Estimator.observe_termination c.est report
  end

let churn_failure c =
  Metrics.incr c.m_failures;
  let net = Drcomm.net c.service in
  let g = Net_state.graph net in
  let working =
    List.filter
      (fun e -> not (Net_state.edge_failed net e))
      (List.init (Graph.edge_count g) Fun.id)
  in
  match working with
  | [] -> ()
  | edges ->
    let e = Prng.pick_list c.rng edges in
    c.failures <- c.failures + 1;
    let freport = Drcomm.fail_edge c.service e in
    List.iter
      (fun r ->
        match r.Drcomm.outcome with
        | `Switched_to_backup _ -> c.switched <- c.switched + 1
        | `Restored _ -> c.restored <- c.restored + 1
        | `Dropped | `Backup_lost _ -> ())
      freport.Drcomm.recoveries;
    if c.measuring then Estimator.observe_failure c.est freport.Drcomm.event

let churn_repair c =
  Metrics.incr c.m_repairs;
  let net = Drcomm.net c.service in
  match Net_state.failed_edges net with
  | [] -> ()
  | edges ->
    let e = Prng.pick_list c.rng edges in
    Drcomm.repair_edge c.service e

let rec schedule_churn c engine =
  if c.events_done < c.stop_after then begin
    let net = Drcomm.net c.service in
    let failed = Net_state.failed_count net in
    let rate_repair = c.cfg.repair_rate *. float_of_int failed in
    let rate_term = if Drcomm.count c.service > 0 then c.cfg.mu else 0. in
    let total = c.cfg.lambda +. rate_term +. c.cfg.gamma +. rate_repair in
    if total > 0. then begin
      let dt = Prng.exponential c.rng total in
      Engine.schedule engine ~delay:dt (fun engine ->
          probe_tick c.probe c.service ~now:(Engine.now engine) ~qos:c.cfg.qos;
          let u = Prng.float c.rng total in
          if u < c.cfg.lambda then churn_arrival c
          else if u < c.cfg.lambda +. rate_term then churn_termination c
          else if u < c.cfg.lambda +. rate_term +. c.cfg.gamma then churn_failure c
          else churn_repair c;
          c.events_done <- c.events_done + 1;
          schedule_churn c engine)
    end
  end

let run ?(obs = Obs.null) ?snapshot (cfg : config) =
  if cfg.offered < 0 then invalid_arg "Scenario.run: negative offered count";
  if cfg.lambda <= 0. || cfg.mu <= 0. then
    invalid_arg "Scenario.run: lambda and mu must be positive";
  if cfg.gamma < 0. || cfg.repair_rate < 0. then
    invalid_arg "Scenario.run: negative failure/repair rate";
  let topo_rng = Prng.create cfg.seed in
  let workload_rng = Prng.split topo_rng in
  let graph = build_graph topo_rng cfg.topology in
  let net = Net_state.create ~multiplexing:cfg.multiplexing ~capacity:cfg.capacity graph in
  let service = Drcomm.create ~config:cfg.service ~obs net in
  (* Load phase: attempt [offered] set-ups.  Redistribution is deferred to
     one global pass — per-event adaptation only matters once we measure,
     and the warmup churn re-equilibrates the allocation anyway. *)
  let rejected_load = ref 0 in
  let n = Graph.node_count graph in
  Obs.span obs "load" (fun () ->
      Drcomm.set_auto_redistribute service false;
      for _ = 1 to cfg.offered do
        let src, dst = random_pair workload_rng n in
        match
          Drcomm.admit ~want_indirect:false ~want_report:false service ~src ~dst
            ~qos:cfg.qos
        with
        | Admitted _ -> ()
        | Rejected _ -> incr rejected_load
      done;
      (* Every loaded channel dirtied its links, so flushing the pending
         set is the global pass. *)
      Drcomm.redistribute_pending service;
      Drcomm.set_auto_redistribute service true);
  let carried_initial = Drcomm.count service in
  let avg_hops =
    match Drcomm.active_channels service with
    | [] -> 0.
    | ids ->
      let total =
        List.fold_left
          (fun acc id -> acc + List.length (Drcomm.primary_links service id))
          0 ids
      in
      float_of_int total /. float_of_int (List.length ids)
  in
  (* Churn phase. *)
  let levels = Qos.levels cfg.qos in
  let est = Estimator.create ~levels in
  let engine = Engine.create ~obs () in
  (* Trace timestamps now follow the simulation clock. *)
  Obs.set_clock obs (fun () -> Engine.now engine);
  (* Telemetry heartbeats: the emitter reads everything through this
     source, all of it simulation state except the wall-clock beats. *)
  Option.iter
    (fun snap ->
      (* Event-time SLO: an admission is good, a rejection or
         failure-drop bad — pure simulation state.  Baselined at source
         construction so worker-registry reuse across sweep points (the
         counters are registry-cumulative) cannot leak into the stream;
         the per-run deltas are byte-identical whatever [--jobs] is. *)
      let slo =
        let m = Obs.metrics obs in
        let c_good = Metrics.counter m "drcomm.admits" in
        let c_rej = Metrics.counter m "drcomm.rejects" in
        let c_drop = Metrics.counter m "drcomm.drops" in
        let g0 = Metrics.count c_good in
        let b0 = Metrics.count c_rej + Metrics.count c_drop in
        fun () ->
          ( Metrics.count c_good - g0,
            Metrics.count c_rej + Metrics.count c_drop - b0 )
      in
      let source =
        {
          Snapshot.sim_time = (fun () -> Engine.now engine);
          events = (fun () -> Engine.dispatched engine);
          live_by_level =
            (fun () -> Drcomm.level_histogram service ~max_levels:levels);
          hot = (fun () -> Drcomm.hot_links service ~k:5);
          counters = (fun () -> Metrics.counter_values (Obs.metrics obs));
          slo;
        }
      in
      Snapshot.start snap source;
      Option.iter
        (fun every ->
          Engine.on_heartbeat engine ~every (fun _ -> Snapshot.tick snap))
        (Snapshot.sim_every snap);
      Option.iter
        (fun every_s ->
          Engine.on_wall_heartbeat engine ~every_s (fun _ ->
              Snapshot.wall_tick snap))
        (Snapshot.wall_every snap))
    snapshot;
  let probe = probe_create ~levels ~start:0. in
  let churn =
    {
      cfg;
      service;
      rng = workload_rng;
      est;
      probe;
      measuring = false;
      events_done = 0;
      rejected = 0;
      failures = 0;
      switched = 0;
      restored = 0;
      stop_after = cfg.warmup_events;
      m_arrivals = Obs.counter obs "scenario.churn_arrivals";
      m_terminations = Obs.counter obs "scenario.churn_terminations";
      m_failures = Obs.counter obs "scenario.churn_failures";
      m_repairs = Obs.counter obs "scenario.churn_repairs";
    }
  in
  (* Warmup: churn without measuring. *)
  Obs.span obs "warmup" (fun () ->
      schedule_churn churn engine;
      ignore (Engine.run engine));
  (* Reset measurement state and run the measured window. *)
  churn.measuring <- true;
  churn.rejected <- 0;
  probe.last_time <- Engine.now engine;
  probe.weighted_bw <- 0.;
  probe.weighted_level <- 0.;
  probe.weighted_occupancy <- Array.make levels 0.;
  probe.span <- 0.;
  churn.stop_after <- cfg.warmup_events + cfg.churn_events;
  Obs.span obs "measure" (fun () ->
      schedule_churn churn engine;
      ignore (Engine.run engine));
  probe_tick probe service ~now:(Engine.now engine) ~qos:cfg.qos;
  Drcomm.check_invariants service;
  let model_avg =
    Obs.span obs "solve" (fun () ->
        let params =
          Model.params_of_estimator ~lambda:cfg.lambda ~mu:cfg.mu ~gamma:cfg.gamma est
        in
        Model.average_bandwidth_regularized ~obs params ~qos:cfg.qos)
  in
  let ideal =
    let hops = if avg_hops > 0. then avg_hops else Paths.average_hops graph in
    let channels = max 1 carried_initial in
    Ideal.bandwidth_capped ~qos:cfg.qos ~link_bandwidth:cfg.capacity
      ~links:(2 * Graph.edge_count graph) ~channels ~avg_hops:hops
  in
  {
    config = cfg;
    graph;
    offered = cfg.offered;
    carried_initial;
    carried_final = Drcomm.count service;
    rejected_load = !rejected_load;
    rejected_churn = churn.rejected;
    dropped = Drcomm.dropped_connections service;
    failures_injected = churn.failures;
    recovered_by_backup = churn.switched;
    restored_from_scratch = churn.restored;
    sim_avg_bandwidth = probe_avg_bw probe;
    sim_avg_level = probe_avg_level probe;
    model_avg_bandwidth = model_avg;
    ideal_avg_bandwidth = ideal;
    avg_hops;
    estimator = est;
    channel_bandwidth_dist = probe_distribution probe;
  }

let pp_result ppf r =
  Format.fprintf ppf
    "@[<v>offered %d, carried %d -> %d (rejected %d load / %d churn, dropped %d)@,\
     sim avg bandwidth %.1f Kbps (level %.2f), model %.1f Kbps, ideal %.1f Kbps@,\
     avg hops %.2f, failures %d@,%a@]"
    r.offered r.carried_initial r.carried_final r.rejected_load r.rejected_churn
    r.dropped r.sim_avg_bandwidth r.sim_avg_level r.model_avg_bandwidth
    r.ideal_avg_bandwidth r.avg_hops r.failures_injected Estimator.pp_summary
    r.estimator

type summary = {
  runs : int;
  sim_mean : float;
  sim_ci : float * float;
  model_mean : float;
  model_ci : float * float;
  carried_mean : float;
  dropped_total : int;
}

let summarize results =
  let sim = Stats.Welford.create () in
  let model = Stats.Welford.create () in
  let carried = Stats.Welford.create () in
  let dropped = ref 0 in
  List.iter
    (fun r ->
      Stats.Welford.add sim r.sim_avg_bandwidth;
      Stats.Welford.add model r.model_avg_bandwidth;
      Stats.Welford.add carried (float_of_int r.carried_initial);
      dropped := !dropped + r.dropped)
    results;
  {
    runs = List.length results;
    sim_mean = Stats.Welford.mean sim;
    sim_ci = Stats.Welford.confidence_interval sim;
    model_mean = Stats.Welford.mean model;
    model_ci = Stats.Welford.confidence_interval model;
    carried_mean = Stats.Welford.mean carried;
    dropped_total = !dropped;
  }

let run_replications ?(seeds = [ 1; 2; 3; 4; 5 ]) ?obs ?jobs (cfg : config) =
  if seeds = [] then invalid_arg "Scenario.run_replications: no seeds";
  let results = Sweep.map ?jobs ?obs (fun obs seed -> run ~obs { cfg with seed }) seeds in
  (results, summarize results)

let pp_summary ppf s =
  let lo, hi = s.sim_ci and mlo, mhi = s.model_ci in
  Format.fprintf ppf
    "@[<v>%d replications: sim %.1f Kbps [%.1f, %.1f], model %.1f Kbps [%.1f, %.1f]@,\
     carried %.0f on average, %d dropped in total@]"
    s.runs s.sim_mean lo hi s.model_mean mlo mhi s.carried_mean s.dropped_total
