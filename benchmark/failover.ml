(* Link failure and backup activation on the paper's network: the
   calibrated 100-node Waxman at 10 Mbps, QoS 100-500 Kbps in steps of
   50, one backup required per connection.  The window runs passes.  A
   pass sets up a fresh service loaded with the offered connections,
   drawn from the next seed of the stream, then fails every edge once in
   a shuffled order: each cycle fails an edge (the timed operation),
   repairs it, and admits new connections until the live count is back
   at its post-load level.  Every pass thus meets the whole mix of light
   and heavily loaded edges on an independent load, and the set-ups give
   the median set-up time.  This is the only workload on the
   backup-activation and re-protection path. *)

open Kit

let topology_seed = 1
let qos = Qos.paper_spec ~increment:(Bandwidth.kbps 50)
let config = Drcomm.Config.make ()
let hop_bound = Drcomm.Config.hop_bound config
let offered env = if env.smoke then 300 else 1500

type state = {
  service : Drcomm.t;
  rng : Prng.t;
  nodes : int;
  edges : int;
  target : int;  (** live count after the load. *)
  topology_s : float;
  setup_s : float;
  load_admit : Samples.t;
}

let setup env seed =
  let t0 = now () in
  let g = Waxman.generate (Prng.create topology_seed) (Waxman.paper_spec ~nodes:100) in
  let topology_s = now () -. t0 in
  let service =
    Drcomm.create ~config ~obs:Obs.null
      (Net_state.create ~capacity:Bandwidth.paper_link_capacity g)
  in
  let rng = Prng.create seed in
  let nodes = Graph.node_count g in
  let load_admit = Samples.create () in
  Drcomm.set_auto_redistribute service false;
  for _ = 1 to offered env do
    let src, dst = Prng.sample_distinct_pair rng nodes in
    let t = now () in
    ignore (Drcomm.admit ~want_indirect:false ~want_report:false service ~src ~dst ~qos);
    Samples.add load_admit (now () -. t)
  done;
  Drcomm.redistribute_pending service;
  Drcomm.set_auto_redistribute service true;
  {
    service;
    rng;
    nodes;
    edges = Graph.edge_count g;
    target = Drcomm.count service;
    topology_s;
    setup_s = now () -. t0;
    load_admit;
  }

type tally = {
  mutable victims : int;
  mutable switched : int;
  mutable refill_rejects : int;
}

(* This workload runs with the major GC's space overhead at 80 (OCaml
   4's default) instead of OCaml 5's 120.  A pass's live data is small
   beside the garbage its recovery bursts leave, and at 120 its peak
   moved by 3-4% between seeds with where the GC's cycles ended against
   the largest bursts; at 80, 1.5-3%.  (paper_fig2's peak is steadier
   at 120, and the other two are as steady at either.) *)
let space_overhead = 80

let run env =
  Gc.set { (Gc.get ()) with Gc.space_overhead };
  let seeds = Prng.create env.seed in
  let traced_prof = profiler env in
  (* [latency] holds the timed operations of plain passes, and
     [plain_op] and [traced_op] the durations of whole cycles; the cycle
     rate leaves out the passes' set-ups and audits. *)
  let latency = Samples.create () and cycles = ref 0 in
  let plain_op = Samples.create () and traced_op = Samples.create () in
  let recovery = Samples.create () and fail_flush = Samples.create () in
  let refill_admit = Samples.create () and load_admit = Samples.create () in
  let setup_s = Samples.create () and topology_s = Samples.create () in
  let p = probes () in
  let probed_admit_s = ref 0. in
  let layer_s = ref 0. and victims = ref 0 in
  let digest = ref [] in
  (* One failure cycle on edge [e].  In instrumented passes
     water-filling is switched off and flushed right after each call, so
     recovery and redistribution are timed apart; the flush covers the
     same dirty links the call would have flushed itself, so the state
     is the same.  Plain passes of the traced run record no spans. *)
  let cycle st tally ~split e =
    let svc = st.service in
    let prof = if split then traced_prof else Span.disabled in
    let flush ?into () =
      if not split then 0.
      else begin
        let _, d =
          call prof ?into "drcomm.redistribute_pending" (fun () ->
              Drcomm.redistribute_pending svc)
        in
        layer_s := !layer_s +. d;
        d
      end
    in
    (* The cycle's calls; returns the timed operation's latency. *)
    let body () =
      Drcomm.set_auto_redistribute svc (not split);
      let report, d_fail = call prof "drcomm.fail_edge" (fun () -> Drcomm.fail_edge svc e) in
      layer_s := !layer_s +. d_fail;
      if split then Samples.add recovery d_fail;
      let op_latency = d_fail +. flush ~into:fail_flush () in
      List.iter
        (fun r ->
          tally.victims <- tally.victims + 1;
          match r.Drcomm.outcome with
          | `Switched_to_backup _ -> tally.switched <- tally.switched + 1
          | `Dropped | `Restored _ | `Backup_lost _ -> ())
        report.Drcomm.recoveries;
      let _, d_repair = call prof "drcomm.repair_edge" (fun () -> Drcomm.repair_edge svc e) in
      layer_s := !layer_s +. d_repair;
      let attempts = ref 0 in
      let budget = (4 * (st.target - Drcomm.count svc)) + 8 in
      while Drcomm.count svc < st.target && !attempts < budget do
        incr attempts;
        let src, dst = Prng.sample_distinct_pair st.rng st.nodes in
        if split then
          layer_s :=
            !layer_s
            +. probe_routes prof p (Drcomm.net svc) ~hop_bound ~src ~dst ~floor:qos.Qos.b_min;
        let r, d =
          call prof "drcomm.admit" (fun () ->
              Drcomm.admit ~want_indirect:false ~want_report:false svc ~src ~dst ~qos)
        in
        layer_s := !layer_s +. d;
        if split then probed_admit_s := !probed_admit_s +. d
        else Samples.add refill_admit d;
        ignore (flush ());
        match r with
        | Drcomm.Admitted _ -> ()
        | Drcomm.Rejected _ -> tally.refill_rejects <- tally.refill_rejects + 1
      done;
      op_latency
    in
    incr cycles;
    let t0 = now () in
    let op_latency = Span.wrap prof "cycle" body in
    let d = now () -. t0 in
    if not split then Samples.add latency op_latency;
    Samples.add (if split then traced_op else plain_op) d
  in
  (* One pass on the load drawn from [load_seed]; returns its set-up
     time. *)
  let pass k ~load_seed =
    let st = setup env load_seed in
    Samples.add topology_s st.topology_s;
    Array.iter (Samples.add load_admit) (Samples.to_array st.load_admit);
    let split = instrumented env ~block:1 k in
    let tally = { victims = 0; switched = 0; refill_rejects = 0 } in
    let order = Array.init st.edges Fun.id in
    Prng.shuffle st.rng order;
    Array.iter
      (fun e ->
        try cycle st tally ~split e
        with ex ->
          Printf.eprintf "failover: edge %d raised %s\n%!" e (Printexc.to_string ex);
          Samples.add_failed latency)
      order;
    victims := !victims + tally.victims;
    Drcomm.set_auto_redistribute st.service true;
    Drcomm.check_invariants st.service;
    if k = 0 then
      digest :=
        [
          dint "cycles" st.edges;
          dint "live" (Drcomm.count st.service);
          dint "total_reserved" (Drcomm.total_reserved st.service);
          dint "victims" tally.victims;
          dint "switched" tally.switched;
          dint "dropped" (Drcomm.dropped_connections st.service);
          dint "refill_rejects" tally.refill_rejects;
        ];
    st.setup_s
  in
  (* Untraced passes run in a child process each and report the median
     of their peak memories.  In one process the peak crept up from pass
     to pass, so it followed how many passes the window got through;
     every child starts from the same memory instead.  Only the figures
     the untraced metrics need come back from the child, and the load
     seeds are drawn here, so the stream advances as in one process. *)
  let peaks = Samples.create () in
  let isolated k ~load_seed =
    let cycles0 = !cycles and failed0 = Samples.failed latency in
    let (setup, pass_cycles, pass_failed, pass_digest), peak =
      in_child (fun () ->
          let setup = pass k ~load_seed in
          (setup, !cycles - cycles0, Samples.failed latency - failed0, !digest))
    in
    Samples.add setup_s setup;
    cycles := !cycles + pass_cycles;
    for _ = 1 to pass_failed do
      Samples.add_failed latency
    done;
    digest := pass_digest;
    Samples.add peaks peak
  in
  let run_pass k =
    let load_seed = Prng.int seeds 1_000_000_000 in
    if env.traced then Samples.add setup_s (pass k ~load_seed) else isolated k ~load_seed
  in
  let g0 = Gc.quick_stat () in
  (* The traced run needs a plain and an instrumented pass, the median
     peak at least three passes. *)
  let passes, _ =
    window ~seconds:env.seconds ~min_ops:(if env.traced then 2 else 3) run_pass
  in
  let g1 = Gc.quick_stat () in
  let n = !cycles in
  let metrics =
    if not env.traced then
      [
        metric ~samples:passes "setup_s" (Samples.quantile setup_s 0.5);
        metric ~samples:passes "peak_rss_mb" (Samples.quantile peaks 0.5);
      ]
    else
      [
        metric ~samples:passes "topology.generate_s" (Samples.quantile topology_s 0.5);
        metric ~samples:(Samples.count load_admit) "core.load_admit_us"
          (us (Samples.mean load_admit));
        metric ~samples:n "core.victims_per_fail"
          (float_of_int !victims /. float_of_int n);
        metric ~samples:n "obs.trace_overhead_pct"
          (overhead_pct ~traced:traced_op ~plain:plain_op);
        metric ~samples:n "unattributed_share"
          (1. -. (!layer_s /. (Samples.sum plain_op +. Samples.sum traced_op)));
      ]
      @ op_metrics ~n:(Samples.count plain_op) ~busy_s:(Samples.sum plain_op) latency
      @ quantiles_us "core.fail_edge_us" recovery
      @ quantiles_us "core.fail_redistribute_us" fail_flush
      @ quantiles_us "core.admit_us" refill_admit
      @ routing_metrics p ~admit_s:!probed_admit_s
      @ gc_metrics g0 g1 ~ops:n
  in
  {
    attempted = n;
    failed = Samples.failed latency;
    digest = !digest;
    metrics;
    spans = spans_json traced_prof;
  }
