(* Ablation benches for the design choices DESIGN.md calls out:
   backup multiplexing, elastic vs single-value QoS, the three
   redistribution policies, passive backups vs active replication, and
   bounded-flooding overhead. *)

let paper_graph seed = Waxman.generate (Prng.create seed) (Waxman.paper_spec ~nodes:100)

let offered_for = function Exp.Full -> 3000 | Exp.Quick -> 800

(* 1. Backup multiplexing on/off: how many DR-connections fit, and how
   much bandwidth the backup pools consume. *)
let multiplexing scale =
  {
    Exp.name = "ablation_a_multiplexing";
    points =
      List.map
        (fun multiplexing ->
          { (Exp.paper_config ~scale ~offered:(offered_for scale) ~increment:50 ~seed:1) with
            Scenario.multiplexing;
            capacity = Bandwidth.mbps 2 })
        [ true; false ];
    render =
      (fun results ->
        Exp.section "Ablation A: backup-channel multiplexing (overbooking) on/off";
        Exp.note "2 Mbps links so that backup pools contend with floors";
        let rows =
          List.map
            (fun (r, _) ->
              [
                (if r.Scenario.config.Scenario.multiplexing then "multiplexed"
                 else "dedicated");
                string_of_int r.Scenario.offered;
                string_of_int r.Scenario.carried_initial;
                string_of_int r.Scenario.rejected_load;
                Exp.kbps r.Scenario.sim_avg_bandwidth;
              ])
            results
        in
        Exp.table ~export:"ablation_a_multiplexing"
          ~header:[ "backup pools"; "offered"; "carried"; "rejected"; "sim Kbps" ]
          ~rows ();
        Exp.note
          "expected: dedicated (non-multiplexed) backup reservations crowd out floors,";
        Exp.note "admitting fewer DR-connections — the paper's overbooking argument.");
  }

(* 2. Elastic vs single-value QoS: the paper's introduction in one table.
   A single-value client asking for the maximum blocks the network; one
   asking for the minimum wastes idle capacity; elastic gets both. *)
let elasticity scale =
  let offered = offered_for scale in
  let variants =
    [
      ("single-value 500K", Qos.single_value 500);
      ("single-value 100K", Qos.single_value 100);
      ("elastic 100..500K", Qos.paper_spec ~increment:50);
    ]
  in
  {
    Exp.name = "ablation_b_elasticity";
    points =
      List.map
        (fun (_, qos) ->
          { (Exp.paper_config ~scale ~offered ~increment:50 ~seed:1) with Scenario.qos })
        variants;
    render =
      (fun results ->
        Exp.section "Ablation B: elastic QoS vs single-value QoS";
        let rows =
          List.map2
            (fun (label, _) (r, _) ->
              [
                label;
                string_of_int offered;
                string_of_int r.Scenario.carried_initial;
                Exp.kbps r.Scenario.sim_avg_bandwidth;
                (* Served volume: carried x average bandwidth, in Mbps. *)
                Printf.sprintf "%.0f"
                  (float_of_int r.Scenario.carried_initial
                  *. r.Scenario.sim_avg_bandwidth /. 1000.);
              ])
            variants results
        in
        Exp.table ~export:"ablation_b_elasticity"
          ~header:[ "QoS model"; "offered"; "carried"; "avg Kbps"; "served Mbps" ]
          ~rows ();
        Exp.note "expected: 500K single-value accepts fewest; 100K single-value accepts";
        Exp.note "many but serves each minimally; elastic accepts like 100K and serves";
        Exp.note "like 500K while capacity lasts — the paper's utilisation claim.");
  }

(* 3. Redistribution policies with mixed utilities: two client classes
   (utility 1 and 4) on the paper network; how does each policy share the
   extras? *)
let policies obs scale =
  Exp.section "Ablation C: adaptation policy vs per-class average bandwidth";
  let offered = match scale with Exp.Full -> 1500 | Exp.Quick -> 400 in
  let qos_low = Qos.make ~b_min:100 ~b_max:500 ~increment:50 ~utility:1. () in
  let qos_high = Qos.make ~b_min:100 ~b_max:500 ~increment:50 ~utility:4. () in
  Exp.note "2 Mbps links; two client classes (utility 1 and 4), alternating";
  let run_policy policy =
    let g = paper_graph 1 in
    let net = Net_state.create ~capacity:(Bandwidth.mbps 2) g in
    let cfg = Drcomm.Config.make ~policy () in
    let service = Drcomm.create ~config:cfg ~obs net in
    let rng = Prng.create 42 in
    let low = ref [] and high = ref [] in
    for i = 1 to offered do
      let src, dst = Prng.sample_distinct_pair rng (Graph.node_count g) in
      let qos = if i mod 2 = 0 then qos_high else qos_low in
      match Drcomm.admit ~want_indirect:false service ~src ~dst ~qos with
      | Drcomm.Admitted (id, _) ->
        if i mod 2 = 0 then high := id :: !high else low := id :: !low
      | Drcomm.Rejected _ -> ()
    done;
    let avg ids =
      let ids = List.filter (Drcomm.mem service) ids in
      match ids with
      | [] -> 0.
      | _ ->
        float_of_int
          (List.fold_left (fun acc id -> acc + Drcomm.reserved_bandwidth service id) 0 ids)
        /. float_of_int (List.length ids)
    in
    (avg !low, avg !high)
  in
  let rows =
    List.map
      (fun policy ->
        let low, high = run_policy policy in
        [
          Format.asprintf "%a" Policy.pp policy;
          Exp.kbps low;
          Exp.kbps high;
          Printf.sprintf "%.2f" (if low > 0. then high /. low else 0.);
        ])
      Policy.all
  in
  Exp.table ~export:"ablation_c_policies"
    ~header:[ "policy"; "utility-1 avg Kbps"; "utility-4 avg Kbps"; "ratio" ]
    ~rows ();
  Exp.note "expected: equal-share ~1.0 ratio; proportional rewards utility in";
  Exp.note "proportion; max-utility lets high-utility channels monopolise extras."

(* 4. Passive backups vs active replication: standing resource cost and
   blocking as load grows. *)
let replication obs scale =
  Exp.section "Ablation D: passive backup channels vs active replication";
  let offered = match scale with Exp.Full -> 2000 | Exp.Quick -> 500 in
  let bandwidth = 100 in
  let g = paper_graph 1 in
  let run_backup () =
    let net = Net_state.create g in
    let service = Drcomm.create ~obs net in
    let rng = Prng.create 42 in
    let carried = ref 0 in
    for _ = 1 to offered do
      let src, dst = Prng.sample_distinct_pair rng (Graph.node_count g) in
      match
        Drcomm.admit ~want_indirect:false service ~src ~dst ~qos:(Qos.single_value bandwidth)
      with
      | Drcomm.Admitted _ -> incr carried
      | Drcomm.Rejected _ -> ()
    done;
    ( "backup channels",
      !carried,
      Net_state.total_primary_reserved net + Net_state.total_backup_pool net )
  in
  let run_active label scheme =
    let net = Net_state.create g in
    let service = Replication.create scheme net in
    let rng = Prng.create 42 in
    let carried = ref 0 in
    for _ = 1 to offered do
      let src, dst = Prng.sample_distinct_pair rng (Graph.node_count g) in
      match Replication.admit service ~src ~dst ~bandwidth with
      | `Admitted _ -> incr carried
      | `Rejected -> ()
    done;
    (label, !carried, Net_state.total_primary_reserved net)
  in
  let rows =
    List.map
      (fun (label, carried, cost) ->
        [
          label;
          string_of_int offered;
          string_of_int carried;
          string_of_int (cost / 1000);
          (if carried > 0 then string_of_int (cost / carried) else "-");
        ])
      [
        run_backup ();
        run_active "multiple-copy x2" (Replication.Multiple_copy 2);
        run_active "dispersity 2+1" (Replication.Dispersity { split = 2; redundant = 1 });
      ]
  in
  Exp.table ~export:"ablation_d_replication"
    ~header:[ "scheme"; "offered"; "carried"; "committed Mbps"; "Kbps/conn" ]
    ~rows ();
  Exp.note "expected: the passive scheme commits the least bandwidth per carried";
  Exp.note "connection (multiplexed pools); multiple-copy pays the most; dispersity";
  Exp.note "sits between — the paper's §2.1.2 ordering."

(* 5. Bounded flooding: request-copy overhead vs hop bound (the cost knob
   of the route discovery protocol, §3.1). *)
let flooding scale =
  Exp.section "Ablation E: bounded-flooding message overhead vs hop bound";
  let g = paper_graph 1 in
  let rng = Prng.create 7 in
  let pairs =
    List.init (match scale with Exp.Full -> 200 | Exp.Quick -> 50) (fun _ ->
        Prng.sample_distinct_pair rng (Graph.node_count g))
  in
  let net = Net_state.create g in
  let rows =
    List.map
      (fun hop_bound ->
        let total_msgs = ref 0 and found = ref 0 in
        List.iter
          (fun (src, dst) ->
            let req = Flooding.request ~hop_bound ~src ~dst ~floor:100 () in
            total_msgs := !total_msgs + Flooding.message_count g req;
            if Flooding.primary_route net req <> None then incr found)
          pairs;
        [
          string_of_int hop_bound;
          Printf.sprintf "%.0f" (float_of_int !total_msgs /. float_of_int (List.length pairs));
          Printf.sprintf "%.1f%%"
            (100. *. float_of_int !found /. float_of_int (List.length pairs));
        ])
      [ 2; 4; 6; 8; 12; 16 ]
  in
  Exp.table ~export:"ablation_e_flooding" ~header:[ "hop bound"; "avg request copies"; "route found" ] ~rows ();
  Exp.note "expected: overhead saturates once the bound covers the diameter (~8);";
  Exp.note "tighter bounds trade discovery success for fewer request copies."

(* 6. Run-time phase: end-to-end packet delay over established channels
   as the data-plane load factor grows (fraction of each reservation the
   source actually uses; >1 = non-conforming). *)
let runtime_delay obs scale =
  Exp.section "Ablation F: end-to-end packet delay vs data-plane load factor";
  let g = paper_graph 1 in
  let capacity = Bandwidth.paper_link_capacity in
  let net = Net_state.create ~capacity g in
  let service = Drcomm.create ~obs net in
  let rng = Prng.create 42 in
  let qos = Qos.paper_spec ~increment:50 in
  let n_conn = match scale with Exp.Full -> 800 | Exp.Quick -> 200 in
  let ids = ref [] in
  for _ = 1 to n_conn do
    let src, dst = Prng.sample_distinct_pair rng (Graph.node_count g) in
    match Drcomm.admit ~want_indirect:false service ~src ~dst ~qos with
    | Drcomm.Admitted (id, _) -> ids := id :: !ids
    | Drcomm.Rejected _ -> ()
  done;
  let sample = List.filteri (fun i _ -> i < 40) !ids in
  let horizon = match scale with Exp.Full -> 3.0 | Exp.Quick -> 1.0 in
  let rows =
    List.map
      (fun factor ->
        let engine = Engine.create ~obs () in
        let sim =
          Netsim.create ~propagation_delay:0.0005 ~obs engine g ~rate_of:(fun _ -> capacity)
        in
        let flows =
          List.map
            (fun id ->
              let rate =
                max 1 (int_of_float (factor *. float_of_int (Drcomm.reserved_bandwidth service id)))
              in
              Netsim.add_flow sim
                ~path:(Drcomm.primary_links service id)
                ~spec:(Traffic_spec.make ~rate ~burst_bits:4000 ~packet_bits:2000 ())
                ~deadline:0.05 ~stop:horizon)
            sample
        in
        ignore (Engine.run ~until:(horizon +. 2.) engine);
        let delays = Stats.Welford.create () in
        let missed = ref 0 and delivered = ref 0 in
        let worst = ref 0. in
        List.iter
          (fun fid ->
            let st = Netsim.stats sim fid in
            missed := !missed + st.Netsim.missed;
            delivered := !delivered + st.Netsim.delivered;
            worst := Float.max !worst st.Netsim.worst_delay;
            if Stats.Welford.count st.Netsim.delay > 0 then
              Stats.Welford.add delays (Stats.Welford.mean st.Netsim.delay))
          flows;
        [
          Printf.sprintf "%.1f" factor;
          string_of_int !delivered;
          Printf.sprintf "%.2f" (1000. *. Stats.Welford.mean delays);
          Printf.sprintf "%.2f" (1000. *. !worst);
          Printf.sprintf "%.2f%%"
            (100. *. float_of_int !missed /. float_of_int (max 1 !delivered));
        ])
      [ 0.5; 0.8; 1.0 ]
  in
  Exp.table ~export:"ablation_f_runtime_delay"
    ~header:
      [ "load factor"; "delivered"; "mean delay ms"; "worst ms"; "miss rate" ]
    ~rows ();
  Exp.note "expected: conformant factors (<= 1.0) keep millisecond delays and";
  Exp.note "zero misses — the reservations bound the data plane end to end."

(* 7. Route discovery strategy: parallel bounded flooding vs sequential
   k-shortest probing (§2.1.1's two families). *)
let route_search obs scale =
  Exp.section "Ablation G: flooding vs sequential route discovery";
  let offered = match scale with Exp.Full -> 2000 | Exp.Quick -> 500 in
  let attempt strategy =
    let g = paper_graph 1 in
    let net = Net_state.create g in
    let cfg = Drcomm.Config.make ~route_search:strategy () in
    let service = Drcomm.create ~config:cfg ~obs net in
    let rng = Prng.create 42 in
    let carried = ref 0 and hops = ref 0 in
    for _ = 1 to offered do
      let src, dst = Prng.sample_distinct_pair rng (Graph.node_count g) in
      match Drcomm.admit ~want_indirect:false service ~src ~dst ~qos:(Qos.paper_spec ~increment:50) with
      | Drcomm.Admitted (id, _) ->
        incr carried;
        hops := !hops + List.length (Drcomm.primary_links service id)
      | Drcomm.Rejected _ -> ()
    done;
    (!carried, float_of_int !hops /. float_of_int (max 1 !carried))
  in
  (* Message cost measured separately on the idle network. *)
  let message_cost () =
    let g = paper_graph 1 in
    let net = Net_state.create g in
    let rng = Prng.create 7 in
    let pairs = List.init 200 (fun _ -> Prng.sample_distinct_pair rng (Graph.node_count g)) in
    let flood = ref 0 and seq = ref 0 in
    List.iter
      (fun (src, dst) ->
        let req = Flooding.request ~src ~dst ~floor:100 () in
        flood := !flood + Flooding.message_count g req;
        seq := !seq + Sequential.probe_count net req ~candidates:8)
      pairs;
    (float_of_int !flood /. 200., float_of_int !seq /. 200.)
  in
  let f_carried, f_hops = attempt `Flooding in
  let s_carried, s_hops = attempt (`Sequential 8) in
  let f_msgs, s_msgs = message_cost () in
  Exp.table ~export:"ablation_g_route_search"
    ~header:[ "strategy"; "carried"; "avg hops"; "avg messages" ]
    ~rows:
      [
        [ "flooding"; string_of_int f_carried; Printf.sprintf "%.2f" f_hops;
          Printf.sprintf "%.0f" f_msgs ];
        [ "sequential (k=8)"; string_of_int s_carried; Printf.sprintf "%.2f" s_hops;
          Printf.sprintf "%.0f" s_msgs ];
      ]
    ();
  Exp.note "expected: both admit similar populations over min-hop routes; the";
  Exp.note "sequential probe costs far fewer messages at light load, while";
  Exp.note "flooding explores alternatives in one round trip (§2.1.1 trade-off)."

(* 8. Dependability depth: how many connections survive a failure storm
   as a function of backups-per-connection ("one or more backup channels"
   in the paper's framework). *)
let backup_depth obs scale =
  Exp.section "Ablation H: survivability vs backups per connection";
  let offered = match scale with Exp.Full -> 1000 | Exp.Quick -> 300 in
  let failures = match scale with Exp.Full -> 120 | Exp.Quick -> 40 in
  let rows =
    List.map
      (fun k ->
        let g = paper_graph 1 in
        let net = Net_state.create g in
        let cfg =
          Drcomm.Config.make ~backups_per_connection:k ()
        in
        let service = Drcomm.create ~config:cfg ~obs net in
        let rng = Prng.create 42 in
        let carried = ref 0 in
        for _ = 1 to offered do
          let src, dst = Prng.sample_distinct_pair rng (Graph.node_count g) in
          match Drcomm.admit ~want_indirect:false service ~src ~dst ~qos:(Qos.paper_spec ~increment:50) with
          | Drcomm.Admitted _ -> incr carried
          | Drcomm.Rejected _ -> ()
        done;
        (* Storm: random failures, each repaired shortly after (at most 3
           edges down at once). *)
        let down = Queue.create () in
        for _ = 1 to failures do
          let e = Prng.int rng (Graph.edge_count g) in
          ignore (Drcomm.fail_edge service e);
          Queue.push e down;
          if Queue.length down > 3 then Drcomm.repair_edge service (Queue.pop down)
        done;
        let pool = Net_state.total_backup_pool net in
        [
          string_of_int k;
          string_of_int !carried;
          string_of_int (Drcomm.dropped_connections service);
          Printf.sprintf "%.1f%%"
            (100.
            *. float_of_int (Drcomm.dropped_connections service)
            /. float_of_int (max 1 !carried));
          string_of_int (pool / 1000);
        ])
      [ 0; 1; 2 ]
  in
  Exp.table ~export:"ablation_h_backup_depth"
    ~header:[ "backups/conn"; "carried"; "dropped"; "drop rate"; "pool Mbps" ]
    ~rows ();
  Exp.note "expected: drops fall sharply from 0 to 1 backup (the paper's core";
  Exp.note "dependability claim) and again from 1 to 2, at the cost of a larger";
  Exp.note "multiplexed pool.  (Note: pool for k=0 is 0 by construction.)"

(* 9. The paper's §1 motivation, quantified: proactive backup channels vs
   reactive restoration when the network is congested.  Restoration must
   find capacity *after* the failure — and fails exactly when the network
   is loaded; the backup's resources were reserved in advance.

   Run with single-value (inelastic) QoS so the floors genuinely saturate
   the links: under elastic QoS the reclaimable extras would hand
   restoration free headroom and mask the §1 effect.  (Restoration is
   also slower in reality — signalling plus re-routing per victim — which
   an instantaneous event model cannot price; this table isolates the
   success-rate argument only.) *)
let restoration scale =
  let heavy = match scale with Exp.Full -> 3000 | Exp.Quick -> 900 in
  let churn = match scale with Exp.Full -> 1500 | Exp.Quick -> 400 in
  let mode_cfg ~offered cfg_mod =
    cfg_mod
      {
        Scenario.default with
        Scenario.capacity = Bandwidth.mbps 2;
        qos = Qos.single_value 300;
        offered;
        gamma = 0.0005;
        churn_events = churn;
        warmup_events = churn / 4;
        seed = 1;
      }
  in
  let backup c = c in
  let restor c =
    {
      c with
      Scenario.service =
        Drcomm.Config.make ~backups_per_connection:0 ~restore_on_failure:true ();
    }
  in
  let unprotected c =
    {
      c with
      Scenario.service = Drcomm.Config.make ~backups_per_connection:0 ();
    }
  in
  let light = heavy / 3 in
  let modes =
    [
      ("backup channels", light, backup);
      ("backup channels", heavy, backup);
      ("reactive restoration", light, restor);
      ("reactive restoration", heavy, restor);
      ("no protection", heavy, unprotected);
    ]
  in
  {
    Exp.name = "ablation_i_restoration";
    points = List.map (fun (_, offered, cfg_mod) -> mode_cfg ~offered cfg_mod) modes;
    render =
      (fun results ->
        Exp.section
          "Ablation I: backup channels vs reactive restoration under congestion";
        Exp.note "single-value 300 Kbps QoS; 2 Mbps links (floors saturate)";
        let rows =
          List.map2
            (fun (label, offered, _) (r, _) ->
              let victims =
                r.Scenario.recovered_by_backup + r.Scenario.restored_from_scratch
                + r.Scenario.dropped
              in
              [
                label;
                string_of_int offered;
                string_of_int victims;
                string_of_int r.Scenario.recovered_by_backup;
                string_of_int r.Scenario.restored_from_scratch;
                string_of_int r.Scenario.dropped;
                Printf.sprintf "%.1f%%"
                  (100. *. float_of_int r.Scenario.dropped
                  /. float_of_int (max 1 victims));
              ])
            modes results
        in
        Exp.table ~export:"ablation_i_restoration"
          ~header:
            [
              "scheme"; "offered"; "victims"; "switched"; "restored"; "dropped";
              "loss rate";
            ]
          ~rows ();
        Exp.note "reading: backup losses are *structural* — connections whose only";
        Exp.note "backup shared an edge with the primary (leaf-adjacent endpoints on";
        Exp.note "this degree-3.5 topology) — and roughly load-independent, with the";
        Exp.note "switchover itself instantaneous and guaranteed by reservation.";
        Exp.note "Restoration's losses grow with load (no spare floors post-failure),";
        Exp.note "and every successful restoration still pays signalling + re-routing";
        Exp.note "latency that an instantaneous event model does not price — the two";
        Exp.note "halves of the paper's §1 argument.");
  }

(* Ablations A, B and I are plain scenario sweeps and go through the
   declarative driver (parallel across their points); C-H drive the
   service layer directly and stay imperative.  All share one perf
   record. *)
let run scale =
  Exp.with_record "ablations" scale @@ fun obs ->
  Exp.run_sweep obs (multiplexing scale);
  Exp.run_sweep obs (elasticity scale);
  policies obs scale;
  replication obs scale;
  flooding scale;
  runtime_delay obs scale;
  route_search obs scale;
  backup_depth obs scale;
  Exp.run_sweep obs (restoration scale)
