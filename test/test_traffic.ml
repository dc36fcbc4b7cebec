(* Tests for the packet-level traffic substrate: token buckets and
   multi-hop EDF forwarding. *)

let approx = Alcotest.float 1e-9
let ms = Alcotest.float 1e-6

(* --- Traffic_spec --- *)

let test_spec_validation () =
  Alcotest.check_raises "rate" (Invalid_argument "Traffic_spec.make: non-positive rate")
    (fun () -> ignore (Traffic_spec.make ~rate:0 ~packet_bits:100 ()));
  Alcotest.check_raises "bucket"
    (Invalid_argument "Traffic_spec.make: bucket shallower than one packet") (fun () ->
      ignore (Traffic_spec.make ~rate:100 ~burst_bits:50 ~packet_bits:100 ()))

let test_packet_period () =
  (* 100 Kbps, 1000-bit packets: one every 10 ms. *)
  let s = Traffic_spec.cbr ~rate:100 ~packet_bits:1000 in
  Alcotest.check approx "period" 0.01 (Traffic_spec.packet_period s)

let test_bucket_initial_burst () =
  let s = Traffic_spec.make ~rate:100 ~burst_bits:3000 ~packet_bits:1000 () in
  let b = Traffic_spec.Bucket.create s in
  (* Full bucket: three back-to-back packets conform, the fourth not. *)
  Alcotest.(check bool) "1" true (Traffic_spec.Bucket.try_consume b ~now:0.);
  Alcotest.(check bool) "2" true (Traffic_spec.Bucket.try_consume b ~now:0.);
  Alcotest.(check bool) "3" true (Traffic_spec.Bucket.try_consume b ~now:0.);
  Alcotest.(check bool) "4 blocked" false (Traffic_spec.Bucket.try_consume b ~now:0.)

let test_bucket_refill () =
  let s = Traffic_spec.cbr ~rate:100 ~packet_bits:1000 in
  let b = Traffic_spec.Bucket.create s in
  Alcotest.(check bool) "first" true (Traffic_spec.Bucket.try_consume b ~now:0.);
  Alcotest.(check bool) "too soon" false (Traffic_spec.Bucket.conforming b ~now:0.005);
  Alcotest.check ms "refill time" 0.01 (Traffic_spec.Bucket.next_conforming_time b ~now:0.005);
  Alcotest.(check bool) "after period" true (Traffic_spec.Bucket.try_consume b ~now:0.0101)

let test_bucket_caps_at_burst () =
  let s = Traffic_spec.make ~rate:100 ~burst_bits:2000 ~packet_bits:1000 () in
  let b = Traffic_spec.Bucket.create s in
  ignore (Traffic_spec.Bucket.try_consume b ~now:0.);
  ignore (Traffic_spec.Bucket.try_consume b ~now:0.);
  (* A long idle period refills to the cap (2 packets), not more. *)
  Alcotest.(check bool) "1 of 2" true (Traffic_spec.Bucket.try_consume b ~now:100.);
  Alcotest.(check bool) "2 of 2" true (Traffic_spec.Bucket.try_consume b ~now:100.);
  Alcotest.(check bool) "3 blocked" false (Traffic_spec.Bucket.try_consume b ~now:100.)

(* Conformance property: a source draining the bucket as fast as allowed
   never exceeds rate * t + burst bits over any prefix. *)
let qcheck_bucket_conformance =
  QCheck.Test.make ~name:"token bucket enforces (sigma, rho)" ~count:100
    QCheck.(pair (int_range 50 1000) (int_range 1 5))
    (fun (rate, burst_packets) ->
      let packet_bits = 500 in
      let s =
        Traffic_spec.make ~rate ~burst_bits:(burst_packets * packet_bits) ~packet_bits ()
      in
      let b = Traffic_spec.Bucket.create s in
      let sent_bits = ref 0 in
      let now = ref 0. in
      let ok = ref true in
      for _ = 1 to 200 do
        if Traffic_spec.Bucket.try_consume b ~now:!now then begin
          sent_bits := !sent_bits + packet_bits;
          let bound =
            (float_of_int rate *. 1000. *. !now)
            +. float_of_int (burst_packets * packet_bits)
          in
          if float_of_int !sent_bits > bound +. 1e-6 then ok := false
        end
        else now := Traffic_spec.Bucket.next_conforming_time b ~now:!now
      done;
      !ok)

(* --- Netsim --- *)

let line_links () =
  (* 0 - 1 - 2: a 2-hop unidirectional path 0 -> 2. *)
  let g = Graph.create 3 in
  let e01 = Graph.add_edge g 0 1 in
  let e12 = Graph.add_edge g 1 2 in
  let path =
    [ Dirlink.of_edge g ~edge:e01 ~src:0; Dirlink.of_edge g ~edge:e12 ~src:1 ]
  in
  (g, path)

let mk_sim ?propagation_delay ?(rate = 1000) g =
  let engine = Engine.create () in
  (engine, Netsim.create ?propagation_delay engine g ~rate_of:(fun _ -> rate))

let test_single_packet_delay () =
  let g, path = line_links () in
  let engine, sim = mk_sim g in
  (* 1000 Kbps links, 1000-bit packets: 1 ms per hop, 2 ms end-to-end. *)
  let spec = Traffic_spec.cbr ~rate:1 ~packet_bits:1000 in
  let fid = Netsim.add_flow sim ~path ~spec ~deadline:0.01 ~stop:0.5 in
  ignore (Engine.run ~until:1.5 engine);
  let st = Netsim.stats sim fid in
  Alcotest.(check bool) "sent some" true (st.Netsim.sent >= 1);
  Alcotest.(check int) "all delivered" st.Netsim.sent st.Netsim.delivered;
  Alcotest.(check int) "no miss" 0 st.Netsim.missed;
  Alcotest.check (Alcotest.float 1e-6) "2 ms e2e" 0.002
    (Stats.Welford.mean st.Netsim.delay)

let test_propagation_delay_added () =
  let g, path = line_links () in
  let engine, sim = mk_sim ~propagation_delay:0.003 g in
  let spec = Traffic_spec.cbr ~rate:1 ~packet_bits:1000 in
  let fid = Netsim.add_flow sim ~path ~spec ~deadline:0.1 ~stop:0.5 in
  ignore (Engine.run ~until:2. engine);
  let st = Netsim.stats sim fid in
  (* 2 x 1 ms transmission + 2 x 3 ms propagation. *)
  Alcotest.check (Alcotest.float 1e-6) "8 ms e2e" 0.008
    (Stats.Welford.mean st.Netsim.delay)

let test_cbr_throughput () =
  let g, path = line_links () in
  let engine, sim = mk_sim g in
  (* 100 Kbps flow, 1000-bit packets, for 1 s: ~100 packets. *)
  let spec = Traffic_spec.cbr ~rate:100 ~packet_bits:1000 in
  let fid = Netsim.add_flow sim ~path ~spec ~deadline:0.05 ~stop:1.0 in
  ignore (Engine.run ~until:2. engine);
  let st = Netsim.stats sim fid in
  Alcotest.(check bool)
    (Printf.sprintf "sent %d ~ 100" st.Netsim.sent)
    true
    (abs (st.Netsim.sent - 100) <= 2);
  Alcotest.(check int) "all delivered" st.Netsim.sent st.Netsim.delivered;
  Alcotest.(check int) "no misses" 0 st.Netsim.missed

let test_edf_prioritises_tight_deadline () =
  (* Two flows share one link; the one with the tighter deadline must not
     miss even though the other floods the queue. *)
  let g = Graph.create 2 in
  let e = Graph.add_edge g 0 1 in
  let path = [ Dirlink.of_edge g ~edge:e ~src:0 ] in
  let engine, sim = mk_sim ~rate:1000 g in
  let bulk =
    Traffic_spec.make ~rate:800 ~burst_bits:8000 ~packet_bits:4000 ()
  in
  let urgent = Traffic_spec.cbr ~rate:100 ~packet_bits:500 in
  let _bulk_id = Netsim.add_flow sim ~path ~spec:bulk ~deadline:0.5 ~stop:1.0 in
  let urgent_id = Netsim.add_flow sim ~path ~spec:urgent ~deadline:0.01 ~stop:1.0 in
  ignore (Engine.run ~until:3. engine);
  let st = Netsim.stats sim urgent_id in
  Alcotest.(check bool) "urgent flow ran" true (st.Netsim.delivered > 50);
  (* Non-preemptive blocking by one 4 ms bulk packet still fits the 10 ms
     deadline; EDF must not starve the urgent flow. *)
  Alcotest.(check int) "urgent misses" 0 st.Netsim.missed

let test_overload_misses () =
  let g = Graph.create 2 in
  let e = Graph.add_edge g 0 1 in
  let path = [ Dirlink.of_edge g ~edge:e ~src:0 ] in
  let engine, sim = mk_sim ~rate:100 g in
  (* Two 80 Kbps flows into a 100 Kbps link: overload -> growing queue ->
     misses. *)
  let spec = Traffic_spec.cbr ~rate:80 ~packet_bits:1000 in
  let f1 = Netsim.add_flow sim ~path ~spec ~deadline:0.05 ~stop:2.0 in
  let f2 = Netsim.add_flow sim ~path ~spec ~deadline:0.05 ~stop:2.0 in
  ignore (Engine.run ~until:4. engine);
  let m1 = (Netsim.stats sim f1).Netsim.missed in
  let m2 = (Netsim.stats sim f2).Netsim.missed in
  Alcotest.(check bool) (Printf.sprintf "misses %d + %d > 0" m1 m2) true (m1 + m2 > 0)

let test_link_utilisation_accounting () =
  let g = Graph.create 2 in
  let e = Graph.add_edge g 0 1 in
  let dl = Dirlink.of_edge g ~edge:e ~src:0 in
  let engine, sim = mk_sim ~rate:1000 g in
  let spec = Traffic_spec.cbr ~rate:100 ~packet_bits:1000 in
  let fid = Netsim.add_flow sim ~path:[ dl ] ~spec ~deadline:0.05 ~stop:1.0 in
  ignore (Engine.run ~until:2. engine);
  let st = Netsim.stats sim fid in
  (* Each packet takes 1 ms on the wire. *)
  Alcotest.check (Alcotest.float 1e-6) "busy time"
    (float_of_int st.Netsim.delivered /. 1000.)
    (Netsim.link_busy_time sim dl);
  Alcotest.(check int) "total delivered" st.Netsim.delivered (Netsim.total_delivered sim)

let test_flow_validation () =
  let g, _ = line_links () in
  let engine, sim = mk_sim g in
  ignore engine;
  Alcotest.check_raises "empty path" (Invalid_argument "Netsim.add_flow: empty path")
    (fun () ->
      ignore
        (Netsim.add_flow sim ~path:[] ~spec:(Traffic_spec.cbr ~rate:1 ~packet_bits:8)
           ~deadline:1. ~stop:1.))

(* --- EDF link scheduling --- *)

(* One directed link 0 -> 1 at [rate] Kbps. *)
let one_link ?(rate = 1000) () =
  let g = Graph.create 2 in
  let e = Graph.add_edge g 0 1 in
  let engine, sim = mk_sim ~rate g in
  (engine, sim, [ Dirlink.of_edge g ~edge:e ~src:0 ])

(* A source that sends exactly one [bits]-bit packet when added at
   time [now]: its 1 Kbps bucket has not refilled when the source stops. *)
let one_packet sim ~path ~bits ~deadline ?(now = 0.) () =
  Netsim.add_flow sim ~path
    ~spec:(Traffic_spec.cbr ~rate:1 ~packet_bits:bits)
    ~deadline ~stop:(now +. 1e-6)

let test_edf_orders_by_deadline () =
  (* 1000 Kbps: 1000 bits = 1 ms.  Two packets queue behind a blocker
     on the wire; the tighter deadline is served first although it was
     queued second. *)
  let engine, sim, path = one_link () in
  let _blocker = one_packet sim ~path ~bits:1000 ~deadline:1. () in
  let loose = one_packet sim ~path ~bits:1000 ~deadline:0.010 () in
  let tight = one_packet sim ~path ~bits:1000 ~deadline:0.003 () in
  ignore (Engine.run engine);
  let st = Netsim.stats sim in
  Alcotest.check ms "tight served second" 0.002 (st tight).Netsim.worst_delay;
  Alcotest.check ms "loose served last" 0.003 (st loose).Netsim.worst_delay;
  List.iter (fun f -> Alcotest.(check int) "met" 0 (st f).Netsim.missed) [ loose; tight ]

let test_edf_detects_miss () =
  (* 1 ms on the wire against a 0.5 ms deadline. *)
  let engine, sim, path = one_link () in
  let f = one_packet sim ~path ~bits:1000 ~deadline:0.0005 () in
  ignore (Engine.run engine);
  let st = Netsim.stats sim f in
  Alcotest.(check int) "delivered" 1 st.Netsim.delivered;
  Alcotest.(check int) "missed" 1 st.Netsim.missed

let test_edf_respects_release () =
  (* A flow starts when it is added: an engine event releases this one
     at 5 ms, and its packet's delay counts from there. *)
  let engine, sim, path = one_link () in
  let flow = ref None in
  Engine.schedule_at engine ~time:0.005 (fun _ ->
      flow := Some (one_packet sim ~path ~bits:1000 ~deadline:0.02 ~now:0.005 ()));
  ignore (Engine.run ~until:0.004 engine);
  Alcotest.(check int) "nothing before release" 0 (Netsim.total_delivered sim);
  ignore (Engine.run ~until:0.0059 engine);
  let f = Option.get !flow in
  Alcotest.(check int) "in service from release" 1 (Netsim.stats sim f).Netsim.in_flight;
  ignore (Engine.run ~until:0.0061 engine);
  let st = Netsim.stats sim f in
  Alcotest.(check int) "finished after tx" 1 st.Netsim.delivered;
  Alcotest.check ms "delay is the transmission" 0.001 st.Netsim.worst_delay

let test_edf_run_until () =
  let engine, sim, path = one_link () in
  let flows = List.init 5 (fun _ -> one_packet sim ~path ~bits:1000 ~deadline:1. ()) in
  let in_flight () =
    List.fold_left (fun acc f -> acc + (Netsim.stats sim f).Netsim.in_flight) 0 flows
  in
  ignore (Engine.run ~until:0.0035 engine);
  Alcotest.(check int) "three fit" 3 (Netsim.total_delivered sim);
  Alcotest.(check int) "two pending" 2 (in_flight ());
  ignore (Engine.run engine);
  Alcotest.(check int) "drained" 5 (Netsim.total_delivered sim);
  Alcotest.(check int) "none pending" 0 (in_flight ())

let test_edf_blocking () =
  (* Non-preemptive service: a 100 ms packet already on the wire blocks a
     100-bit packet with a 1 ms deadline, though utilisation is tiny. *)
  let engine, sim, path = one_link () in
  let big = one_packet sim ~path ~bits:100_000 ~deadline:1. () in
  let tight = one_packet sim ~path ~bits:100 ~deadline:0.001 () in
  ignore (Engine.run engine);
  Alcotest.(check int) "big packet on time" 0 (Netsim.stats sim big).Netsim.missed;
  let st = Netsim.stats sim tight in
  Alcotest.(check int) "tight packet blocked" 1 st.Netsim.missed;
  Alcotest.check ms "waited out the big packet" 0.1001 st.Netsim.worst_delay

let test_edf_per_hop_split () =
  (* A packet's local deadline at hop k of n is its creation time plus
     k/n of its budget.  [x] crosses two links on a 10 ms budget, so on
     its second link it ranks by 10 ms: between one-hop packets of 9 ms
     and 11 ms queued there behind a 4 ms blocker. *)
  let g, path = line_links () in
  let engine, sim = mk_sim g in
  let second = [ List.nth path 1 ] in
  let _blocker = one_packet sim ~path:second ~bits:4000 ~deadline:1. () in
  let x = one_packet sim ~path ~bits:1000 ~deadline:0.010 () in
  let y = one_packet sim ~path:second ~bits:1000 ~deadline:0.009 () in
  let z = one_packet sim ~path:second ~bits:1000 ~deadline:0.011 () in
  ignore (Engine.run engine);
  let delay f = (Netsim.stats sim f).Netsim.worst_delay in
  Alcotest.check ms "9 ms packet first" 0.005 (delay y);
  Alcotest.check ms "two-hop packet ranks by its whole budget" 0.006 (delay x);
  Alcotest.check ms "11 ms packet last" 0.007 (delay z)

(* Property: packets released together, each with a deadline beyond the
   whole busy period, never miss: the EDF server is work-conserving. *)
let qcheck_edf_no_miss_when_feasible =
  QCheck.Test.make ~name:"EDF meets generous deadlines" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 20) (int_range 1 50))
    (fun sizes ->
      let engine, sim, path = one_link () in
      (* Sizes in Kbit: 1 ms each on the 1000 Kbps link. *)
      let busy = float_of_int (List.fold_left ( + ) 0 sizes) *. 1e-3 in
      let flows =
        List.map
          (fun s -> one_packet sim ~path ~bits:(s * 1000) ~deadline:(busy +. 0.001) ())
          sizes
      in
      ignore (Engine.run engine);
      List.for_all
        (fun f ->
          let st = Netsim.stats sim f in
          st.Netsim.delivered = 1 && st.Netsim.missed = 0)
        flows)

(* Property: on a sufficiently fast link, a single conformant flow never
   misses and delivers everything sent before the horizon. *)
let qcheck_feasible_flow_never_misses =
  QCheck.Test.make ~name:"conformant flow on fast link never misses" ~count:50
    QCheck.(pair (int_range 10 200) (int_range 1 4))
    (fun (rate_kbps, hops) ->
      let g = Graph.create (hops + 1) in
      let path =
        List.init hops (fun i ->
            let e = Graph.add_edge g i (i + 1) in
            Dirlink.of_edge g ~edge:e ~src:i)
      in
      let engine = Engine.create () in
      let sim = Netsim.create engine g ~rate_of:(fun _ -> 10 * rate_kbps) in
      let spec = Traffic_spec.cbr ~rate:rate_kbps ~packet_bits:1000 in
      let fid = Netsim.add_flow sim ~path ~spec ~deadline:1. ~stop:1. in
      ignore (Engine.run ~until:3. engine);
      let st = Netsim.stats sim fid in
      st.Netsim.missed = 0 && st.Netsim.in_flight = 0 && st.Netsim.delivered = st.Netsim.sent)

let () =
  Alcotest.run "traffic"
    [
      ( "spec",
        [
          Alcotest.test_case "validation" `Quick test_spec_validation;
          Alcotest.test_case "packet period" `Quick test_packet_period;
          Alcotest.test_case "initial burst" `Quick test_bucket_initial_burst;
          Alcotest.test_case "refill" `Quick test_bucket_refill;
          Alcotest.test_case "burst cap" `Quick test_bucket_caps_at_burst;
        ] );
      ( "netsim",
        [
          Alcotest.test_case "single packet delay" `Quick test_single_packet_delay;
          Alcotest.test_case "propagation delay" `Quick test_propagation_delay_added;
          Alcotest.test_case "cbr throughput" `Quick test_cbr_throughput;
          Alcotest.test_case "EDF priority" `Quick test_edf_prioritises_tight_deadline;
          Alcotest.test_case "overload misses" `Quick test_overload_misses;
          Alcotest.test_case "utilisation accounting" `Quick
            test_link_utilisation_accounting;
          Alcotest.test_case "validation" `Quick test_flow_validation;
        ] );
      ( "edf",
        [
          Alcotest.test_case "deadline order" `Quick test_edf_orders_by_deadline;
          Alcotest.test_case "miss detection" `Quick test_edf_detects_miss;
          Alcotest.test_case "release respected" `Quick test_edf_respects_release;
          Alcotest.test_case "run until" `Quick test_edf_run_until;
          Alcotest.test_case "blocking" `Quick test_edf_blocking;
          Alcotest.test_case "per-hop deadline split" `Quick test_edf_per_hop_split;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_bucket_conformance;
            qcheck_edf_no_miss_when_feasible;
            qcheck_feasible_flow_never_misses;
          ] );
    ]
