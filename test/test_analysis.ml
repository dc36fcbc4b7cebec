(* Tests for lib/analysis: trace replay arithmetic on hand-built event
   lists, and the empirical-vs-analytic audit / Perfetto export on a
   trace recorded from a real (deterministic) Drcomm run. *)

let approx = Alcotest.float 1e-9

(* --- replay arithmetic on in-memory event lists --- *)

let test_residency_arithmetic () =
  (* One channel: levels 0 for 2 units, 1 for 8 units, then gone. *)
  let events =
    [
      (0., Trace.Admit { channel = 0; direct = 0; indirect = 0 });
      (2., Trace.Upgrade { channel = 0; from_level = 0; to_level = 1 });
      (10., Trace.Terminate { channel = 0 });
    ]
  in
  let a = Analysis.of_events events in
  Alcotest.(check int) "event count" 3 (Analysis.event_count a);
  Alcotest.check approx "horizon" 10. (Analysis.horizon a);
  Alcotest.(check (list int)) "channels" [ 0 ] (Analysis.channels a);
  let r = Analysis.residency a in
  Alcotest.(check int) "levels observed" 2 (Array.length r);
  Alcotest.check approx "level 0 share" 0.2 r.(0);
  Alcotest.check approx "level 1 share" 0.8 r.(1);
  Alcotest.(check (list (pair (float 1e-9) int)))
    "timeline" [ (0., 0); (2., 1) ]
    (Analysis.timeline a 0);
  Alcotest.(check (list (pair (float 1e-9) int)))
    "unknown channel has no timeline" [] (Analysis.timeline a 99)

let test_residency_closes_live_channels () =
  (* A channel never terminated accrues up to the trace horizon. *)
  let events =
    [
      (0., Trace.Admit { channel = 1; direct = 0; indirect = 0 });
      (4., Trace.Upgrade { channel = 1; from_level = 0; to_level = 2 });
      (8., Trace.Link_repair { edge = 0 });
      (* horizon marker *)
    ]
  in
  let r = Analysis.residency (Analysis.of_events events) in
  Alcotest.(check int) "levels observed" 3 (Array.length r);
  Alcotest.check approx "level 0 share" 0.5 r.(0);
  Alcotest.check approx "level 2 share" 0.5 r.(2)

let test_upgrade_before_admit () =
  (* Admission emits the water-filling upgrades for the new channel
     before the Admit record; the replay must not lose that segment. *)
  let events =
    [
      (0., Trace.Upgrade { channel = 7; from_level = 0; to_level = 3 });
      (0., Trace.Admit { channel = 7; direct = 0; indirect = 0 });
      (5., Trace.Terminate { channel = 7 });
    ]
  in
  let a = Analysis.of_events events in
  let r = Analysis.residency a in
  Alcotest.check approx "all channel-time at level 3" 1. r.(3);
  Alcotest.(check (list (pair (float 1e-9) int)))
    "timeline starts at from_level" [ (0., 0); (0., 3) ]
    (Analysis.timeline a 7)

(* The residency replayed from a service's own trace equals the service's
   level histogram summed over time.  Ops run at integer clock times, so
   the histogram after op [i] holds over [i, i + 1), and the last op, an
   admission attempt, sets the horizon.  Backup activation restarts a
   channel at its floor and restoration re-admits it under a fresh id,
   neither with a level event; the replay must follow both. *)
let test_residency_matches_service () =
  let ops = 1000 and max_levels = 8 in
  let check name config ~feature =
    let events = ref [] in
    let sink =
      { Trace.emit = (fun time ev -> events := (time, ev) :: !events); close = ignore }
    in
    let obs = Obs.create ~trace:(Trace.create sink) () in
    let clock = ref 0 in
    Obs.set_clock obs (fun () -> float_of_int !clock);
    let g = Torus.generate ~rows:4 ~cols:4 in
    let t = Drcomm.create ~config ~obs (Net_state.create ~capacity:1000 g) in
    let rng = Prng.create 17 in
    let sum = Array.make max_levels 0 in
    for i = 0 to ops - 1 do
      clock := i;
      let dice = if i = ops - 1 then 0 else Prng.int rng 100 in
      if dice < 50 then begin
        let src, dst = Prng.sample_distinct_pair rng (Graph.node_count g) in
        let b_min = 100 * (1 + Prng.int rng 3) in
        let b_max = b_min + (100 * Prng.int rng 4) in
        ignore (Drcomm.admit t ~src ~dst ~qos:(Qos.make ~b_min ~b_max ~increment:100 ()))
      end
      else if dice < 75 && Drcomm.count t > 0 then
        let ch = Drcomm.nth_channel t (Prng.int rng (Drcomm.count t)) in
        ignore (Drcomm.terminate t ch)
      else begin
        let e = Prng.int rng (Graph.edge_count g) in
        ignore (Drcomm.fail_edge t e);
        Drcomm.repair_edge t e
      end;
      if i < ops - 1 then
        Array.iteri
          (fun l n -> sum.(l) <- sum.(l) + n)
          (Drcomm.level_histogram t ~max_levels)
    done;
    let a = Analysis.of_events (List.rev !events) in
    Alcotest.(check bool) (name ^ ": the trace carries " ^ feature) true
      (List.mem_assoc feature (Analysis.event_counts a));
    let total = float_of_int (Array.fold_left ( + ) 0 sum) in
    Alcotest.(check (array (float 0.)))
      (name ^ ": residency")
      (Array.map (fun n -> float_of_int n /. total) sum)
      (Analysis.residency ~levels:max_levels a)
  in
  check "no backups" (Drcomm.Config.make ~backups_per_connection:0 ()) ~feature:"drop";
  check "backups" Drcomm.Config.default ~feature:"backup_activate";
  check "restoration"
    (Drcomm.Config.make ~backups_per_connection:0 ~restore_on_failure:true ())
    ~feature:"restore"

let test_rejection_breakdown () =
  let events =
    [
      (1., Trace.Reject { reason = "no_primary_route" });
      (2., Trace.Reject { reason = "no_backup_route" });
      (3., Trace.Reject { reason = "no_primary_route" });
    ]
  in
  let a = Analysis.of_events events in
  Alcotest.(check (list (pair string int)))
    "per-reason counts"
    [ ("no_backup_route", 1); ("no_primary_route", 2) ]
    (Analysis.rejections a);
  Alcotest.(check (list (pair string int)))
    "event counts" [ ("reject", 3) ] (Analysis.event_counts a)

let test_failure_windows () =
  let events =
    [
      (0., Trace.Admit { channel = 0; direct = 0; indirect = 0 });
      (5., Trace.Link_fail { edge = 2 });
      (5., Trace.Retreat { channel = 0; from_level = 3; to_level = 0 });
      (5.5, Trace.Backup_activate { channel = 0; reprotected = true });
      (6., Trace.Drop { channel = 1 });
      (100., Trace.Link_fail { edge = 3 });
    ]
  in
  match Analysis.failure_windows ~window:10. (Analysis.of_events events) with
  | [ w1; w2 ] ->
    Alcotest.check approx "first failure time" 5. w1.Analysis.fail_time;
    Alcotest.(check int) "retreats" 1 w1.Analysis.retreats;
    Alcotest.(check int) "activations" 1 w1.Analysis.activations;
    Alcotest.(check int) "drops" 1 w1.Analysis.drops;
    (match w1.Analysis.first_activation_dt with
    | Some dt -> Alcotest.check approx "activation delay" 0.5 dt
    | None -> Alcotest.fail "missing first activation delay");
    Alcotest.(check int) "quiet window sees nothing" 0 w2.Analysis.retreats;
    Alcotest.(check bool)
      "quiet window has no activation" true
      (w2.Analysis.first_activation_dt = None)
  | ws ->
    Alcotest.fail
      (Printf.sprintf "expected 2 failure windows, got %d" (List.length ws))

let test_estimate_rates () =
  (* Bulk load at t = 0 must not count toward lambda; the two measured
     arrivals and one termination over a horizon of 10 must. *)
  let events =
    [
      (0., Trace.Admit { channel = 0; direct = 0; indirect = 0 });
      (2., Trace.Admit { channel = 1; direct = 1; indirect = 0 });
      (4., Trace.Reject { reason = "no_primary_route" });
      (6., Trace.Terminate { channel = 0 });
      (8., Trace.Link_fail { edge = 0 });
      (10., Trace.Link_repair { edge = 0 });
    ]
  in
  let r = Analysis.estimate_rates (Analysis.of_events events) in
  Alcotest.(check int) "arrivals" 2 r.Analysis.arrivals;
  Alcotest.check approx "lambda" 0.2 r.Analysis.lambda;
  Alcotest.check approx "mu" 0.1 r.Analysis.mu;
  Alcotest.check approx "gamma" 0.1 r.Analysis.gamma;
  (* The t = 2 admission saw one live channel, and it was directly
     chained: p_f = 1/1. *)
  Alcotest.(check int) "chain samples" 1 r.Analysis.chain_samples;
  Alcotest.check approx "p_f" 1. r.Analysis.p_f;
  Alcotest.check approx "p_s" 0. r.Analysis.p_s

let test_empty_trace () =
  let a = Analysis.of_events [] in
  Alcotest.(check int) "no events" 0 (Analysis.event_count a);
  Alcotest.check approx "zero horizon" 0. (Analysis.horizon a);
  Alcotest.(check (list int)) "no channels" [] (Analysis.channels a);
  let r = Analysis.estimate_rates a in
  Alcotest.check approx "zero lambda" 0. r.Analysis.lambda;
  Alcotest.check approx "zero p_f" 0. r.Analysis.p_f

(* --- a real recorded scenario: disjoint triangles ---

   k disjoint 3-node components, each with a primary edge u-v and a
   backup path u-w-v.  Channels on different triangles share no links,
   so every measured chaining probability is exactly zero and each
   channel water-fills straight to the QoS ceiling — both the empirical
   residency and the analytic chain concentrate at the top level, which
   is what the audit acceptance bound checks. *)

let triangles = 6

let triangle_graph () =
  let g = Graph.create (3 * triangles) in
  for i = 0 to triangles - 1 do
    let u = 3 * i and v = (3 * i) + 1 and w = (3 * i) + 2 in
    ignore (Graph.add_edge g u v);
    ignore (Graph.add_edge g u w);
    ignore (Graph.add_edge g w v)
  done;
  g

let run_triangle_scenario ?(spans = Span.create ()) () =
  let path = Filename.temp_file "drqos_analysis" ".jsonl" in
  let oc = open_out path in
  let trace = Trace.create (Trace.jsonl_sink oc) in
  let obs = Obs.create ~metrics:(Metrics.create ()) ~trace ~spans () in
  let engine = Engine.create ~obs () in
  Obs.set_clock obs (fun () -> Engine.now engine);
  let net = Net_state.create (triangle_graph ()) in
  let svc = Drcomm.create ~obs net in
  let qos = Qos.paper_spec ~increment:50 in
  let admit i =
    match Drcomm.admit svc ~src:(3 * i) ~dst:((3 * i) + 1) ~qos with
    | Drcomm.Admitted (id, _) -> id
    | Drcomm.Rejected _ -> Alcotest.fail "triangle admission rejected"
  in
  (* Bulk load before the clock starts (excluded from rate estimates),
     then a few measured arrivals/terminations so lambda and mu stay
     positive; the last termination pins the trace horizon at t = 100. *)
  let c0 = admit 0 in
  let c1 = admit 1 in
  ignore (admit 2);
  Engine.schedule_at engine ~time:10. (fun _ -> ignore (admit 3));
  Engine.schedule_at engine ~time:20. (fun _ -> ignore (admit 4));
  Engine.schedule_at engine ~time:40. (fun _ -> ignore (Drcomm.terminate svc c0));
  Engine.schedule_at engine ~time:100. (fun _ -> ignore (Drcomm.terminate svc c1));
  Obs.span obs "measure" (fun () -> ignore (Engine.run engine));
  Obs.close obs;
  path

let with_triangle_trace f =
  let path = run_triangle_scenario () in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let test_audit_acceptance () =
  with_triangle_trace @@ fun path ->
  let a = Analysis.of_file path in
  let r = Analysis.estimate_rates a in
  (* Disjoint triangles: nothing ever chains. *)
  Alcotest.check approx "measured p_f" 0. r.Analysis.p_f;
  Alcotest.check approx "measured p_s" 0. r.Analysis.p_s;
  Alcotest.check approx "measured gamma" 0. r.Analysis.gamma;
  Alcotest.(check bool) "measured lambda > 0" true (r.Analysis.lambda > 0.);
  let audit = Analysis.audit a in
  Alcotest.(check int) "paper spec levels" 9 audit.Analysis.levels;
  (* The acceptance bound: empirical residency within 0.05 (L_inf) of
     the analytic stationary distribution for the same rates. *)
  Alcotest.(check bool)
    (Printf.sprintf "audit L_inf %.4f < 0.05" audit.Analysis.linf)
    true
    (audit.Analysis.linf < 0.05);
  (* Both distributions concentrate at the QoS ceiling. *)
  Alcotest.(check bool)
    "empirical mass at top" true
    (audit.Analysis.empirical.(8) > 0.95);
  Alcotest.(check bool)
    "analytic mass at top" true
    (audit.Analysis.analytic.(8) > 0.95)

(* Walk a Perfetto document: per-track (pid, tid) timestamp ordering,
   balanced B/E nesting, and the nesting depth of named "B" events. *)
let walk_perfetto doc =
  let get name obj =
    match obj with
    | Jsonx.Obj fields -> List.assoc_opt name fields
    | _ -> None
  in
  let events =
    match get "traceEvents" doc with
    | Some (Jsonx.List evs) -> evs
    | _ -> Alcotest.fail "no traceEvents array"
  in
  let tracks = Hashtbl.create 4 in
  (* tid -> (last ts, open-span stack) *)
  let depth_of = Hashtbl.create 16 in
  (* "B" name -> max stack depth at open *)
  List.iter
    (fun ev ->
      let str name = match get name ev with Some (Jsonx.String s) -> s | _ -> "" in
      let num name =
        match get name ev with
        | Some (Jsonx.Float x) -> x
        | Some (Jsonx.Int i) -> float_of_int i
        | _ -> Alcotest.fail (Printf.sprintf "missing numeric %S field" name)
      in
      match str "ph" with
      | "M" -> ()
      | ("B" | "E" | "i") as ph ->
        let tid = int_of_float (num "tid") in
        let ts = num "ts" in
        let last, stack =
          match Hashtbl.find_opt tracks tid with
          | Some s -> s
          | None -> (neg_infinity, [])
        in
        if ts < last then
          Alcotest.fail
            (Printf.sprintf "track %d: ts %.3f < %.3f" tid ts last);
        let stack =
          match ph with
          | "B" ->
            let name = str "name" in
            let d = List.length stack in
            let prev =
              Option.value ~default:(-1) (Hashtbl.find_opt depth_of name)
            in
            Hashtbl.replace depth_of name (max prev d);
            name :: stack
          | "E" -> (
            match stack with
            | _ :: rest -> rest
            | [] -> Alcotest.fail (Printf.sprintf "track %d: E underflow" tid))
          | _ -> stack
        in
        Hashtbl.replace tracks tid (ts, stack)
      | ph -> Alcotest.fail (Printf.sprintf "unexpected phase %S" ph))
    events;
  Hashtbl.iter
    (fun tid (_, stack) ->
      if stack <> [] then
        Alcotest.fail (Printf.sprintf "track %d: %d unclosed spans" tid
                         (List.length stack)))
    tracks;
  depth_of

let test_perfetto_export () =
  with_triangle_trace @@ fun path ->
  let a = Analysis.of_file path in
  let doc = Analysis.to_perfetto a in
  (* The export must survive a JSON round-trip (i.e. be a valid file). *)
  let doc = Jsonx.of_string (Jsonx.to_string doc) in
  let depth_of = walk_perfetto doc in
  (match Hashtbl.find_opt depth_of "engine.run" with
  | Some d ->
    Alcotest.(check bool)
      (Printf.sprintf "engine.run nested (depth %d >= 1)" d)
      true (d >= 1)
  | None -> Alcotest.fail "no engine.run span in the export");
  Alcotest.(check bool)
    "profiler saw nesting too" true
    (Analysis.max_span_depth a >= 2)

let test_analysis_deterministic () =
  (* Same trace bytes, same analysis — byte-for-byte. *)
  with_triangle_trace @@ fun path ->
  let a1 = Analysis.of_file path and a2 = Analysis.of_file path in
  Alcotest.(check string)
    "perfetto export identical"
    (Jsonx.to_string (Analysis.to_perfetto a1))
    (Jsonx.to_string (Analysis.to_perfetto a2));
  Alcotest.(check (list (float 0.)))
    "residency identical"
    (Array.to_list (Analysis.residency a1))
    (Array.to_list (Analysis.residency a2));
  let d1 = (Analysis.audit a1).Analysis.linf
  and d2 = (Analysis.audit a2).Analysis.linf in
  Alcotest.check (Alcotest.float 0.) "audit identical" d1 d2

let test_top_spans_from_trace () =
  with_triangle_trace @@ fun path ->
  let a = Analysis.of_file path in
  let spans = Analysis.top_spans ~limit:3 a in
  Alcotest.(check bool) "some spans aggregated" true (spans <> []);
  Alcotest.(check bool) "limit respected" true (List.length spans <= 3);
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (s.Span.agg_name ^ " count positive")
        true (s.Span.count > 0);
      Alcotest.(check bool)
        (s.Span.agg_name ^ " self <= total")
        true
        (s.Span.agg_self_s <= s.Span.agg_total_s +. 1e-9))
    spans;
  (* Sorted by self time, descending. *)
  let selfs = List.map (fun s -> s.Span.agg_self_s) spans in
  Alcotest.(check (list (float 0.)))
    "sorted by self time" (List.sort (Fun.flip compare) selfs) selfs

(* The replay feeds [Span_end] events through the profiler's own
   aggregation, and span floats round-trip exactly through the trace's
   number format, so the replayed table equals the live one. *)
let test_replayed_spans_match_profiler () =
  let spans = Span.create () in
  let path = run_triangle_scenario ~spans () in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let live = Span.aggregate spans in
  Alcotest.(check bool) "the run profiled some spans" true (live <> []);
  Alcotest.(check bool) "replayed aggregates equal the live profiler's" true
    (Analysis.top_spans (Analysis.of_file path) = live)

(* --- telemetry views --- *)

let snap ~t ~seq ~events ~d_events ~live =
  ( t,
    Trace.Snapshot
      {
        seq;
        events;
        d_events;
        live;
        live_by_level = [ live ];
        peak_live = live;
        hot = [ (3, d_events) ];
        counters = [ ("drcomm.admitted", d_events) ];
        slo_good = d_events;
        slo_bad = 0;
        slo_burn = 0.;
      } )

let beat ~t ~seq ~wall_s =
  ( t,
    Trace.Heartbeat
      {
        seq;
        wall_s;
        d_events = 100;
        ops_per_s = 100.;
        minor_words = 1e4;
        major_words = 1e2;
        heap_words = 1_000_000;
      } )

let test_snapshot_replay () =
  let events =
    [
      snap ~t:10. ~seq:0 ~events:100 ~d_events:100 ~live:5;
      snap ~t:20. ~seq:1 ~events:160 ~d_events:60 ~live:7;
      snap ~t:30. ~seq:2 ~events:200 ~d_events:40 ~live:6;
    ]
  in
  let a = Analysis.of_events events in
  let snaps = Analysis.snapshots a in
  Alcotest.(check int) "three snapshots" 3 (List.length snaps);
  let time, first = List.hd snaps in
  Alcotest.check approx "time" 10. time;
  Alcotest.(check int) "live" 5 first.Trace.live;
  Alcotest.(check bool) "hot links survive the round-trip" true
    (first.Trace.hot = [ (3, 100) ]);
  Alcotest.(check bool) "counters survive the round-trip" true
    (first.Trace.counters = [ ("drcomm.admitted", 100) ]);
  (* d_events / dt between consecutive same-stream snapshots. *)
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "ops series" [ (20., 6.); (30., 4.) ] (Analysis.ops_series a)

let test_ops_series_stream_boundary () =
  (* A concatenated sweep file restarts seq at 0 per point; the pair
     across the boundary must not produce a (negative-dt or bogus)
     point. *)
  let events =
    [
      snap ~t:10. ~seq:0 ~events:50 ~d_events:50 ~live:1;
      snap ~t:20. ~seq:1 ~events:90 ~d_events:40 ~live:1;
      (* next sweep point: seq restarts, sim clock restarts *)
      snap ~t:10. ~seq:0 ~events:30 ~d_events:30 ~live:1;
      snap ~t:20. ~seq:1 ~events:50 ~d_events:20 ~live:1;
    ]
  in
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "one point per stream"
    [ (20., 4.); (20., 2.) ]
    (Analysis.ops_series (Analysis.of_events events))

let test_stall_detection () =
  (* Heartbeats every ~0.1 s with one 1.0 s gap: a stall at 3x the
     median cadence. *)
  let beats =
    [ 0.; 0.1; 0.2; 0.3; 1.3; 1.4; 1.5 ]
    |> List.mapi (fun i w -> beat ~t:(float_of_int i) ~seq:i ~wall_s:w)
  in
  let a = Analysis.of_events beats in
  Alcotest.(check int) "heartbeats replayed" 7
    (List.length (Analysis.heartbeats a));
  (match Analysis.stalls a with
  | [ (at, gap) ] ->
    Alcotest.check approx "stall located at the gap end" 1.3 at;
    Alcotest.check approx "gap width" 1.0 gap
  | l -> Alcotest.failf "expected 1 stall, got %d" (List.length l));
  (* With an explicit expected cadence larger than the gap, silence. *)
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "no stalls against a slow expected cadence" []
    (Analysis.stalls ~expected:1. a);
  Alcotest.(check bool) "factor <= 0 rejected" true
    (match Analysis.stalls ~factor:0. a with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_stalls_need_two_beats () =
  let a = Analysis.of_events [ beat ~t:0. ~seq:0 ~wall_s:0. ] in
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "single heartbeat, no stalls" [] (Analysis.stalls a)

let test_perfetto_counter_events () =
  let events =
    [
      snap ~t:10. ~seq:0 ~events:100 ~d_events:100 ~live:5;
      beat ~t:10. ~seq:0 ~wall_s:0.5;
    ]
  in
  let doc =
    Jsonx.of_string
      (Jsonx.to_string (Analysis.to_perfetto (Analysis.of_events events)))
  in
  let get name obj =
    match obj with Jsonx.Obj fields -> List.assoc_opt name fields | _ -> None
  in
  let evs =
    match get "traceEvents" doc with
    | Some (Jsonx.List evs) -> evs
    | _ -> Alcotest.fail "no traceEvents array"
  in
  let counters =
    List.filter (fun ev -> get "ph" ev = Some (Jsonx.String "C")) evs
  in
  (match counters with
  | [ c ] ->
    Alcotest.(check bool) "counter named telemetry" true
      (get "name" c = Some (Jsonx.String "telemetry"));
    let args = match get "args" c with Some a -> a | None -> Jsonx.Null in
    Alcotest.(check bool) "live series present" true
      (get "live" args = Some (Jsonx.Int 5))
  | l -> Alcotest.failf "expected 1 counter event, got %d" (List.length l));
  (* The heartbeat lands as an instant like other non-span events. *)
  Alcotest.(check bool) "heartbeat is an instant" true
    (List.exists
       (fun ev ->
         get "ph" ev = Some (Jsonx.String "i")
         && get "name" ev = Some (Jsonx.String "heartbeat"))
       evs)

(* --- Request anatomy --- *)

let req_trio ~t ~rid ~verb ?(ok = true) stages =
  let total_s = List.fold_left (fun acc (_, s) -> acc +. s) 0. stages in
  ((t, Trace.Req_begin { rid; verb })
  :: List.map (fun (stage, seconds) -> (t, Trace.Req_stage { rid; stage; seconds })) stages)
  @ [ (t, Trace.Req_end { rid; verb; ok; total_s }) ]

let test_request_views () =
  let stages rid =
    [
      ("queue", 0.001 *. float_of_int rid);
      ("parse", 0.0001);
      ("service", 0.01);
      ("redistribute", 0.002);
      ("write", 0.0005);
    ]
  in
  let events =
    List.concat_map
      (fun rid -> req_trio ~t:(float_of_int rid) ~rid ~verb:"admit" (stages rid))
      [ 1; 2; 3 ]
    @ [
        ( 4.,
          Trace.Req_client
            { rid = 2; verb = "admit"; sched_s = 0.2; latency_s = 0.05 } );
      ]
  in
  let a = Analysis.of_events events in
  Alcotest.(check (list string)) "well-formed trace checks clean" []
    (Analysis.request_check a);
  let reqs = Analysis.requests a in
  Alcotest.(check int) "one record per rid" 3 (List.length reqs);
  Alcotest.(check (list int)) "rid ascending" [ 1; 2; 3 ]
    (List.map (fun r -> r.Analysis.rq_rid) reqs);
  List.iter
    (fun r ->
      Alcotest.(check bool) "complete" true r.Analysis.rq_complete;
      Alcotest.(check bool) "has begin" true r.Analysis.rq_has_begin;
      Alcotest.(check int) "five stages" 5 (List.length r.Analysis.rq_stages))
    reqs;
  (match List.find (fun r -> r.Analysis.rq_rid = 2) reqs with
  | { Analysis.rq_client = Some (verb, sched_s, latency_s); _ } ->
    Alcotest.(check string) "client verb joined" "admit" verb;
    Alcotest.(check (float 0.)) "sched joined" 0.2 sched_s;
    Alcotest.(check (float 0.)) "latency joined" 0.05 latency_s
  | _ -> Alcotest.fail "rid 2 did not join its client record");
  let at = Analysis.attribution a in
  let rid2_total =
    List.fold_left
      (fun acc r -> if r.Analysis.rq_rid = 2 then r.Analysis.rq_total_s else acc)
      0. reqs
  in
  Alcotest.(check int) "one joined request" 1 at.Analysis.at_joined;
  Alcotest.check approx "client latency summed" 0.05 at.Analysis.at_client_s;
  Alcotest.check approx "stages explain their sum" rid2_total at.Analysis.at_server_s;
  Alcotest.check approx "bounded by the client clock" 0.05 at.Analysis.at_bound_s;
  Alcotest.(check (pair int int)) "fully attributed, none over" (1, 0)
    (at.Analysis.at_attributed_95, at.Analysis.at_over);
  let anatomy = Analysis.stage_anatomy a in
  Alcotest.(check (list string))
    "stages in pipeline order"
    [ "queue"; "parse"; "service"; "redistribute"; "write" ]
    (List.map (fun s -> s.Analysis.st_stage) anatomy);
  List.iter
    (fun s ->
      Alcotest.(check int) ("count of " ^ s.Analysis.st_stage) 3
        s.Analysis.st_count)
    anatomy;
  let queue = List.hd anatomy in
  Alcotest.(check (float 1e-12)) "queue total" 0.006 queue.Analysis.st_total_s;
  (* Exact nearest-rank quantiles over [0.001; 0.002; 0.003]. *)
  Alcotest.(check (float 1e-12)) "queue p50 exact" 0.002 queue.Analysis.st_p50_s;
  Alcotest.(check (float 1e-12)) "queue p99 exact" 0.003 queue.Analysis.st_p99_s;
  (* Tail = totals at or above the p99 of totals = request 3 alone;
     every share is that one request's stage composition, summing to 1
     over the five stages. *)
  let share_sum =
    List.fold_left (fun acc s -> acc +. s.Analysis.st_tail_share) 0. anatomy
  in
  Alcotest.(check (float 1e-9)) "tail shares sum to 1" 1.0 share_sum

let test_request_check_violations () =
  let a =
    Analysis.of_events
      [
        (1., Trace.Req_end { rid = 9; verb = "ping"; ok = true; total_s = 0.1 });
        (2., Trace.Req_begin { rid = 5; verb = "admit" });
        ( 2.,
          Trace.Req_stage { rid = 5; stage = "queue"; seconds = -0.001 } );
        (2., Trace.Req_end { rid = 5; verb = "admit"; ok = true; total_s = 0.1 });
        (3., Trace.Req_end { rid = 5; verb = "admit"; ok = true; total_s = 0.1 });
      ]
  in
  let violations = Analysis.request_check a in
  Alcotest.(check bool) "violations found" true (violations <> []);
  let mentions needle =
    List.exists
      (fun v ->
        (* substring match *)
        let lv = String.length v and ln = String.length needle in
        let rec go i = i + ln <= lv && (String.sub v i ln = needle || go (i + 1)) in
        go 0)
      violations
  in
  Alcotest.(check bool) "orphan req_end reported" true (mentions "rid 9");
  Alcotest.(check bool) "duplicate req_end reported" true (mentions "rid 5")

let test_requests_to_perfetto () =
  let a =
    Analysis.of_events
      (req_trio ~t:1. ~rid:1 ~verb:"admit"
         [ ("queue", 0.001); ("service", 0.01) ]
      @ [
          ( 2.,
            Trace.Req_client
              { rid = 1; verb = "admit"; sched_s = 0.; latency_s = 0.02 } );
        ])
  in
  let doc = Jsonx.to_string (Analysis.requests_to_perfetto a) in
  let has needle =
    let lv = String.length doc and ln = String.length needle in
    let rec go i = i + ln <= lv && (String.sub doc i ln = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "queue track present" true (has "stage: queue");
  Alcotest.(check bool) "residual track present" true (has "network+queue");
  Alcotest.(check bool) "complete events" true (has "\"ph\":\"X\"")

let test_of_file_errors () =
  let path = Filename.temp_file "drqos_analysis_bad" ".jsonl" in
  let oc = open_out path in
  output_string oc "{\"t\": 0.0, \"ev\": \"admit\", \"channel\": 0, ";
  output_string oc "\"direct\": 0, \"indirect\": 0}\nnot json\n";
  close_out oc;
  (match Analysis.of_file path with
  | exception Jsonx.Line_error { line; _ } ->
    Alcotest.(check int) "syntax error names line 2" 2 line
  | _ -> Alcotest.fail "malformed line accepted");
  let oc = open_out path in
  output_string oc "{\"t\": 0.0, \"ev\": \"no_such_kind\"}\n";
  close_out oc;
  (match Analysis.of_file path with
  | exception Jsonx.Line_error { line; _ } ->
    Alcotest.(check int) "unknown kind names line 1" 1 line
  | _ -> Alcotest.fail "unknown event kind accepted");
  (match Analysis.load [ path ] with
  | Error msg ->
    Alcotest.(check string) "load names file and line"
      (path ^ ":1: unknown event kind \"no_such_kind\"")
      msg
  | Ok _ -> Alcotest.fail "load accepted an unknown event kind");
  Sys.remove path;
  match Analysis.load [ path ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "load of a missing file succeeded"

(* A server trace and its client log replay as one stream, joined by
   rid, exactly as the concatenated file would. *)
let test_load_concatenates () =
  let write lines =
    let path = Filename.temp_file "drqos_analysis_load" ".jsonl" in
    Out_channel.with_open_text path (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) lines);
    path
  in
  let server =
    [
      {|{"t":1,"ev":"req_begin","rid":3,"verb":"admit"}|};
      {|{"t":1,"ev":"req_stage","rid":3,"stage":"service","seconds":0.01}|};
      {|{"t":1,"ev":"req_end","rid":3,"verb":"admit","ok":true,"total_s":0.01}|};
    ]
  and client =
    [ {|{"t":3,"ev":"req_client","rid":3,"verb":"admit","sched_s":0.5,"latency_s":0.02}|} ]
  in
  let files = [ write server; write client; write (server @ client) ] in
  let joined = function
    | Ok a -> List.map (fun r -> r.Analysis.rq_client) (Analysis.requests a)
    | Error msg -> Alcotest.fail msg
  in
  (match files with
  | [ s; c; both ] ->
    Alcotest.(check bool) "two files = their concatenation" true
      (joined (Analysis.load [ s; c ]) = joined (Analysis.load [ both ]));
    Alcotest.(check bool) "the client record joined" true
      (joined (Analysis.load [ s; c ]) = [ Some ("admit", 0.5, 0.02) ])
  | _ -> assert false);
  List.iter Sys.remove files

(* --- BENCH_*.json perf records --- *)

let test_perf_record_roundtrip () =
  let path = Filename.temp_file "BENCH_test" ".json" in
  let load () =
    match Perf_record.load path with Ok r -> r | Error msg -> Alcotest.fail msg
  in
  let save r = Out_channel.with_open_text path (fun oc -> Perf_record.write oc r) in
  (* Loading keeps every field: a loaded record writes back byte for byte. *)
  let rewrites_identically r =
    let text p = In_channel.with_open_text p In_channel.input_all in
    let copy = Filename.temp_file "BENCH_copy" ".json" in
    Out_channel.with_open_text copy (fun oc -> Perf_record.write oc r);
    Alcotest.(check string) "rewrite is byte-identical" (text path) (text copy);
    Sys.remove copy
  in
  let spans = Span.create () in
  Span.wrap spans "outer" (fun () -> Span.wrap spans "inner" ignore);
  let (), gc = Perf_record.with_gc Gc.minor in
  Alcotest.(check bool) "GC delta sees the minor collection" true
    (gc.Perf_record.minor_collections >= 1);
  let gc = { gc with Perf_record.major_words = 3. } in
  let metrics = Metrics.create () in
  Metrics.add (Metrics.counter metrics "engine.events") 7;
  save
    (Perf_record.bench ~experiment:"fig2" ~scale:Perf_record.Quick ~jobs:2
       ~wall_s:1.25 ~gc ~metrics ~spans
       ~plateaus:[ { Perf_record.live = 10; ops = 4; ops_per_sec = 2.; us_per_op = 5e5 } ]
       ());
  let r = load () in
  Alcotest.check approx "wall_s" 1.25 (Perf_record.wall_s r);
  Alcotest.(check bool) "the metrics registry is in the record" true
    (let text = In_channel.with_open_text path In_channel.input_all in
     Option.is_some
       (Option.bind (Jsonx.member "metrics" (Jsonx.of_string text)) (fun m ->
            Option.bind (Jsonx.member "counters" m) (Jsonx.member "engine.events"))));
  Alcotest.(check (option (float 0.))) "gc.major_words" (Some 3.)
    (Perf_record.major_words r);
  rewrites_identically r;
  let self_s =
    List.map (fun a -> (a.Span.agg_name, a.Span.agg_self_s)) (Span.aggregate spans)
  in
  Alcotest.(check (list (pair string (list (pair string (float 1e-9))))))
    "span self times, no stages"
    [ ("span (self_s)", self_s); ("stage (p99_s)", []) ]
    (Perf_record.tables r);
  let latency = { Perf_record.p50 = 0.001; p95 = 0.002; p99 = 0.003; p999 = 0.004; max = 0.005 } in
  save
    (Perf_record.serve ~scale:Perf_record.Full ~jobs:4 ~wall_s:0.5 ~gc
       ~stage_p99_s:[ ("req.queue", 0.0002); ("req.total", 0.0009) ]
       {
         Perf_record.requests = 100; rate_rps = 200.; live_target = 40;
         arrivals = "poisson"; achieved_rps = 199.; max_lag_s = 0.01; latency_s = latency;
         rejected = 1; stale = 0; errors = 0; slo_good = 99; slo_bad = 1;
       });
  let r = load () in
  Alcotest.check approx "serve wall_s" 0.5 (Perf_record.wall_s r);
  rewrites_identically r;
  Alcotest.(check bool) "serve gc carries the full GC delta" true
    (String.ends_with
       ~suffix:
         (Printf.sprintf
            {|"gc":{"minor_words":%s,"promoted_words":%s,"major_words":3,"minor_collections":%d,"major_collections":%d}}|}
            (Jsonx.to_string (Jsonx.Float gc.minor_words))
            (Jsonx.to_string (Jsonx.Float gc.promoted_words))
            gc.minor_collections gc.major_collections)
       (String.trim (In_channel.with_open_text path In_channel.input_all)));
  Alcotest.(check (list (pair string (list (pair string (float 0.))))))
    "stage p99s, no spans"
    [ ("span (self_s)", []); ("stage (p99_s)", [ ("req.queue", 0.0002); ("req.total", 0.0009) ]) ]
    (Perf_record.tables r);
  Out_channel.with_open_text path (fun oc -> output_string oc "{\"jobs\":1}\n");
  (match Perf_record.load path with
  | Error msg -> Alcotest.(check string) "no wall_s" (path ^ ": missing or ill-typed wall_s") msg
  | Ok _ -> Alcotest.fail "a record without wall_s loaded");
  Sys.remove path

let test_perf_record_gate () =
  Alcotest.(check (list (triple string (option (float 0.)) (option (float 0.)))))
    "join over the union of names"
    [ ("a", Some 1., None); ("b", Some 2., Some 3.); ("c", None, Some 4.) ]
    (Perf_record.join [ ("b", 2.); ("a", 1.) ] [ ("c", 4.); ("b", 3.) ]);
  Alcotest.check approx "pct change" 50. (Perf_record.pct_change 2. 3.);
  Alcotest.check approx "pct change from zero" 0. (Perf_record.pct_change 0. 3.);
  Alcotest.(check bool) "within the limit" false (Perf_record.regressed ~max_pct:50. 2. 3.);
  Alcotest.(check bool) "past the limit" true (Perf_record.regressed ~max_pct:49. 2. 3.)

let () =
  Alcotest.run "analysis"
    [
      ( "replay",
        [
          Alcotest.test_case "residency arithmetic" `Quick
            test_residency_arithmetic;
          Alcotest.test_case "live channels close at horizon" `Quick
            test_residency_closes_live_channels;
          Alcotest.test_case "upgrade before admit" `Quick
            test_upgrade_before_admit;
          Alcotest.test_case "residency matches the service" `Quick
            test_residency_matches_service;
          Alcotest.test_case "rejection breakdown" `Quick
            test_rejection_breakdown;
          Alcotest.test_case "failure windows" `Quick test_failure_windows;
          Alcotest.test_case "rate estimation" `Quick test_estimate_rates;
          Alcotest.test_case "empty trace" `Quick test_empty_trace;
          Alcotest.test_case "of_file error reporting" `Quick
            test_of_file_errors;
          Alcotest.test_case "load concatenates files" `Quick
            test_load_concatenates;
        ] );
      ( "perf-record",
        [
          Alcotest.test_case "write/load round trip" `Quick
            test_perf_record_roundtrip;
          Alcotest.test_case "comparison helpers" `Quick test_perf_record_gate;
        ] );
      ( "audit",
        [
          Alcotest.test_case "empirical vs analytic (acceptance)" `Quick
            test_audit_acceptance;
        ] );
      ( "profiler",
        [
          Alcotest.test_case "perfetto export" `Quick test_perfetto_export;
          Alcotest.test_case "deterministic" `Quick test_analysis_deterministic;
          Alcotest.test_case "top spans" `Quick test_top_spans_from_trace;
          Alcotest.test_case "replayed spans match the profiler" `Quick
            test_replayed_spans_match_profiler;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "snapshot replay and ops series" `Quick
            test_snapshot_replay;
          Alcotest.test_case "ops series skips stream boundaries" `Quick
            test_ops_series_stream_boundary;
          Alcotest.test_case "stall detection on gapped heartbeats" `Quick
            test_stall_detection;
          Alcotest.test_case "stalls need two heartbeats" `Quick
            test_stalls_need_two_beats;
          Alcotest.test_case "request views and stage anatomy" `Quick
            test_request_views;
          Alcotest.test_case "request consistency violations" `Quick
            test_request_check_violations;
          Alcotest.test_case "request anatomy perfetto export" `Quick
            test_requests_to_perfetto;
          Alcotest.test_case "perfetto counter events" `Quick
            test_perfetto_counter_events;
        ] );
    ]
