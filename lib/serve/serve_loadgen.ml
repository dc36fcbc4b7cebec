type arrivals = [ `Poisson | `Bursty ]

(* [n] non-decreasing due times in seconds, drawn up front so the replay
   offers the same load whatever the daemon does.  Bursty draws at twice
   the rate, then stretches every other 100 ms window into silence. *)
let schedule ~seed ~rate arrivals n =
  let rng = Prng.create seed in
  let t = ref 0. in
  Array.init n (fun _ ->
      match arrivals with
      | `Poisson ->
        t := !t +. Prng.exponential rng rate;
        !t
      | `Bursty ->
        let burst = 0.1 in
        t := !t +. Prng.exponential rng (2. *. rate);
        !t +. (Float.of_int (int_of_float (!t /. burst)) *. burst))

type call = Reqtrace.ctx option -> Serve_proto.request -> Serve_proto.response

type worker = {
  call : call;
  rng : Prng.t;
  mutable trace : Reqtrace.ctx option;  (** stamped on the current step's requests. *)
  mutable own : int list;
  mutable failed : int list;
  mutable errors : int;
  mutable stale : int;  (** ops that raced a failure-drop: expected. *)
  mutable rejected : int;  (** admission rejections: expected under load. *)
}

let worker ~call ~seed w =
  {
    call;
    rng = Prng.create (seed + (1000 * (w + 1)));
    trace = None;
    own = [];
    failed = [];
    errors = 0;
    stale = 0;
    rejected = 0;
  }

let owned w = w.own
let failed w = w.failed
let errors w = w.errors

(* A list, not an array: worker domains share it, so it must be
   immutable (lint R7). *)
let qos_palette =
  [
    Qos.paper_spec ~increment:100;
    Qos.paper_spec ~increment:50;
    Qos.make ~utility:0.7 ~b_min:200 ~b_max:400 ~increment:50 ();
    Qos.make ~b_min:50 ~b_max:250 ~increment:50 ();
  ]

let send w req = w.call w.trace req
let drop_own w ch = w.own <- List.filter (fun c -> c <> ch) w.own

let pick_own w =
  match w.own with [] -> None | l -> Some (Prng.pick_list w.rng l)

let admit w ~nodes =
  let src, dst = Prng.sample_distinct_pair w.rng nodes in
  let qos = Prng.pick_list w.rng qos_palette in
  match send w (Serve_proto.Admit { src; dst; qos }) with
  | Serve_proto.Admitted { channel; _ } -> w.own <- channel :: w.own
  | Serve_proto.Admit_rejected _ -> w.rejected <- w.rejected + 1
  | _ -> w.errors <- w.errors + 1

let teardown w ch =
  drop_own w ch;
  match send w (Serve_proto.Teardown { channel = ch }) with
  | Serve_proto.Torn_down _ -> ()
  | Serve_proto.Error_reply _ ->
    (* The channel was dropped by a failure between our admit and now:
       an expected race under fail/repair injection, not a bug. *)
    w.stale <- w.stale + 1
  | _ -> w.errors <- w.errors + 1

let chqos w ch =
  let qos = Prng.pick_list w.rng qos_palette in
  match send w (Serve_proto.Change_qos { channel = ch; qos }) with
  | Serve_proto.Qos_changed _ -> ()
  | Serve_proto.Error_reply _ ->
    drop_own w ch;
    w.stale <- w.stale + 1
  | _ -> w.errors <- w.errors + 1

let fail_or_repair w ~fail_edges =
  match w.failed with
  | e :: rest ->
    (match send w (Serve_proto.Repair { edge = e }) with
    | Serve_proto.Edge_repaired _ -> w.failed <- rest
    | _ -> w.errors <- w.errors + 1);
    "repair"
  | [] ->
    let e = Prng.int w.rng fail_edges in
    (match send w (Serve_proto.Fail { edge = e }) with
    | Serve_proto.Edge_failed { recoveries; _ } ->
      w.failed <- e :: w.failed;
      (* Our own victims that did not survive leave the owned list. *)
      List.iter
        (fun r ->
          if r.Serve_proto.rw_outcome = `Dropped then
            drop_own w r.Serve_proto.rw_channel)
        recoveries
    | _ -> w.errors <- w.errors + 1);
    "fail"

let expect_ok w resp =
  match resp with
  | Serve_proto.Error_reply _ -> w.errors <- w.errors + 1
  | _ -> ()

(* The churn steers each worker's owned population toward [target], so
   the daemon's live set — and with it the per-operation water-filling
   cost — holds steady instead of growing without bound.  Each worker
   repairs only the edges it failed itself. *)
let step ?trace ~nodes ~target ~fail_edges w =
  w.trace <- trace;
  let admit_or f =
    match pick_own w with
    | Some ch -> f ch
    | None ->
      admit w ~nodes;
      "admit"
  in
  let dice = Prng.int w.rng 100 in
  if dice < 70 then
    if List.length w.own >= target then
      admit_or (fun ch ->
          teardown w ch;
          "teardown")
    else begin
      admit w ~nodes;
      "admit"
    end
  else if dice < 90 then
    admit_or (fun ch ->
        chqos w ch;
        "chqos")
  else if dice < 94 then begin
    expect_ok w (send w Serve_proto.Stats);
    "stats"
  end
  else if dice < 97 then begin
    expect_ok w (send w Serve_proto.Ping);
    "ping"
  end
  else if dice < 99 || fail_edges <= 0 then begin
    expect_ok w (send w Serve_proto.Snapshot);
    "snapshot"
  end
  else fail_or_repair w ~fail_edges

let finish w =
  List.iter (fun e -> ignore (w.call None (Serve_proto.Repair { edge = e }))) w.failed;
  w.failed <- []

type result = {
  summary : Perf_record.serve;
  wall_s : float;
  gc : Perf_record.gc;
  schedule : float array;
  verbs : string array;
  latencies : float array;
}

let run ~seed ~nodes ~requests ~rate ~arrivals ~jobs ~live_target ~fail_edges
    ~tracing ?slo addr =
  let schedule = schedule ~seed ~rate arrivals requests in
  let obs = Obs.create ~metrics:(Metrics.create ()) () in
  let workers = Array.make (max 1 jobs) None in
  let target = max 1 (live_target / max 1 jobs) in
  (* Per-operation cells: worker [w] owns indices [w, w+workers, ...]
     (the open-loop split), so each cell is written by exactly one
     domain and the join orders the writes before our reads. *)
  let verbs = Array.make requests "" in
  let latencies = Array.make requests (-1.) in
  let report, gc =
    Perf_record.with_gc (fun () ->
        Sweep.open_loop ~jobs ~obs ~timer:"loadgen.latency" ~arrivals:schedule
          ~on_complete:(fun i latency -> latencies.(i) <- latency)
          ~worker:(fun i ->
            let client = Serve_client.connect ~retries:100 addr in
            let call trace req = Serve_client.request ?trace client req in
            let w = worker ~call ~seed i in
            workers.(i) <- Some w;
            (w, client))
          ~finish:(fun (w, client) ->
            finish w;
            Serve_client.close client)
          (fun _ (w, _) i ->
            let trace =
              if tracing then Some { Reqtrace.rid = i; t_sched = schedule.(i) }
              else None
            in
            verbs.(i) <- step ?trace ~nodes ~target ~fail_edges w))
  in
  let sum f =
    Array.fold_left (fun acc -> function Some w -> acc + f w | None -> acc) 0 workers
  in
  let tm = Metrics.timer (Obs.metrics obs) "loadgen.latency" in
  let q = Metrics.timer_quantile tm in
  let slo_good, slo_bad =
    match slo with
    | None -> (0, 0)
    | Some s ->
      Array.fold_left
        (fun (good, bad) l ->
          if l < 0. then (good, bad) else if l <= s then (good + 1, bad) else (good, bad + 1))
        (0, 0) latencies
  in
  let summary =
    {
      Perf_record.requests = report.Sweep.sent;
      rate_rps = rate;
      live_target;
      arrivals = (match arrivals with `Poisson -> "poisson" | `Bursty -> "bursty");
      achieved_rps = report.Sweep.achieved_rps;
      max_lag_s = report.Sweep.max_lag_s;
      latency_s =
        {
          p50 = q 0.5;
          p95 = q 0.95;
          p99 = q 0.99;
          p999 = q 0.999;
          max = Metrics.timer_max tm;
        };
      rejected = sum (fun w -> w.rejected);
      stale = sum (fun w -> w.stale);
      errors = sum (fun w -> w.errors);
      slo_good;
      slo_bad;
    }
  in
  { summary; wall_s = report.Sweep.wall_s; gc; schedule; verbs; latencies }

let write_client_log oc r =
  Array.iteri
    (fun i verb ->
      if verb <> "" && r.latencies.(i) >= 0. then begin
        Jsonx.output oc
          (Trace.to_json ~time:(float_of_int i)
             (Trace.Req_client
                { rid = i; verb; sched_s = r.schedule.(i); latency_s = r.latencies.(i) }));
        output_char oc '\n'
      end)
    r.verbs

let write_percentiles oc r =
  let l = r.summary.Perf_record.latency_s in
  Printf.fprintf oc "# quantile\tlatency_s\n";
  List.iter
    (fun (name, v) -> Printf.fprintf oc "%s\t%.9f\n" name v)
    [ ("p50", l.p50); ("p95", l.p95); ("p99", l.p99); ("p999", l.p999); ("max", l.max) ]

let request_once addr req =
  let c = Serve_client.connect addr in
  Fun.protect ~finally:(fun () -> Serve_client.close c) (fun () -> Serve_client.request c req)

let stage_p99s addr =
  match request_once addr Serve_proto.Metrics with
  | Serve_proto.Metrics_reply doc ->
    let p99 name =
      Option.bind (Jsonx.member "timers" doc) (fun timers ->
          Option.bind (Jsonx.member name timers) (fun t ->
              Option.bind (Jsonx.member "p99_s" t) Jsonx.to_float))
    in
    List.filter_map
      (fun name -> Option.map (fun v -> (name, v)) (p99 name))
      (List.map Reqtrace.timer_name Reqtrace.all_stages @ [ "req.total" ])
  | _ -> []
  | exception _ -> []

let shutdown addr =
  match request_once addr Serve_proto.Shutdown with
  | Serve_proto.Shutting_down -> true
  | _ -> false
