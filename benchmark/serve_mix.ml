(* The QoS-broker daemon under a fixed open-loop rate.  The daemon runs
   [Serve_server.run] on the 100-node paper Waxman at 10 Mbps, as
   [drqos_cli serve --nodes 100] does, in a child process forked before
   any domain exists.  One synchronous client drives it over a Unix
   socket through [Sweep.open_loop ~jobs:1]: it warms the daemon to the
   live target, then sends Poisson arrivals with loadgen's mix (70%
   admit/teardown steering the live count, 20% chqos, 10%
   stats/ping/snapshot) and no failures.  The live target is loadgen's
   400, the operating point [drqos_cli loadgen --live 400] runs at.  The
   codec, the event loop and the socket carry every request here, beside
   the water-filling that admissions and teardowns at that population
   pay.

   Latency is measured open-loop, from each request's due time to its
   reply.  Afterwards the captured request stream is replayed through
   an in-process [Serve_broker]: its final stats must equal the
   daemon's, and its service must pass the invariant audit. *)

open Kit

let topology_seed = 1
let nodes = 100
let config = Drcomm.Config.make ~policy:Policy.equal_share ()
let hop_bound = Drcomm.Config.hop_bound config

type sizes = { rate : float; live : int; setups : int; checkpoint : int }

let sizes env =
  if env.smoke then { rate = 500.; live = 40; setups = 2; checkpoint = 50 }
  else { rate = 1000.; live = 400; setups = 9; checkpoint = 2000 }

let graph () = Waxman.generate (Prng.create topology_seed) (Waxman.paper_spec ~nodes)
let network () = Net_state.create ~capacity:Bandwidth.paper_link_capacity (graph ())

let qos_palette =
  [|
    Qos.paper_spec ~increment:100;
    Qos.paper_spec ~increment:50;
    Qos.make ~utility:0.7 ~b_min:200 ~b_max:400 ~increment:50 ();
    Qos.make ~b_min:50 ~b_max:250 ~increment:50 ();
  |]

let verbs = [| "admit"; "teardown"; "chqos"; "stats"; "ping"; "snapshot" |]

(* ---- the daemon process ---- *)

type daemon = { pid : int; report : Unix.file_descr; mutable running : bool }

(* What the daemon reports on its way out: its own peak memory and
   allocation, which the client process cannot see. *)
type report = {
  rss_mb : float;
  minor_words : float;
  major_words : float;
  major_collections : int;
  requests : int;
}

let spawn ~socket ?trace_file () =
  flush_all ();
  let rd, wr = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let code =
      match Serve_server.run ~config ?trace_file (`Unix socket) (network ()) with
      | requests ->
        let g = Gc.quick_stat () in
        let line =
          Printf.sprintf "%.17g %.17g %.17g %d %d\n" (peak_rss_mb ()) g.minor_words
            g.major_words g.major_collections requests
        in
        ignore (Unix.write_substring wr line 0 (String.length line));
        0
      | exception e ->
        prerr_endline ("serve_mix daemon: " ^ Printexc.to_string e);
        1
    in
    Unix._exit code
  | pid ->
    Unix.close wr;
    { pid; report = rd; running = true }

let reap d =
  if d.running then begin
    d.running <- false;
    let _, status = Unix.waitpid [] d.pid in
    Unix.close d.report;
    status
  end
  else Unix.WEXITED 0

let kill d =
  if d.running then begin
    (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error (_, _, _) -> ());
    ignore (reap d)
  end

(* Read the exit report (the daemon writes it once [run] returns), then
   reap the process. *)
let collect d =
  let ic = Unix.in_channel_of_descr d.report in
  let line = try input_line ic with End_of_file -> "" in
  (match reap d with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith "serve_mix: daemon exited abnormally");
  Scanf.sscanf line "%f %f %f %d %d" (fun rss_mb minor_words major_words major_collections requests ->
      { rss_mb; minor_words; major_words; major_collections; requests })

(* ---- the client ---- *)

type client = {
  conn : Serve_client.t;
  rng : Prng.t;
  mutable own : int array;  (** live channels this client admitted, dense. *)
  mutable own_n : int;
  mutable log : Serve_proto.request list;  (** every request sent, newest first. *)
  mutable trace : Reqtrace.ctx option;
}

let send cl req =
  cl.log <- req :: cl.log;
  match Serve_client.request ?trace:cl.trace cl.conn req with
  | resp -> Some resp
  | exception ((Failure _ | Unix.Unix_error (_, _, _)) as e) ->
    Printf.eprintf "serve_mix: request failed: %s\n%!" (Printexc.to_string e);
    None

let add_own cl ch =
  if cl.own_n = Array.length cl.own then begin
    let bigger = Array.make (2 * cl.own_n) 0 in
    Array.blit cl.own 0 bigger 0 cl.own_n;
    cl.own <- bigger
  end;
  cl.own.(cl.own_n) <- ch;
  cl.own_n <- cl.own_n + 1

let take_own cl k =
  let ch = cl.own.(k) in
  cl.own_n <- cl.own_n - 1;
  cl.own.(k) <- cl.own.(cl.own_n);
  ch

let admit cl =
  let src, dst = Prng.sample_distinct_pair cl.rng nodes in
  let qos = Prng.pick cl.rng qos_palette in
  match send cl (Serve_proto.Admit { src; dst; qos }) with
  | Some (Serve_proto.Admitted { channel; _ }) ->
    add_own cl channel;
    true
  | Some (Serve_proto.Admit_rejected _) -> true
  | Some _ | None -> false

(* One operation of the mix: its verb index and whether the reply was
   the expected kind.  Rejections are answers, not failures. *)
let step cl ~target =
  let dice = Prng.int cl.rng 100 in
  let chqos () =
    let ch = cl.own.(Prng.int cl.rng cl.own_n) in
    let qos = Prng.pick cl.rng qos_palette in
    match send cl (Serve_proto.Change_qos { channel = ch; qos }) with
    | Some (Serve_proto.Qos_changed _) -> true
    | Some _ | None -> false
  in
  let read req =
    match (req, send cl req) with
    | Serve_proto.Stats, Some (Serve_proto.Stats_reply _)
    | Serve_proto.Ping, Some Serve_proto.Pong
    | Serve_proto.Snapshot, Some (Serve_proto.Snapshot_reply _) ->
      true
    | _ -> false
  in
  if dice < 70 then
    if cl.own_n >= target then
      let channel = take_own cl (Prng.int cl.rng cl.own_n) in
      ( 1,
        match send cl (Serve_proto.Teardown { channel }) with
        | Some (Serve_proto.Torn_down _) -> true
        | Some _ | None -> false )
    else (0, admit cl)
  else if dice < 90 then if cl.own_n > 0 then (2, chqos ()) else (0, admit cl)
  else if dice < 94 then (3, read Serve_proto.Stats)
  else if dice < 97 then (4, read Serve_proto.Ping)
  else (5, read Serve_proto.Snapshot)

(* ---- one daemon session ---- *)

type window = {
  due : float array;  (** schedule offsets. *)
  latency : float array;  (** due time to reply; [infinity] when failed. *)
  started : float array;  (** when the client began each request. *)
  finished : float array;  (** completion times. *)
  start : float;
  verb : int array;
  max_lag : float;
}

type session = {
  setup_s : float;
  window : window option;
  final : Serve_proto.response option;  (** the daemon's closing stats. *)
  requests : Serve_proto.request array;
  warm : int;  (** requests before the window. *)
  report : report;
}

let socket env = Filename.concat env.out_dir "serve.sock"

(* Poisson arrivals over [seconds], drawn up front; at least [min_n]. *)
let schedule rng ~rate ~seconds ~min_n =
  let rec draw t acc n =
    let t = t +. Prng.exponential rng rate in
    if t < seconds || n < min_n then draw t (t :: acc) (n + 1)
    else Array.of_list (List.rev acc)
  in
  draw 0. [] 0

let session env sz ?trace_file ~window_s () =
  let t0 = now () in
  let d = spawn ~socket:(socket env) ?trace_file () in
  Fun.protect
    ~finally:(fun () -> kill d)
    (fun () ->
      let conn =
        Serve_client.connect ~retries:2000 ~retry_delay:0.002 (`Unix (socket env))
      in
      let seeds = Prng.create env.seed in
      let cl =
        { conn; rng = Prng.split seeds; own = Array.make 64 0; own_n = 0; log = []; trace = None }
      in
      let attempts = ref 0 in
      while cl.own_n < sz.live && !attempts < 4 * sz.live do
        incr attempts;
        if not (admit cl) then failwith "serve_mix: warm-up admit failed"
      done;
      let setup_s = now () -. t0 in
      let warm = List.length cl.log in
      let window =
        if window_s <= 0. then None
        else begin
          let arrivals =
            schedule (Prng.split seeds) ~rate:sz.rate ~seconds:window_s
              ~min_n:sz.checkpoint
          in
          let n = Array.length arrivals in
          let latency = Array.make n infinity and verb = Array.make n 0 in
          let started = Array.make n 0. and finished = Array.make n 0. in
          let ok = Array.make n false in
          let start = now () in
          let r =
            Sweep.open_loop ~jobs:1 ~obs:Obs.null ~arrivals
              ~on_complete:(fun i l ->
                finished.(i) <- now ();
                if ok.(i) then latency.(i) <- l)
              ~worker:(fun _ -> cl)
              (fun _ cl i ->
                started.(i) <- now ();
                if env.traced then
                  cl.trace <- Some { Reqtrace.rid = i; t_sched = arrivals.(i) };
                let v, good = step cl ~target:sz.live in
                verb.(i) <- v;
                ok.(i) <- good)
          in
          cl.trace <- None;
          Some
            {
              due = arrivals;
              latency;
              started;
              finished;
              start;
              verb;
              max_lag = r.Sweep.max_lag_s;
            }
        end
      in
      let final = send cl Serve_proto.Stats in
      (match Serve_client.request conn Serve_proto.Shutdown with
      | Serve_proto.Shutting_down -> ()
      | _ -> failwith "serve_mix: shutdown refused");
      Serve_client.close conn;
      let report = collect d in
      if report.requests <> List.length cl.log then
        failwith "serve_mix: daemon and client disagree on the request count";
      (match final with
      | Some (Serve_proto.Stats_reply { live; _ }) when live = cl.own_n -> ()
      | _ -> failwith "serve_mix: daemon live count differs from the client's");
      {
        setup_s;
        window;
        final;
        requests = Array.of_list (List.rev cl.log);
        warm;
        report;
      })

(* ---- in-process replay ---- *)

type replay_layers = {
  prof : Span.t;
  decode : Samples.t;
  encode : Samples.t;
  dispatch : Samples.t;
  probes : probes;
  mutable admit_s : float;
}

(* Replay a session's request stream through a fresh broker on the same
   network.  Returns the digest at the checkpoint and the reply to the
   last request.  With [layers], each request is also decoded from and
   its reply encoded to the wire, every step timed; admits get routing
   probes, all recorded as spans. *)
let replay sz ?layers ?(upto = max_int) s =
  let broker = Serve_broker.create ~config ~obs:Obs.null (network ()) in
  let svc = Serve_broker.service broker in
  let admitted = ref 0 and rejected = ref 0 and declined = ref 0 in
  let digest = ref [] and last = ref None in
  let stop = min upto (Array.length s.requests) in
  for k = 0 to stop - 1 do
    let req = s.requests.(k) in
    let id = k + 1 in
    let resp =
      match layers with
      | None -> Serve_broker.dispatch broker req
      | Some l ->
        let line = Jsonx.to_string (Serve_proto.request_to_json ~id req) in
        let decoded, _ =
          call l.prof ~into:l.decode "codec.decode" (fun () ->
              Serve_proto.request_of_json (Jsonx.of_string line))
        in
        if decoded <> Ok (id, req) then failwith "serve_mix: codec round trip";
        (match req with
        | Serve_proto.Admit { src; dst; qos } ->
          ignore
            (probe_routes l.prof l.probes (Drcomm.net svc) ~hop_bound ~src ~dst
               ~floor:qos.Qos.b_min)
        | _ -> ());
        let resp, d =
          call l.prof ~into:l.dispatch "broker.dispatch" (fun () ->
              Serve_broker.dispatch broker req)
        in
        (match req with Serve_proto.Admit _ -> l.admit_s <- l.admit_s +. d | _ -> ());
        ignore
          (call l.prof ~into:l.encode "codec.encode" (fun () ->
               Jsonx.to_string (Serve_proto.response_to_json ~id resp)));
        resp
    in
    (match resp with
    | Serve_proto.Admitted _ -> incr admitted
    | Serve_proto.Admit_rejected _ -> incr rejected
    | Serve_proto.Qos_changed { accepted = false; _ } -> incr declined
    | _ -> ());
    last := Some resp;
    if k + 1 = s.warm + sz.checkpoint then
      digest :=
        [
          dint "requests" (k + 1);
          dint "live" (Drcomm.count svc);
          dint "total_reserved" (Drcomm.total_reserved svc);
          dint "admitted" !admitted;
          dint "admit_rejected" !rejected;
          dint "chqos_rejected" !declined;
        ]
  done;
  Drcomm.check_invariants svc;
  (!digest, !last)

(* ---- server-side stages, from the daemon's trace file ---- *)

let stages = [| "queue"; "parse"; "service"; "redistribute"; "write"; "total" |]
let total_stage = Array.length stages - 1

(* Stage durations of the window's requests by rid (the client stamps
   rid = schedule index; warm-up requests carry none); [nan] where the
   daemon recorded nothing. *)
let read_stages path n =
  let by_rid = Array.init n (fun _ -> Array.make (Array.length stages) nan) in
  let set rid stage x =
    if rid >= 0 && rid < n then
      Array.iteri (fun k name -> if name = stage then by_rid.(rid).(k) <- x) stages
  in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      Jsonx.fold_lines ic ~init:() ~f:(fun () ~line:_ doc ->
          match Trace.of_json doc with
          | Ok (_, Trace.Req_stage { rid; stage; seconds }) -> set rid stage seconds
          | Ok (_, Trace.Req_end { rid; total_s; _ }) -> set rid "total" total_s
          | Ok _ -> ()
          | Error msg -> failwith ("serve_mix: trace line: " ^ msg)));
  by_rid

(* One record per window request: the client's view (due time, verb,
   latency) joined with the daemon's stage durations. *)
let request_records w by_rid =
  Jsonx.List
    (List.init (min (Array.length w.latency) keep_spans) (fun i ->
         Jsonx.Obj
           ([
              ("rid", Jsonx.Int i);
              ("verb", Jsonx.String verbs.(w.verb.(i)));
              ("due_us", Jsonx.Float (us w.due.(i)));
              ("latency_us", Jsonx.Float (us w.latency.(i)));
              ( "client_us",
                Jsonx.Float (us (w.finished.(i) -. w.started.(i))) );
            ]
           @ Array.to_list
               (Array.mapi
                  (fun k name -> (name ^ "_us", Jsonx.Float (us by_rid.(i).(k))))
                  stages))))

(* ---- the workload ---- *)

let window_of s =
  match s.window with Some w -> w | None -> failwith "serve_mix: no window"

let samples_of n f =
  let s = Samples.create () in
  for i = 0 to n - 1 do
    Option.iter (Samples.add s) (f i)
  done;
  s

let failures w =
  Array.fold_left (fun acc l -> if Float.is_finite l then acc else acc + 1) 0 w.latency

let p50 s = Samples.quantile s 0.5

let end_to_end sz sessions measured =
  [
    metric ~samples:sz.setups "setup_s" (median (List.map (fun s -> s.setup_s) sessions));
    metric "peak_rss_mb" measured.report.rss_mb;
  ]

(* The traced session's per-layer view: the client's latency by verb,
   split into the load generator's lag (due time to the request's
   start), the daemon's stages joined by rid, and the residual neither
   side sees (socket transit and wake-ups on both sides, client-side
   encoding). *)
let per_layer ~plain ~traced ~trace_file layers =
  let w = window_of traced in
  let n = Array.length w.latency in
  let by_rid = read_stages trace_file n in
  Sys.remove trace_file;
  let joined i =
    Float.is_finite w.latency.(i) && Float.is_finite by_rid.(i).(total_stage)
  in
  let call i = w.finished.(i) -. w.started.(i) in
  let residual =
    samples_of n (fun i ->
        if joined i then Some (call i -. by_rid.(i).(total_stage)) else None)
  in
  let lag = samples_of n (fun i -> if joined i then Some (w.latency.(i) -. call i) else None) in
  let client = samples_of n (fun i -> if joined i then Some w.latency.(i) else None) in
  let all_latency s = samples_of (Array.length s.latency) (fun i -> Some s.latency.(i)) in
  let t0 = now () in
  ignore (graph ());
  let topology_s = now () -. t0 in
  let rep = traced.report in
  let per_request x = x /. float_of_int (max 1 rep.requests) in
  let metrics =
    [
      metric "topology.generate_s" topology_s;
      metric ~samples:n "obs.trace_overhead_pct"
        (100. *. ((p50 (all_latency w) /. p50 (all_latency (window_of plain))) -. 1.));
      metric ~samples:(Samples.count client) "unattributed_share"
        (Samples.sum residual /. Samples.sum client);
      metric ~samples:n "loadgen.max_lag_ms" (w.max_lag *. 1e3);
      metric ~samples:(Samples.count lag) "loadgen.lag_p50_us" (us (p50 lag));
      metric ~samples:(Samples.count layers.decode) "serve.codec_decode_ns"
        (Samples.mean layers.decode *. 1e9);
      metric ~samples:(Samples.count layers.encode) "serve.codec_encode_ns"
        (Samples.mean layers.encode *. 1e9);
      metric ~samples:rep.requests "gc.minor_words_per_op" (per_request rep.minor_words);
      metric ~samples:rep.requests "gc.major_words_per_op" (per_request rep.major_words);
      metric "gc.major_collections" (float_of_int rep.major_collections);
      metric ~samples:(Samples.count residual) "serve.client_residual_p99_us"
        (us (Samples.quantile residual 0.99));
    ]
    @ (let pw = window_of plain in
       let n = Array.length pw.latency in
       op_metrics ~n ~busy_s:(pw.finished.(n - 1) -. pw.start) (all_latency pw))
    @ List.concat
        (List.mapi
           (fun k stage ->
             quantiles_us ~suffix:"_us" ("serve.req." ^ stage)
               (samples_of n (fun i ->
                    let x = by_rid.(i).(k) in
                    if Float.is_finite x then Some x else None)))
           (Array.to_list stages))
    @ List.concat
        (List.mapi
           (fun v name ->
             quantiles_us ~suffix:"_us" ("serve.verb." ^ name)
               (samples_of n (fun i ->
                    if w.verb.(i) = v then Some w.latency.(i) else None)))
           (Array.to_list verbs))
    @ quantiles_us "serve.broker_dispatch_us" layers.dispatch
    @ routing_metrics layers.probes ~admit_s:layers.admit_s
  in
  (metrics, request_records w by_rid)

let run env =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let sz = sizes env in
  let setup_only = sz.setups - if env.traced then 2 else 1 in
  let warmups = List.init setup_only (fun _ -> session env sz ~window_s:0. ()) in
  if not env.traced then begin
    let measured = session env sz ~window_s:env.seconds () in
    let digest, last = replay sz measured in
    if last <> measured.final then
      failwith "serve_mix: in-process replay disagrees with the daemon's stats";
    let w = window_of measured in
    {
      attempted = Array.length w.latency;
      failed = failures w;
      digest;
      metrics = end_to_end sz (warmups @ [ measured ]) measured;
      spans = Jsonx.Null;
    }
  end
  else begin
    (* Tracing overhead: the same stream, half the window each, against
       a plain daemon and then a tracing one. *)
    let half = env.seconds /. 2. in
    let plain = session env sz ~window_s:half () in
    let trace_file = Filename.concat env.out_dir "serve-trace.jsonl" in
    let traced = session env sz ~trace_file ~window_s:half () in
    let layers =
      {
        prof = profiler env;
        decode = Samples.create ();
        encode = Samples.create ();
        dispatch = Samples.create ();
        probes = probes ();
        admit_s = 0.;
      }
    in
    let plain_digest, _ = replay sz ~upto:(plain.warm + sz.checkpoint) plain in
    let digest, last = replay sz ~layers traced in
    if digest <> plain_digest then
      failwith "serve_mix: traced and plain sessions diverged";
    if last <> traced.final then
      failwith "serve_mix: in-process replay disagrees with the daemon's stats";
    let metrics, records = per_layer ~plain ~traced ~trace_file layers in
    let pw = window_of plain and tw = window_of traced in
    {
      attempted = Array.length pw.latency + Array.length tw.latency;
      failed = failures pw + failures tw;
      digest;
      metrics;
      spans = Jsonx.Obj [ ("requests", records); ("replay", spans_json layers.prof) ];
    }
  end
