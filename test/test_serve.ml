(* The QoS-broker daemon stack: codec round-trips, the fuzz-op bridge
   (checked against [Fuzz.replay]'s state trajectory), socket-free
   broker dispatch, and a live end-to-end socket session. *)

let qos_a = Qos.paper_spec ~increment:100
let qos_b = Qos.make ~utility:0.7 ~b_min:200 ~b_max:400 ~increment:50 ()

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)

let roundtrip_request req =
  let doc = Serve_proto.request_to_json ~id:7 req in
  (* through the printer too: the wire carries strings, not Jsonx. *)
  let doc = Jsonx.of_string (Jsonx.to_string doc) in
  match Serve_proto.request_of_json doc with
  | Error msg -> Alcotest.failf "request did not decode: %s" msg
  | Ok (id, req') ->
    Alcotest.(check int) "id" 7 id;
    Alcotest.(check bool) "request round-trips" true (req = req')

let all_requests : Serve_proto.request list =
  [
    Admit { src = 1; dst = 3; qos = qos_a };
    Teardown { channel = 42 };
    Change_qos { channel = 42; qos = qos_b };
    Fail { edge = 5 };
    Repair { edge = 5 };
    Set_auto true;
    Set_auto false;
    Redistribute;
    Stats;
    Snapshot;
    Metrics;
    Subscribe `Trace;
    Subscribe `Heartbeat;
    Ping;
    Shutdown;
  ]

let test_request_roundtrip () = List.iter roundtrip_request all_requests

let roundtrip_response resp =
  let doc = Serve_proto.response_to_json ~id:9 resp in
  let doc = Jsonx.of_string (Jsonx.to_string doc) in
  match Serve_proto.response_of_json doc with
  | Error msg -> Alcotest.failf "response did not decode: %s" msg
  | Ok (id, resp') ->
    Alcotest.(check int) "id" 9 id;
    Alcotest.(check bool) "response round-trips" true (resp = resp')

let all_responses : Serve_proto.response list =
  [
    Admitted { channel = 3; level = 2 };
    Admit_rejected { reason = "no_backup_route" };
    Torn_down { channel = 3 };
    Qos_changed { channel = 3; accepted = false };
    Edge_failed
      {
        edge = 4;
        fresh = true;
        recoveries =
          [
            { rw_channel = 1; rw_outcome = `Switched; rw_reprotected = true };
            { rw_channel = 2; rw_outcome = `Dropped; rw_reprotected = false };
            { rw_channel = 5; rw_outcome = `Restored; rw_reprotected = false };
            { rw_channel = 6; rw_outcome = `Backup_lost; rw_reprotected = true };
          ];
      };
    Edge_repaired { edge = 4; was_failed = true };
    Auto_set { on = false };
    Redistributed;
    Stats_reply
      {
        live = 10;
        total_reserved = 1500;
        average_kbps = 150.;
        dropped = 1;
        failed_edges = 2;
        requests = 99;
      };
    Snapshot_reply (Jsonx.Obj [ ("ev", Jsonx.String "snapshot") ]);
    Metrics_reply (Jsonx.Obj [ ("counters", Jsonx.Obj []) ]);
    Subscribed { stream = "trace" };
    Pong;
    Shutting_down;
    Error_reply { message = "unknown channel 3" };
  ]

let test_response_roundtrip () = List.iter roundtrip_response all_responses

let expect_request_error name line =
  match Serve_proto.request_of_json (Jsonx.of_string line) with
  | Ok _ -> Alcotest.failf "%s decoded but should not" name
  | Error _ -> ()

let test_request_rejects_malformed () =
  expect_request_error "missing id" {|{"req":"ping"}|};
  expect_request_error "missing verb" {|{"id":1}|};
  expect_request_error "unknown verb" {|{"id":1,"req":"frobnicate"}|};
  expect_request_error "admit without qos" {|{"id":1,"req":"admit","src":0,"dst":1}|};
  expect_request_error "unknown stream" {|{"id":1,"req":"subscribe","stream":"x"}|};
  (* QoS is validated at the protocol boundary. *)
  expect_request_error "b_min > b_max"
    {|{"id":1,"req":"admit","src":0,"dst":1,"qos":{"b_min":300,"b_max":100,"increment":50}}|};
  expect_request_error "too many levels"
    {|{"id":1,"req":"admit","src":0,"dst":1,"qos":{"b_min":1,"b_max":1000000,"increment":1}}|}

let test_qos_utility_defaults () =
  match
    Serve_proto.request_of_json
      (Jsonx.of_string
         {|{"id":1,"req":"admit","src":0,"dst":1,"qos":{"b_min":100,"b_max":300,"increment":100}}|})
  with
  | Ok (_, Serve_proto.Admit { qos; _ }) ->
    Alcotest.(check (float 0.)) "utility defaults to 1" 1.0 qos.Qos.utility
  | Ok _ -> Alcotest.fail "decoded to a non-admit request"
  | Error msg -> Alcotest.failf "did not decode: %s" msg

let test_is_push () =
  let push = Jsonx.of_string {|{"t":1.0,"ev":"admit","channel":3}|} in
  let reply = Jsonx.of_string {|{"id":3,"ok":true,"re":"pong"}|} in
  Alcotest.(check bool) "event line is a push" true (Serve_proto.is_push push);
  Alcotest.(check bool) "reply is not a push" false (Serve_proto.is_push reply)

(* ------------------------------------------------------------------ *)
(* Fuzz-op bridge                                                      *)

let test_op_bridge_roundtrip () =
  let ops =
    [
      Op.Admit { src = 2; dst = 5; qos = 1 };
      Op.Terminate 3;
      Op.Change_qos (3, 2);
      Op.Fail 4;
      Op.Repair 4;
      Op.Set_auto false;
      Op.Set_auto true;
      Op.Redistribute_all;
    ]
  in
  (* Reduction is lossy (the raw draws are folded modulo the state), so
     the invertible direction is request -> op -> request: printing a
     reduced request back into the op language and reducing it again on
     the same state must reach the same request (a fixpoint). *)
  let live = [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] in
  let reduce op =
    Serve_proto.request_of_op ~nodes:100 ~edges:50 ~live ~failed:[] op
  in
  List.iter
    (fun op ->
      match reduce op with
      | None -> Alcotest.failf "op reduced to None: %s" (Op.to_string op)
      | Some req -> (
        match Serve_proto.op_of_request ~nodes:100 req with
        | None -> Alcotest.failf "request did not print back: %s" (Op.to_string op)
        | Some op' ->
          Alcotest.(check bool)
            (Printf.sprintf "bridge fixpoint for %s" (Op.to_string op))
            true
            (reduce op' = Some req)))
    ops

let test_op_bridge_noops () =
  let none op ~nodes ~edges ~live ~failed =
    match Serve_proto.request_of_op ~nodes ~edges ~live ~failed op with
    | None -> ()
    | Some _ -> Alcotest.failf "expected a no-op: %s" (Op.to_string op)
  in
  none (Op.Terminate 3) ~nodes:10 ~edges:5 ~live:[] ~failed:[];
  none (Op.Change_qos (3, 1)) ~nodes:10 ~edges:5 ~live:[] ~failed:[];
  none (Op.Fail 3) ~nodes:10 ~edges:0 ~live:[] ~failed:[];
  none (Op.Admit { src = 0; dst = 0; qos = 0 }) ~nodes:1 ~edges:0 ~live:[] ~failed:[]

let test_op_bridge_modular_reduction () =
  (* Same reduction as Fuzz.replay: src mod n, dst skewed off src, nth
     of the sorted live list, nth of the failed list. *)
  (match
     Serve_proto.request_of_op ~nodes:10 ~edges:5 ~live:[] ~failed:[]
       (Op.Admit { src = 13; dst = 22; qos = 0 })
   with
  | Some (Serve_proto.Admit { src; dst; _ }) ->
    Alcotest.(check int) "src = 13 mod 10" 3 src;
    Alcotest.(check int) "dst = (3 + 1 + (22 mod 9)) mod 10" 8 dst
  | _ -> Alcotest.fail "admit did not reduce");
  (match
     Serve_proto.request_of_op ~nodes:10 ~edges:5 ~live:[ 10; 20; 30 ] ~failed:[]
       (Op.Terminate 7)
   with
  | Some (Serve_proto.Teardown { channel }) ->
    Alcotest.(check int) "live.(7 mod 3)" 20 channel
  | _ -> Alcotest.fail "terminate did not reduce");
  (match
     Serve_proto.request_of_op ~nodes:10 ~edges:8 ~live:[] ~failed:[ 2; 6 ]
       (Op.Repair 3)
   with
  | Some (Serve_proto.Repair { edge }) ->
    Alcotest.(check int) "failed.(3 mod 2)" 6 edge
  | _ -> Alcotest.fail "repair did not reduce");
  match
    Serve_proto.request_of_op ~nodes:10 ~edges:8 ~live:[] ~failed:[] (Op.Repair 11)
  with
  | Some (Serve_proto.Repair { edge }) ->
    Alcotest.(check int) "healthy no-op repair: 11 mod 8" 3 edge
  | _ -> Alcotest.fail "repair on healthy net did not reduce"

(* Replaying a generated fuzz script through the wire bridge and broker
   must walk the same state trajectory as [Fuzz.replay] itself.  The
   restoration case re-admits failure victims under fresh ids, which the
   broker must resolve through the service. *)
let test_op_bridge_matches_fuzz_replay () =
  let bridge cfg =
    let ops = Fuzz.gen_ops cfg in
    let reference = Fuzz.replay cfg ops in
    (match reference.Fuzz.violation with
    | Some v -> Alcotest.failf "reference replay violated: %s" v.Fuzz.message
    | None -> ());
    let g = Fuzz.topology cfg in
    let net =
      Net_state.create ~multiplexing:cfg.Fuzz.multiplexing
        ~capacity:cfg.Fuzz.capacity g
    in
    let config =
      Drcomm.Config.make ~policy:cfg.Fuzz.policy ~require_backup:false
        ~backups_per_connection:cfg.Fuzz.backups_per_connection
        ~restore_on_failure:cfg.Fuzz.restore_on_failure ()
    in
    let obs = Obs.create ~metrics:(Metrics.create ()) () in
    let broker = Serve_broker.create ~config ~obs net in
    let nodes = Graph.node_count g and edges = Graph.edge_count g in
    Array.iter
      (fun op ->
        match
          Serve_proto.request_of_op ~nodes ~edges
            ~live:(Serve_broker.live_channels broker)
            ~failed:(Serve_broker.failed_edges broker)
            op
        with
        | None -> ()
        | Some req -> (
          match Serve_broker.dispatch broker req with
          | Serve_proto.Error_reply { message } ->
            Alcotest.failf "dispatch errored on %s: %s" (Op.to_string op) message
          | _ -> ()))
      ops;
    let svc = Serve_broker.service broker in
    Alcotest.(check int)
      "live connections match" reference.Fuzz.stats.Fuzz.live (Drcomm.count svc);
    Alcotest.(check int)
      "drops match" reference.Fuzz.stats.Fuzz.drops
      (Drcomm.dropped_connections svc);
    let restores = reference.Fuzz.stats.Fuzz.restores in
    Alcotest.(check int)
      "restores match" restores
      (Metrics.count (Metrics.counter (Obs.metrics obs) "drcomm.restores"));
    Drcomm.check_invariants svc;
    restores
  in
  ignore (bridge (Fuzz.config ~family:Fuzz.Waxman ~seed:42 ~ops:400 ()));
  let restores =
    bridge
      (Fuzz.config ~family:Fuzz.Waxman ~seed:42 ~ops:400 ~restore:true ~backups:0 ())
  in
  Alcotest.(check bool) "some victim was restored" true (restores > 0)

(* ------------------------------------------------------------------ *)
(* Broker dispatch                                                     *)

(* A 4-cycle: every pair has a 2-edge disjoint backup path. *)
let ring_net () =
  let g = Graph.create 4 in
  ignore (Graph.add_edge g 0 1);
  ignore (Graph.add_edge g 1 2);
  ignore (Graph.add_edge g 2 3);
  ignore (Graph.add_edge g 3 0);
  Net_state.create ~capacity:1000 g

let admit_ok broker ~src ~dst =
  match
    Serve_broker.dispatch broker (Serve_proto.Admit { src; dst; qos = qos_a })
  with
  | Serve_proto.Admitted { channel; _ } -> channel
  | resp ->
    Alcotest.failf "admit did not succeed: %s"
      (Jsonx.to_string (Serve_proto.response_to_json ~id:0 resp))

let test_broker_lifecycle () =
  let broker = Serve_broker.create ~obs:(Obs.create ()) (ring_net ()) in
  let ch = admit_ok broker ~src:0 ~dst:2 in
  (match Serve_broker.dispatch broker Serve_proto.Stats with
  | Serve_proto.Stats_reply { live; total_reserved; requests; _ } ->
    Alcotest.(check int) "one live connection" 1 live;
    Alcotest.(check bool) "bandwidth reserved" true (total_reserved > 0);
    Alcotest.(check int) "stats is the 2nd request" 2 requests
  | _ -> Alcotest.fail "stats reply expected");
  (match
     Serve_broker.dispatch broker
       (Serve_proto.Change_qos { channel = ch; qos = qos_b })
   with
  | Serve_proto.Qos_changed { channel; accepted } ->
    Alcotest.(check int) "same channel" ch channel;
    Alcotest.(check bool) "chqos accepted" true accepted
  | _ -> Alcotest.fail "qos_changed reply expected");
  (match Serve_broker.dispatch broker (Serve_proto.Teardown { channel = ch }) with
  | Serve_proto.Torn_down { channel } -> Alcotest.(check int) "torn down" ch channel
  | _ -> Alcotest.fail "torn_down reply expected");
  match Serve_broker.dispatch broker (Serve_proto.Teardown { channel = ch }) with
  | Serve_proto.Error_reply _ -> ()
  | _ -> Alcotest.fail "tearing down a dead channel must be an error reply"

(* Serve_loadgen's worker against an in-process broker: the churn holds
   the owned population at or under the live target, nothing comes back
   unexpected, the worker's owned set is the broker's live set when no
   edge fails, and finish repairs every edge the worker failed. *)
let test_loadgen_worker () =
  let nodes = 30 and target = 12 in
  let sorted l = List.sort compare l in
  List.iter
    (fun fail_edges ->
      let g =
        Scenario.build_graph (Prng.create 3) (Scenario.Waxman (Waxman.paper_spec ~nodes))
      in
      let broker = Serve_broker.create ~obs:(Obs.create ()) (Net_state.create ~capacity:10_000 g) in
      let w =
        Serve_loadgen.worker ~call:(fun _ req -> Serve_broker.dispatch broker req) ~seed:5 0
      in
      (* Step past 600 operations until an edge is left failed, so
         finish has something to repair. *)
      let steps = ref 0 and peak = ref 0 in
      while !steps < 600 || (fail_edges > 0 && Serve_loadgen.failed w = [] && !steps < 20_000) do
        incr steps;
        ignore (Serve_loadgen.step ~nodes ~target ~fail_edges w);
        peak := max !peak (List.length (Serve_loadgen.owned w));
        Alcotest.(check bool) "owned count within the live target" true (!peak <= target);
        if fail_edges = 0 then
          Alcotest.(check (list int)) "broker live set is the owned set"
            (Serve_broker.live_channels broker) (sorted (Serve_loadgen.owned w))
      done;
      Alcotest.(check int) "the churn reaches the target" target !peak;
      Alcotest.(check int) "no unexpected replies" 0 (Serve_loadgen.errors w);
      Alcotest.(check (list int)) "the broker sees the worker's failures"
        (sorted (Serve_loadgen.failed w)) (Serve_broker.failed_edges broker);
      if fail_edges > 0 then
        Alcotest.(check bool) "an edge is down before finish" true
          (Serve_broker.failed_edges broker <> []);
      Serve_loadgen.finish w;
      Alcotest.(check (list int)) "every failed edge repaired at finish" []
        (Serve_broker.failed_edges broker))
    [ 0; 8 ]

let test_broker_rejections_are_replies () =
  let broker = Serve_broker.create ~obs:(Obs.create ()) (ring_net ()) in
  (* Out-of-range nodes, self-loops, unknown channels, out-of-range
     edges: all wire-expressible errors, never exceptions. *)
  let is_error req =
    match Serve_broker.dispatch broker req with
    | Serve_proto.Error_reply _ -> ()
    | _ ->
      Alcotest.failf "expected an error reply for %s"
        (Jsonx.to_string (Serve_proto.request_to_json ~id:0 req))
  in
  is_error (Serve_proto.Admit { src = 0; dst = 9; qos = qos_a });
  is_error (Serve_proto.Admit { src = -1; dst = 2; qos = qos_a });
  is_error (Serve_proto.Admit { src = 2; dst = 2; qos = qos_a });
  is_error (Serve_proto.Teardown { channel = 999 });
  is_error (Serve_proto.Change_qos { channel = 999; qos = qos_a });
  is_error (Serve_proto.Fail { edge = 77 });
  is_error (Serve_proto.Repair { edge = -1 });
  is_error (Serve_proto.Subscribe `Trace);
  is_error Serve_proto.Shutdown

let test_broker_capacity_rejection_is_ok_reply () =
  let g = Graph.create 2 in
  ignore (Graph.add_edge g 0 1);
  (* Single edge, no disjoint backup: require the backup and every
     admit is rejected — as a well-formed [rejected] reply. *)
  let net = Net_state.create ~capacity:1000 g in
  let config = Drcomm.Config.make ~require_backup:true () in
  let broker = Serve_broker.create ~config ~obs:(Obs.create ()) net in
  match
    Serve_broker.dispatch broker (Serve_proto.Admit { src = 0; dst = 1; qos = qos_a })
  with
  | Serve_proto.Admit_rejected { reason } ->
    Alcotest.(check string) "backup is the bottleneck" "no_backup_route" reason
  | _ -> Alcotest.fail "expected an admission rejection"

let test_broker_failure_recovery () =
  let broker = Serve_broker.create ~obs:(Obs.create ()) (ring_net ()) in
  let ch = admit_ok broker ~src:0 ~dst:1 in
  (* Fail the only edge of the primary path: the backup (0-3-2-1)
     activates. *)
  (match Serve_broker.dispatch broker (Serve_proto.Fail { edge = 0 }) with
  | Serve_proto.Edge_failed { edge; fresh; recoveries } ->
    Alcotest.(check int) "edge echoes" 0 edge;
    Alcotest.(check bool) "fresh failure" true fresh;
    (match recoveries with
    | [ r ] ->
      Alcotest.(check int) "victim is the admitted channel" ch r.Serve_proto.rw_channel;
      Alcotest.(check bool)
        "switched to backup" true
        (r.Serve_proto.rw_outcome = `Switched)
    | l -> Alcotest.failf "expected one recovery, got %d" (List.length l))
  | _ -> Alcotest.fail "edge_failed reply expected");
  (* Idempotent re-failure is not fresh and recovers nothing. *)
  (match Serve_broker.dispatch broker (Serve_proto.Fail { edge = 0 }) with
  | Serve_proto.Edge_failed { fresh; recoveries; _ } ->
    Alcotest.(check bool) "not fresh" false fresh;
    Alcotest.(check int) "no recoveries" 0 (List.length recoveries)
  | _ -> Alcotest.fail "edge_failed reply expected");
  (match Serve_broker.dispatch broker (Serve_proto.Repair { edge = 0 }) with
  | Serve_proto.Edge_repaired { was_failed; _ } ->
    Alcotest.(check bool) "was failed" true was_failed
  | _ -> Alcotest.fail "edge_repaired reply expected");
  (* The switched channel is still addressable over the wire. *)
  match Serve_broker.dispatch broker (Serve_proto.Teardown { channel = ch }) with
  | Serve_proto.Torn_down _ -> ()
  | _ -> Alcotest.fail "survivor must still tear down"

let test_broker_snapshot_and_metrics () =
  let obs = Obs.create ~metrics:(Metrics.create ()) () in
  let broker = Serve_broker.create ~obs (ring_net ()) in
  ignore (admit_ok broker ~src:0 ~dst:2);
  (match Serve_broker.dispatch broker Serve_proto.Snapshot with
  | Serve_proto.Snapshot_reply doc ->
    (match Option.bind (Jsonx.member "ev" doc) Jsonx.to_str with
    | Some ev -> Alcotest.(check string) "snapshot event" "snapshot" ev
    | None -> Alcotest.fail "snapshot reply has no \"ev\"");
    (match Option.bind (Jsonx.member "live" doc) Jsonx.to_int with
    | Some live -> Alcotest.(check int) "snapshot sees the connection" 1 live
    | None -> Alcotest.fail "snapshot reply has no \"live\"")
  | _ -> Alcotest.fail "snapshot reply expected");
  match Serve_broker.dispatch broker Serve_proto.Metrics with
  | Serve_proto.Metrics_reply doc ->
    (* The broker's own request counter is served back. *)
    let counters = Jsonx.member "counters" doc in
    Alcotest.(check bool) "metrics doc has counters" true (counters <> None)
  | _ -> Alcotest.fail "metrics reply expected"

(* The snapshot reply's hottest links are the service's exact churn
   counts, not an empty list. *)
let test_broker_snapshot_hot_links () =
  let broker = Serve_broker.create (ring_net ()) in
  List.iter
    (fun (src, dst) -> ignore (admit_ok broker ~src ~dst))
    [ (0, 1); (0, 2); (1, 3); (2, 3) ];
  match Serve_broker.dispatch broker Serve_proto.Snapshot with
  | Serve_proto.Snapshot_reply doc -> (
    match Trace.of_json doc with
    | Ok (_, Trace.Snapshot { hot; _ }) ->
      Alcotest.(check bool) "hot is non-empty" true (hot <> []);
      Alcotest.(check (list (pair int int)))
        "hot is the service's churn count"
        (Drcomm.hot_links (Serve_broker.service broker) ~k:5)
        hot
    | _ -> Alcotest.fail "snapshot reply is not a snapshot event")
  | _ -> Alcotest.fail "snapshot reply expected"

(* ------------------------------------------------------------------ *)
(* Live socket session                                                 *)

let with_server ?(wall_every = 0.05) ?slo ?max_pending_bytes ?trace_file ?slow_dir
    ?address f =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "drqos-serve-test-%d.sock" (Unix.getpid ()))
  in
  let address = Option.value address ~default:(`Unix path) in
  let served =
    Domain.spawn (fun () ->
        Serve_server.run ~wall_every ?slo ?max_pending_bytes ?trace_file ?slow_dir
          address (ring_net ()))
  in
  (* [join] waits for the server to finish shutting down — assertions
     about post-shutdown state (the socket file, say) must run after it,
     not merely after the [Shutting_down] reply arrives. *)
  let joined = ref false in
  let join () =
    if not !joined then begin
      joined := true;
      ignore (Domain.join served)
    end
  in
  match f path join with
  | v ->
    join ();
    v
  | exception e ->
    (* A failed check skipped the test's own shutdown: send one, or
       [join] would wait for the daemon forever.  The check may have
       failed before the daemon bound its socket, so dial with retries.
       A daemon no dial reaches (one bound elsewhere) is not joined. *)
    (match
       Serve_client.request
         (Serve_client.connect ~retries:50 address)
         Serve_proto.Shutdown
     with
    | _ -> join ()
    | exception (Unix.Unix_error _ | Failure _ | Sys_error _) -> ());
    raise e

(* A bad output path must fail before the listener is bound: neither the
   socket file nor its fd may outlive the failed [run]. *)
let bad_output_leaves_no_socket ?trace_file ?slow_dir ~raised () =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "drqos-serve-badout-%d.sock" (Unix.getpid ()))
  in
  (match
     Serve_server.run ~wall_every:0.05 ?trace_file ?slow_dir (`Unix path)
       (ring_net ())
   with
  | _ -> Alcotest.fail "run started despite a bad output path"
  | exception e ->
    Alcotest.(check bool) ("raised " ^ Printexc.to_string e) true (raised e));
  let left = Sys.file_exists path in
  if left then Sys.remove path;
  Alcotest.(check bool) "no socket file left" false left

let missing_dir () =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "drqos-serve-missing-%d" (Unix.getpid ()))

let test_bad_trace_file () =
  bad_output_leaves_no_socket
    ~trace_file:(Filename.concat (missing_dir ()) "trace.jsonl")
    ~raised:(function Sys_error _ -> true | _ -> false)
    ()

let test_bad_slow_dir () =
  bad_output_leaves_no_socket
    ~slow_dir:(Filename.concat (missing_dir ()) "slow")
    ~raised:(function
      | Unix.Unix_error (Unix.ENOENT, _, _) -> true | _ -> false)
    ()

let test_socket_session () =
  with_server (fun path join ->
      let c = Serve_client.connect ~retries:50 (`Unix path) in
      (match Serve_client.request c Serve_proto.Ping with
      | Serve_proto.Pong -> ()
      | _ -> Alcotest.fail "ping did not pong");
      let ch =
        match
          Serve_client.request c (Serve_proto.Admit { src = 0; dst = 2; qos = qos_a })
        with
        | Serve_proto.Admitted { channel; _ } -> channel
        | _ -> Alcotest.fail "admit over the wire failed"
      in
      (* A second client sees the same broker state. *)
      let c2 = Serve_client.connect (`Unix path) in
      (match Serve_client.request c2 Serve_proto.Stats with
      | Serve_proto.Stats_reply { live; _ } ->
        Alcotest.(check int) "second client sees the connection" 1 live
      | _ -> Alcotest.fail "stats over the wire failed");
      (* c2 subscribes to the trace stream; c's next mutation is pushed. *)
      (match Serve_client.request c2 (Serve_proto.Subscribe `Trace) with
      | Serve_proto.Subscribed { stream } ->
        Alcotest.(check string) "subscribed to trace" "trace" stream
      | _ -> Alcotest.fail "subscribe failed");
      (match Serve_client.request c (Serve_proto.Teardown { channel = ch }) with
      | Serve_proto.Torn_down _ -> ()
      | _ -> Alcotest.fail "teardown over the wire failed");
      (* The push was broadcast before c's teardown reply was written;
         a ping on c2 forces its queue to drain. *)
      (match Serve_client.request c2 Serve_proto.Ping with
      | Serve_proto.Pong -> ()
      | _ -> Alcotest.fail "ping did not pong");
      let pushes = Serve_client.pushes c2 in
      Alcotest.(check bool) "a trace event was pushed" true (pushes <> []);
      Alcotest.(check bool)
        "pushes satisfy the framing rule" true
        (List.for_all Serve_proto.is_push pushes);
      let kinds =
        List.filter_map (fun d -> Option.bind (Jsonx.member "ev" d) Jsonx.to_str) pushes
      in
      Alcotest.(check bool)
        "the terminate event reached the subscriber" true
        (List.mem "terminate" kinds);
      Serve_client.close c;
      (match Serve_client.request c2 Serve_proto.Shutdown with
      | Serve_proto.Shutting_down -> ()
      | _ -> Alcotest.fail "shutdown not acknowledged");
      Serve_client.close c2;
      join ();
      Alcotest.(check bool) "socket removed on shutdown" false (Sys.file_exists path))

(* [serve --port] listens on a [`Tcp] address.  A port the OS just
   handed out (bind to port 0, read it back) is free for the daemon. *)
let test_tcp_session () =
  let port =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, port) -> port
        | Unix.ADDR_UNIX _ -> Alcotest.fail "an inet socket has no port")
  in
  let address = `Tcp ("127.0.0.1", port) in
  with_server ~address (fun _path join ->
      let c = Serve_client.connect ~retries:50 address in
      let channel =
        match
          Serve_client.request c (Serve_proto.Admit { src = 0; dst = 2; qos = qos_a })
        with
        | Serve_proto.Admitted { channel; _ } -> channel
        | _ -> Alcotest.fail "admit over TCP failed"
      in
      (match Serve_client.request c (Serve_proto.Teardown { channel }) with
      | Serve_proto.Torn_down _ -> ()
      | _ -> Alcotest.fail "teardown over TCP failed");
      (match Serve_client.request c Serve_proto.Stats with
      | Serve_proto.Stats_reply { live; requests; _ } ->
        Alcotest.(check int) "nothing live after teardown" 0 live;
        Alcotest.(check int) "admit, teardown and stats dispatched" 3 requests
      | _ -> Alcotest.fail "stats over TCP failed");
      (match Serve_client.request c Serve_proto.Shutdown with
      | Serve_proto.Shutting_down -> ()
      | _ -> Alcotest.fail "shutdown over TCP not acknowledged");
      Serve_client.close c;
      join ())

let test_socket_heartbeat_push () =
  with_server (fun path _join ->
      let c = Serve_client.connect ~retries:50 (`Unix path) in
      (match Serve_client.request c (Serve_proto.Subscribe `Heartbeat) with
      | Serve_proto.Subscribed { stream } ->
        Alcotest.(check string) "subscribed" "heartbeat" stream
      | _ -> Alcotest.fail "subscribe failed");
      (* Outlive a couple of 0.05 s cadences, then drain. *)
      Unix.sleepf 0.2;
      (match Serve_client.request c Serve_proto.Ping with
      | Serve_proto.Pong -> ()
      | _ -> Alcotest.fail "ping did not pong");
      let hbs =
        List.filter_map
          (fun d -> Option.bind (Jsonx.member "ev" d) Jsonx.to_str)
          (Serve_client.pushes c)
      in
      Alcotest.(check bool) "a heartbeat arrived" true (List.mem "heartbeat" hbs);
      (match Serve_client.request c Serve_proto.Shutdown with
      | Serve_proto.Shutting_down -> ()
      | _ -> Alcotest.fail "shutdown not acknowledged");
      Serve_client.close c)

let test_socket_garbage_line () =
  with_server (fun path _join ->
      let c = Serve_client.connect ~retries:50 (`Unix path) in
      (* Raw socket abuse: each undecodable line (not JSON; JSON nested
         10^4 deep) must produce an id-0 error reply, not kill the
         connection. *)
      let garbage = [ "this is not json"; String.make 10_000 '[' ^ String.make 10_000 ']' ] in
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      let oc = Unix.out_channel_of_descr fd in
      let ic = Unix.in_channel_of_descr fd in
      List.iter (fun line -> output_string oc (line ^ "\n")) garbage;
      output_string oc "{\"id\":5,\"req\":\"ping\"}\n";
      flush oc;
      List.iter
        (fun _ ->
          match Serve_proto.response_of_json (Jsonx.of_string (input_line ic)) with
          | Ok (0, Serve_proto.Error_reply _) -> ()
          | _ -> Alcotest.fail "garbage line must yield an id-0 error reply")
        garbage;
      let second = Jsonx.of_string (input_line ic) in
      (match Serve_proto.response_of_json second with
      | Ok (5, Serve_proto.Pong) -> ()
      | _ -> Alcotest.fail "the connection must survive the garbage");
      Unix.close fd;
      (match Serve_client.request c Serve_proto.Shutdown with
      | Serve_proto.Shutting_down -> ()
      | _ -> Alcotest.fail "shutdown not acknowledged");
      Serve_client.close c)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* A counter of the daemon's registry, read through the [metrics]
   request. *)
let counter c name =
  match Serve_client.request c Serve_proto.Metrics with
  | Serve_proto.Metrics_reply doc ->
    Option.bind (Option.bind (Jsonx.member "counters" doc) (Jsonx.member name)) Jsonx.to_int
  | _ -> Alcotest.fail "metrics request failed"

(* Regression for unbounded input buffering: a client streaming bytes
   with no newline used to grow the daemon's memory without bound, at
   quadratic copying cost.  Past the 1 MiB line cap it gets one id-0
   error reply naming the cap and then the end of its stream, while
   other clients are unaffected.  Socket timeouts make a daemon that
   never answers fail the test instead of hanging it. *)
let test_socket_line_cap () =
  with_server (fun path _join ->
      let c = Serve_client.connect ~retries:50 (`Unix path) in
      Fun.protect
        ~finally:(fun () ->
          ignore (Serve_client.request c Serve_proto.Shutdown);
          Serve_client.close c)
      @@ fun () ->
      let cap = 1 lsl 20 in
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      Unix.connect fd (Unix.ADDR_UNIX path);
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.;
      Unix.setsockopt_float fd Unix.SO_SNDTIMEO 5.;
      let flood = Bytes.make (cap + 65536) 'x' in
      ignore (Unix.write fd flood 0 (Bytes.length flood));
      let got = Buffer.create 256 in
      let chunk = Bytes.create 4096 in
      (* Bytes the daemon never read make closing reset the stream
         rather than end it; both are the end of the connection. *)
      let rec read_to_end () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> `Closed
        | n ->
          Buffer.add_subbytes got chunk 0 n;
          read_to_end ()
        | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> `Closed
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          `Timed_out
      in
      let ending = read_to_end () in
      (match String.split_on_char '\n' (Buffer.contents got) with
      | [ line; "" ] -> (
        match Serve_proto.response_of_json (Jsonx.of_string line) with
        | Ok (0, Serve_proto.Error_reply { message }) ->
          Alcotest.(check bool)
            ("the reply names the cap: " ^ message)
            true
            (contains ~sub:(string_of_int cap) message)
        | _ -> Alcotest.failf "expected an id-0 error reply, got %s" line)
      | _ ->
        Alcotest.failf "expected exactly one reply line, got %S"
          (Buffer.contents got));
      Alcotest.(check bool) "the connection ends after the reply" true
        (ending = `Closed);
      (match Serve_client.request c Serve_proto.Ping with
      | Serve_proto.Pong -> ()
      | _ -> Alcotest.fail "a second client's ping must still pong");
      Alcotest.(check (option int)) "counted as undecodable" (Some 1)
        (counter c "serve.undecodable"))

(* Regression for the event-loop blocking fix (lint R8): replies and
   broadcasts are queued per connection and written by the select loop,
   so a subscriber that stops reading stalls only itself.  Once its
   backlog passes max_pending_bytes it is reaped, while a responsive
   client on the same daemon keeps getting replies throughout. *)
let test_socket_slow_subscriber_reaped () =
  with_server ~wall_every:10. ~max_pending_bytes:2048 @@ fun path _join ->
  (* The stalled subscriber: asks for the trace stream, then never reads
     its socket again. *)
  let s = Serve_client.connect ~retries:50 (`Unix path) in
  (match Serve_client.request s (Serve_proto.Subscribe `Trace) with
  | Serve_proto.Subscribed _ -> ()
  | _ -> Alcotest.fail "subscribe failed");
  let reaped_count c = Option.value ~default:0 (counter c "serve.reaped") in
  (* A responsive client hammers mutations; each one is pushed to the
     subscriber, whose backlog (kernel buffer, then output queue) can
     only grow until the cap cuts it loose. *)
  let c = Serve_client.connect (`Unix path) in
  let reaped = ref false in
  let i = ref 0 in
  while (not !reaped) && !i < 20_000 do
    incr i;
    (match
       Serve_client.request c (Serve_proto.Admit { src = 0; dst = 2; qos = qos_a })
     with
    | Serve_proto.Admitted { channel; _ } -> (
      match Serve_client.request c (Serve_proto.Teardown { channel }) with
      | Serve_proto.Torn_down _ -> ()
      | _ -> Alcotest.fail "teardown failed mid-hammer")
    | _ -> Alcotest.fail "admit failed mid-hammer");
    if !i mod 50 = 0 then reaped := reaped_count c > 0
  done;
  Alcotest.(check bool) "stalled subscriber reaped at the backlog cap" true
    !reaped;
  (* The responsive client never noticed. *)
  (match Serve_client.request c Serve_proto.Ping with
  | Serve_proto.Pong -> ()
  | _ -> Alcotest.fail "responsive client lost its connection");
  (match Serve_client.request c Serve_proto.Shutdown with
  | Serve_proto.Shutting_down -> ()
  | _ -> Alcotest.fail "shutdown not acknowledged");
  Serve_client.close c;
  Serve_client.close s

(* The daemon serializes a trace or heartbeat line only for a reader
   (the trace file or a subscribed connection) and then once, however
   many readers get it; [serve.trace_lines] counts the lines built.
   Requests [mark1] and [mark2] carry trace contexts, so every reader's
   share of the stream between them can be cut out by rid. *)
let trace_lines c =
  match counter c "serve.trace_lines" with
  | Some n -> n
  | None -> Alcotest.fail "no serve.trace_lines counter"

let mark1 = 1_000
let mark2 = 2_000

(* [rounds] admits between the two marked pings, each torn down again
   at once, or only every second one with [~keep_half:true]. *)
let marked_churn ?(keep_half = false) c ~rounds =
  let ping rid =
    match
      Serve_client.request ~trace:{ Reqtrace.rid; t_sched = 0. } c Serve_proto.Ping
    with
    | Serve_proto.Pong -> ()
    | _ -> Alcotest.fail "ping did not pong"
  in
  ping mark1;
  for i = 1 to rounds do
    match
      Serve_client.request c
        (Serve_proto.Admit { src = i mod 4; dst = (i + 1) mod 4; qos = qos_a })
    with
    | Serve_proto.Admitted _ when keep_half && i mod 2 = 1 -> ()
    | Serve_proto.Admitted { channel; _ } -> (
      match Serve_client.request c (Serve_proto.Teardown { channel }) with
      | Serve_proto.Torn_down _ -> ()
      | _ -> Alcotest.fail "teardown failed")
    | _ -> Alcotest.fail "admit failed"
  done;
  ping mark2

(* The lines from [mark1]'s first trace line through [mark2]'s last. *)
let marked docs =
  let rec from rid = function
    | d :: rest when Option.bind (Jsonx.member "rid" d) Jsonx.to_int <> Some rid ->
      from rid rest
    | l -> l
  in
  List.map Jsonx.to_string (List.rev (from mark2 (List.rev (from mark1 docs))))

let subscribe_trace c =
  match Serve_client.request c (Serve_proto.Subscribe `Trace) with
  | Serve_proto.Subscribed _ -> ()
  | _ -> Alcotest.fail "subscribe failed"

let test_socket_trace_lines_for_readers () =
  with_server (fun path _join ->
      let c = Serve_client.connect ~retries:50 (`Unix path) in
      (* No subscriber, no file: nothing is serialized, heartbeat ticks
         included. *)
      marked_churn ~keep_half:true c ~rounds:20;
      Unix.sleepf 0.15;
      Alcotest.(check int) "no reader, no line" 0 (trace_lines c);
      (* One trace subscriber: one line per push it drains. *)
      let s = Serve_client.connect (`Unix path) in
      subscribe_trace s;
      let before = trace_lines s in
      ignore (Serve_client.pushes s);
      marked_churn c ~rounds:20;
      let after = trace_lines s in
      let pushes = Serve_client.pushes s in
      Alcotest.(check int) "one line per push" (List.length pushes) (after - before);
      Alcotest.(check bool) "the churn was pushed" true
        (List.length (marked pushes) > 20);
      (* Two trace subscribers: the same lines, each built once. *)
      let s2 = Serve_client.connect (`Unix path) in
      subscribe_trace s2;
      marked_churn c ~rounds:10;
      let both = trace_lines s in
      let pushes = Serve_client.pushes s in
      Alcotest.(check int) "one line per event, not per reader"
        (List.length pushes) (both - after);
      (match Serve_client.request s2 Serve_proto.Ping with
      | Serve_proto.Pong -> ()
      | _ -> Alcotest.fail "ping did not pong");
      let pushes2 = Serve_client.pushes s2 in
      Alcotest.(check bool) "the churn was pushed" true
        (List.length (marked pushes) > 10);
      Alcotest.(check (list string)) "both subscribers get the same lines"
        (marked pushes) (marked pushes2);
      (match Serve_client.request c Serve_proto.Shutdown with
      | Serve_proto.Shutting_down -> ()
      | _ -> Alcotest.fail "shutdown not acknowledged");
      List.iter Serve_client.close [ c; s; s2 ])

(* With [~trace_file], the file and a trace subscriber get the same
   lines for the same requests. *)
let test_socket_trace_file_matches_pushes () =
  let trace_file =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "drqos-trace-lines-%d.jsonl" (Unix.getpid ()))
  in
  with_server ~trace_file (fun path join ->
      let s = Serve_client.connect ~retries:50 (`Unix path) in
      subscribe_trace s;
      let c = Serve_client.connect (`Unix path) in
      marked_churn c ~rounds:20;
      (match Serve_client.request s Serve_proto.Ping with
      | Serve_proto.Pong -> ()
      | _ -> Alcotest.fail "ping did not pong");
      let pushes = marked (Serve_client.pushes s) in
      (match Serve_client.request c Serve_proto.Shutdown with
      | Serve_proto.Shutting_down -> ()
      | _ -> Alcotest.fail "shutdown not acknowledged");
      List.iter Serve_client.close [ c; s ];
      join ();
      let file =
        In_channel.with_open_text trace_file In_channel.input_lines
        |> List.map Jsonx.of_string |> marked
      in
      Sys.remove trace_file;
      Alcotest.(check bool) "the churn reached the file" true (List.length file > 20);
      Alcotest.(check (list string)) "the file has the subscriber's lines" pushes file)

(* ------------------------------------------------------------------ *)
(* Request tracing                                                     *)

let test_trace_field_roundtrip () =
  let ctx = { Reqtrace.rid = 4242; t_sched = 1.5 } in
  List.iter
    (fun req ->
      let doc =
        Jsonx.of_string
          (Jsonx.to_string (Serve_proto.request_to_json ~trace:ctx ~id:7 req))
      in
      (* The stamped line still decodes to the same request... *)
      (match Serve_proto.request_of_json doc with
      | Ok (7, req') ->
        Alcotest.(check bool) "request unchanged by trace field" true (req = req')
      | Ok _ -> Alcotest.fail "id changed"
      | Error msg -> Alcotest.failf "stamped request did not decode: %s" msg);
      (* ...and the context rides along. *)
      match Serve_proto.trace_ctx_of_json doc with
      | Some c ->
        Alcotest.(check int) "rid" 4242 c.Reqtrace.rid;
        Alcotest.(check (float 0.)) "t_sched" 1.5 c.Reqtrace.t_sched
      | None -> Alcotest.fail "trace context lost on the wire")
    all_requests;
  (* Unstamped lines and malformed contexts read as None — tracing is
     best-effort metadata, never a decode error. *)
  let none line =
    Alcotest.(check bool) line true
      (Serve_proto.trace_ctx_of_json (Jsonx.of_string line) = None)
  in
  none {|{"id":1,"req":"ping"}|};
  none {|{"id":1,"req":"ping","trace":{"rid":3}}|};
  none {|{"id":1,"req":"ping","trace":{"t_sched":0.5}}|};
  none {|{"id":1,"req":"ping","trace":{"rid":-1,"t_sched":0.5}}|};
  none {|{"id":1,"req":"ping","trace":7}|}

(* Decoding is total at the byte level: any line either fails to parse
   with [Parse_error] or yields a document that the request and trace
   decoders take without raising.  Inputs are arbitrary byte strings and
   valid request lines with 1-4 bytes replaced. *)
let qcheck_decode_total =
  let open QCheck.Gen in
  let mutated =
    let* req = oneofl all_requests in
    let* traced = bool in
    let trace =
      if traced then Some { Reqtrace.rid = 3; t_sched = 0.25 } else None
    in
    let line = Jsonx.to_string (Serve_proto.request_to_json ?trace ~id:7 req) in
    let* n = int_range 1 4 in
    let* edits =
      list_repeat n (pair (int_bound (String.length line - 1)) char)
    in
    let b = Bytes.of_string line in
    List.iter (fun (i, c) -> Bytes.set b i c) edits;
    return (Bytes.to_string b)
  in
  let line = oneof [ string_size ~gen:char (int_bound 96); mutated ] in
  QCheck.Test.make ~name:"byte-level decode totality" ~count:3000
    (QCheck.make ~print:String.escaped line)
    (fun line ->
      match Jsonx.of_string line with
      | exception Jsonx.Parse_error _ -> true
      | doc ->
        ignore (Serve_proto.request_of_json doc);
        ignore (Serve_proto.trace_ctx_of_json doc);
        true)

(* request_verb is the wire's "req" field. *)
let test_request_verb_is_wire_field () =
  List.iter
    (fun req ->
      match Jsonx.member "req" (Serve_proto.request_to_json ~id:1 req) with
      | Some (Jsonx.String wire) ->
        Alcotest.(check string) "verb matches the wire" wire
          (Serve_proto.request_verb req)
      | _ -> Alcotest.fail "request line has no req field")
    all_requests

let test_dispatch_timed () =
  let broker = Serve_broker.create ~obs:(Obs.create ()) (ring_net ()) in
  let resp, service_s, redist_s =
    Serve_broker.dispatch_timed broker
      (Serve_proto.Admit { src = 0; dst = 2; qos = qos_a })
  in
  (match resp with
  | Serve_proto.Admitted _ -> ()
  | _ -> Alcotest.fail "timed dispatch must return the dispatch reply");
  Alcotest.(check bool) "service time non-negative" true (service_s >= 0.);
  Alcotest.(check bool) "redistribution time non-negative" true (redist_s >= 0.);
  (* A pure read never flushes a redistribution. *)
  let _, s2, r2 = Serve_broker.dispatch_timed broker Serve_proto.Ping in
  Alcotest.(check bool) "ping service non-negative" true (s2 >= 0.);
  Alcotest.(check (float 0.)) "ping flushes nothing" 0. r2

let test_socket_stage_records () =
  let trace_file =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "drqos-reqtrace-%d-trace.jsonl" (Unix.getpid ()))
  in
  with_server ~slo:1e9 ~trace_file @@ fun path join ->
  let c = Serve_client.connect ~retries:50 (`Unix path) in
  let traced rid req =
    Serve_client.request ~trace:{ Reqtrace.rid; t_sched = 0.1 *. float_of_int rid }
      c req
  in
  (match traced 1 (Serve_proto.Admit { src = 0; dst = 2; qos = qos_a }) with
  | Serve_proto.Admitted _ -> ()
  | _ -> Alcotest.fail "traced admit failed");
  (match traced 2 Serve_proto.Stats with
  | Serve_proto.Stats_reply _ -> ()
  | _ -> Alcotest.fail "traced stats failed");
  (* An untraced request must still be recorded, under a negative
     server-assigned rid. *)
  (match Serve_client.request c Serve_proto.Ping with
  | Serve_proto.Pong -> ()
  | _ -> Alcotest.fail "untraced ping failed");
  (match Serve_client.request c Serve_proto.Shutdown with
  | Serve_proto.Shutting_down -> ()
  | _ -> Alcotest.fail "shutdown not acknowledged");
  Serve_client.close c;
  join ();
  let a = Analysis.of_file trace_file in
  Alcotest.(check (list string)) "trace is self-consistent" []
    (Analysis.request_check a);
  let reqs = Analysis.requests a in
  let find rid =
    match List.find_opt (fun r -> r.Analysis.rq_rid = rid) reqs with
    | Some r -> r
    | None -> Alcotest.failf "rid %d missing from the trace" rid
  in
  let admit = find 1 in
  Alcotest.(check string) "verb travels" "admit" admit.Analysis.rq_verb;
  Alcotest.(check bool) "complete" true admit.Analysis.rq_complete;
  let stage_names = List.map fst admit.Analysis.rq_stages in
  List.iter
    (fun st ->
      let name = Reqtrace.stage_name st in
      Alcotest.(check bool) ("stage " ^ name ^ " recorded") true
        (List.mem name stage_names))
    Reqtrace.all_stages;
  let stage_sum =
    List.fold_left (fun acc (_, s) -> acc +. s) 0. admit.Analysis.rq_stages
  in
  Alcotest.(check bool) "total is the stage sum" true
    (Float.abs (stage_sum -. admit.Analysis.rq_total_s) < 1e-9);
  ignore (find 2);
  Alcotest.(check bool)
    "untraced requests get negative server rids" true
    (List.exists
       (fun r -> r.Analysis.rq_rid < 0 && r.Analysis.rq_verb = "ping")
       reqs);
  Sys.remove trace_file

(* Under a tiny SLO every request misses, and the first misses dump the
   daemon's flight ring to [slow_dir]: the recorder's note, then the
   events leading into the miss, ending with the miss's own note. *)
let test_socket_slow_dir_dump () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "drqos-serve-slowdir-%d" (Unix.getpid ()))
  in
  let events =
    with_server ~slo:1e-9 ~slow_dir:dir @@ fun path join ->
    let c = Serve_client.connect ~retries:50 (`Unix path) in
    (match
       Serve_client.request ~trace:{ Reqtrace.rid = 7; t_sched = 0. } c
         (Serve_proto.Admit { src = 0; dst = 2; qos = qos_a })
     with
    | Serve_proto.Admitted _ -> ()
    | _ -> Alcotest.fail "traced admit failed");
    (match Serve_client.request c Serve_proto.Shutdown with
    | Serve_proto.Shutting_down -> ()
    | _ -> Alcotest.fail "shutdown not acknowledged");
    Serve_client.close c;
    join ();
    let ic = open_in (Filename.concat dir "slow_7.jsonl") in
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    Jsonx.fold_lines ic ~init:[] ~f:(fun acc ~line:_ doc ->
        match Trace.of_json doc with
        | Ok (_, ev) -> ev :: acc
        | Error msg -> Alcotest.failf "unparseable dump line: %s" msg)
    |> List.rev
  in
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir;
  match events with
  | Trace.Note { name = "flight_recorder"; _ } :: rest ->
    let kinds = List.map Trace.kind rest in
    Alcotest.(check bool) "the admission precedes the miss" true
      (List.mem "admit" kinds);
    Alcotest.(check bool) "the request's own records are kept" true
      (List.exists
         (function Trace.Req_end { rid = 7; _ } -> true | _ -> false)
         rest);
    (match List.rev rest with
    | Trace.Note { name = "slow_request"; _ } :: _ -> ()
    | _ -> Alcotest.fail "the dump must end with the slow_request note")
  | _ -> Alcotest.fail "the dump must start with the flight_recorder note"

let () =
  Alcotest.run "serve"
    [
      ( "proto",
        [
          Alcotest.test_case "every request round-trips" `Quick
            test_request_roundtrip;
          Alcotest.test_case "every response round-trips" `Quick
            test_response_roundtrip;
          Alcotest.test_case "malformed requests are rejected" `Quick
            test_request_rejects_malformed;
          Alcotest.test_case "qos utility defaults to 1" `Quick
            test_qos_utility_defaults;
          Alcotest.test_case "push framing rule" `Quick test_is_push;
          QCheck_alcotest.to_alcotest qcheck_decode_total;
        ] );
      ( "op-bridge",
        [
          Alcotest.test_case "bridge round-trips on identity state" `Quick
            test_op_bridge_roundtrip;
          Alcotest.test_case "no-op reductions" `Quick test_op_bridge_noops;
          Alcotest.test_case "modular reduction" `Quick
            test_op_bridge_modular_reduction;
          Alcotest.test_case "wire replay matches Fuzz.replay" `Slow
            test_op_bridge_matches_fuzz_replay;
        ] );
      ( "broker",
        [
          Alcotest.test_case "admit/chqos/teardown lifecycle" `Quick
            test_broker_lifecycle;
          Alcotest.test_case "bad requests become error replies" `Quick
            test_broker_rejections_are_replies;
          Alcotest.test_case "admission rejection is an ok reply" `Quick
            test_broker_capacity_rejection_is_ok_reply;
          Alcotest.test_case "failure recovery over the wire" `Quick
            test_broker_failure_recovery;
          Alcotest.test_case "snapshot and metrics requests" `Quick
            test_broker_snapshot_and_metrics;
          Alcotest.test_case "snapshot hot links are exact" `Quick
            test_broker_snapshot_hot_links;
          Alcotest.test_case "loadgen worker against an in-process broker" `Quick
            test_loadgen_worker;
        ] );
      ( "socket",
        [
          Alcotest.test_case "end-to-end session" `Slow test_socket_session;
          Alcotest.test_case "tcp session" `Slow test_tcp_session;
          Alcotest.test_case "heartbeat subscription" `Slow
            test_socket_heartbeat_push;
          Alcotest.test_case "garbage line does not kill the connection" `Slow
            test_socket_garbage_line;
          Alcotest.test_case "unterminated line past the cap is refused" `Slow
            test_socket_line_cap;
          Alcotest.test_case "slow subscriber is reaped, others unaffected"
            `Slow test_socket_slow_subscriber_reaped;
          Alcotest.test_case "unopenable trace file leaves no socket" `Quick
            test_bad_trace_file;
          Alcotest.test_case "slow dir without a parent leaves no socket"
            `Quick test_bad_slow_dir;
          Alcotest.test_case "slow dir dumps the flight ring" `Slow
            test_socket_slow_dir_dump;
          Alcotest.test_case "trace lines are built once, only for a reader"
            `Slow test_socket_trace_lines_for_readers;
          Alcotest.test_case "trace file lines equal a subscriber's pushes"
            `Slow test_socket_trace_file_matches_pushes;
        ] );
      ( "reqtrace",
        [
          Alcotest.test_case "trace field round-trips" `Quick
            test_trace_field_roundtrip;
          Alcotest.test_case "request verb is the wire req field" `Quick
            test_request_verb_is_wire_field;
          Alcotest.test_case "timed dispatch decomposition" `Quick
            test_dispatch_timed;
          Alcotest.test_case "stage records over the socket" `Slow
            test_socket_stage_records;
        ] );
    ]
