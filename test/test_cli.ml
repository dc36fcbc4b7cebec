(* Exit-code hygiene for the CLIs, table-driven.

   Convention (DESIGN.md): 0 = success, 1 = findings / failed run,
   2 = usage error. Every drqos_cli sub-command must exit 2 on an
   unknown flag (cmdliner's Cmd.Exit.cli_error is remapped in
   bin/drqos_cli.ml), and drqos_lint hand-rolls the same contract. *)

let cli = "../bin/drqos_cli.exe"
let lint = "../bin/drqos_lint.exe"

let exit_of cmd =
  (* Quiet both streams: these invocations exist only for their exit
     codes, and usage errors print to stderr. *)
  Sys.command (cmd ^ " >/dev/null 2>/dev/null")

let subcommands =
  [
    "run"; "sweep"; "topo"; "chain"; "analyze"; "perfdiff"; "fuzz"; "top";
    "serve"; "loadgen"; "latency";
  ]

(* Exit code and stderr text of [cmd] (stdout discarded). *)
let run_stderr cmd =
  let tmp = Filename.temp_file "drqos_cli" ".stderr" in
  let code = Sys.command (Printf.sprintf "%s >/dev/null 2>%s" cmd tmp) in
  let ic = open_in tmp in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  Sys.remove tmp;
  (code, text)

(* Case-insensitive substring test. *)
let mentions needle text =
  let lower = String.lowercase_ascii text in
  let nl = String.length needle in
  let rec scan i =
    i + nl <= String.length lower
    && (String.sub lower i nl = needle || scan (i + 1))
  in
  scan 0

let output_of cmd =
  let tmp = Filename.temp_file "drqos_cli" ".stdout" in
  let code = Sys.command (Printf.sprintf "%s >%s 2>/dev/null" cmd tmp) in
  let ic = open_in tmp in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove tmp;
  (code, text)

let stderr_mentions_usage cmd = mentions "usage" (snd (run_stderr cmd))

let test_unknown_flag_exits_2 () =
  List.iter
    (fun sub ->
      let cmd = Printf.sprintf "%s %s --definitely-not-a-flag" cli sub in
      Alcotest.(check int) (sub ^ ": unknown flag exits 2") 2 (exit_of cmd);
      Alcotest.(check bool)
        (sub ^ ": usage printed on stderr")
        true
        (stderr_mentions_usage cmd))
    subcommands

let test_unknown_subcommand_exits_2 () =
  Alcotest.(check int) "unknown subcommand exits 2" 2
    (exit_of (cli ^ " no-such-subcommand"))

let test_help_exits_0 () =
  Alcotest.(check int) "top-level --help" 0 (exit_of (cli ^ " --help"));
  List.iter
    (fun sub ->
      Alcotest.(check int)
        (sub ^ " --help")
        0
        (exit_of (Printf.sprintf "%s %s --help" cli sub)))
    subcommands

let test_lint_usage_errors_exit_2 () =
  Alcotest.(check int) "unknown option" 2
    (exit_of (lint ^ " --definitely-not-a-flag"));
  Alcotest.(check int) "no roots" 2 (exit_of lint);
  Alcotest.(check int) "bad --format" 2
    (exit_of (lint ^ " --format yaml some-root"));
  Alcotest.(check int) "unknown rule id" 2
    (exit_of (lint ^ " --rules R99 some-root"));
  Alcotest.(check int) "repeated value flag" 2
    (exit_of (lint ^ " --format json --format text some-root"));
  (* Flags the linter no longer has; the root itself is valid. *)
  let fixtures = " lintfix/.lint_fixtures.objs/byte" in
  let dir = Filename.temp_file "drqos_lint" ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let cache = Filename.concat dir "summaries.json" in
  Alcotest.(check int) "--summary-cache is gone" 2
    (exit_of (lint ^ " --summary-cache " ^ cache ^ fixtures));
  Alcotest.(check int) "--protect is gone" 2
    (exit_of (lint ^ " --protect Trace.event" ^ fixtures));
  if Sys.file_exists cache then Sys.remove cache;
  (* A root that yields no implementation .cmt analysed nothing. *)
  Alcotest.(check int) "root with no .cmt" 2 (exit_of (lint ^ " " ^ dir));
  Sys.rmdir dir;
  Alcotest.(check int) "--help exits 0" 0 (exit_of (lint ^ " --help"));
  Alcotest.(check int) "--list-rules exits 0" 0
    (exit_of (lint ^ " --list-rules"))

let test_lint_findings_exit_1 () =
  (* The fixture tree always has violations: exercising the "findings
     present" exit code end-to-end through the executable. *)
  Alcotest.(check int) "fixture violations exit 1" 1
    (exit_of
       (lint ^ " --lib-prefix test/ lintfix/.lint_fixtures.objs/byte"))

(* --- output-file open ordering --- *)

let test_bad_heartbeat_path_leaves_no_trace_file () =
  (* Regression: the heartbeat file used to be opened *after* make_obs
     had installed the trace sink, so `run --heartbeat /bad/path` would
     exit 1 with a freshly created (empty) trace file left behind and
     the at_exit flush running against a half-built context.  All
     output files now open before any sink is installed. *)
  let dir = Filename.temp_file "drqos_cli" ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let trace = Filename.concat dir "trace.jsonl" in
  let code =
    exit_of
      (Printf.sprintf
         "%s run --offered 5 --churn 5 --warmup 0 --trace %s --heartbeat \
          /no/such/dir/hb.jsonl"
         cli trace)
  in
  let trace_exists = Sys.file_exists trace in
  if trace_exists then Sys.remove trace;
  Sys.rmdir dir;
  Alcotest.(check int) "bad heartbeat path exits 1" 1 code;
  Alcotest.(check bool) "trace file never created" false trace_exists

let test_bad_trace_path_exits_1 () =
  Alcotest.(check int) "bad --trace path exits 1" 1
    (exit_of
       (Printf.sprintf
          "%s run --offered 5 --churn 5 --warmup 0 --trace /no/such/dir/t.jsonl"
          cli));
  Alcotest.(check int) "bad --metrics path exits 1" 1
    (exit_of
       (Printf.sprintf
          "%s run --offered 5 --churn 5 --warmup 0 --metrics /no/such/dir/m.json"
          cli))

let test_loadgen_bad_output_fails_first () =
  (* Regression: loadgen created --out (non-recursively) and opened
     --trace only after the whole replay, so a bad path surfaced after
     every request had been sent.  Both now fail before the first
     request: with no daemon listening, a path error on stderr (rather
     than the connect error the 100 retries end in) proves no
     connection was attempted. *)
  let file = Filename.temp_file "drqos_cli" ".file" in
  let loadgen flag path =
    run_stderr
      (Printf.sprintf "%s loadgen --quick --socket %s.missing.sock %s %s" cli
         file flag (Filename.concat file path))
  in
  let out_code, out_err = loadgen "--out" "sub" in
  let trace_code, trace_err = loadgen "--trace" "client.jsonl" in
  Sys.remove file;
  Alcotest.(check int) "--out under a regular file exits 1" 1 out_code;
  Alcotest.(check bool) "--out error names the path" true
    (mentions "not a directory" out_err);
  Alcotest.(check int) "--trace under a regular file exits 1" 1 trace_code;
  Alcotest.(check bool) "--trace error names the path" true
    (mentions "not a directory" trace_err)

(* A temporary regular file: no path under it can be created. *)
let with_regular_file f =
  let file = Filename.temp_file "drqos_cli" ".file" in
  Fun.protect ~finally:(fun () -> Sys.remove file) (fun () -> f file)

let test_serve_bad_output_fails_before_bind () =
  (* Regression: serve opened --trace and created --slow-dir only after
     binding, so a bad path died with exit 125 and left the socket file
     behind. *)
  with_regular_file (fun file ->
      let sock = file ^ ".sock" in
      let serve flag path =
        let code, err =
          run_stderr
            (Printf.sprintf "%s serve --socket %s --slo 0.05 %s %s" cli sock flag
               (Filename.concat file path))
        in
        let left = Sys.file_exists sock in
        if left then Sys.remove sock;
        (code, err, left)
      in
      List.iter
        (fun (flag, path) ->
          let code, err, left = serve flag path in
          Alcotest.(check int) (flag ^ " under a regular file exits 1") 1 code;
          Alcotest.(check bool) (flag ^ " error is the CLI's") true
            (mentions "drqos_cli: " err);
          Alcotest.(check bool) (flag ^ " leaves no socket file") false left)
        [ ("--trace", "t.jsonl"); ("--slow-dir", "slow") ])

let test_serve_slow_dir_created_recursively () =
  with_regular_file (fun file ->
      let root = file ^ ".d" in
      let slow = Filename.concat (Filename.concat root "a") "slow" in
      let sock = file ^ ".sock" in
      ignore
        (Sys.command
           (Printf.sprintf
              "timeout 30 %s serve --socket %s --slo 0.05 --slow-dir %s \
               >/dev/null 2>&1 &"
              cli sock slow));
      let code =
        exit_of
          (Printf.sprintf
             "%s loadgen --socket %s --requests 20 --rate 1000 --jobs 1 --shutdown"
             cli sock)
      in
      let created = Sys.file_exists slow && Sys.is_directory slow in
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote root)));
      Alcotest.(check int) "daemon served and shut down" 0 code;
      Alcotest.(check bool) "missing parents created" true created)

let test_fuzz_replay_directory_exits_1 () =
  let code, err =
    run_stderr (Printf.sprintf "%s fuzz --replay %s" cli Filename.current_dir_name)
  in
  Alcotest.(check int) "a directory as --replay exits 1" 1 code;
  Alcotest.(check bool) "with a message" true (mentions "drqos_cli: " err)

let test_sweep_bad_out_fails_before_sweep () =
  with_regular_file (fun file ->
      let code, out =
        output_of
          (Printf.sprintf
             "%s sweep --offered-from 100 --offered-to 100 --churn 20 --warmup 5 \
              --jobs 1 --out %s"
             cli file)
      in
      Alcotest.(check int) "--out naming a regular file exits 1" 1 code;
      Alcotest.(check string) "no sweep table printed" "" out)

let test_policy_aliases () =
  List.iter
    (fun sub ->
      Alcotest.(check int)
        (sub ^ " --policy coefficient")
        0
        (exit_of
           (Printf.sprintf "%s %s --policy coefficient %s" cli sub
              (if sub = "fuzz" then "--ops 50 --family waxman"
               else "--offered 20 --churn 10 --warmup 2"))))
    [ "run"; "fuzz" ]

(* --- drqos_cli top --- *)

(* A hand-written heartbeat stream: wall beats every ~0.1 s with one
   1.0 s hole — `top` must call out the stall. *)
let gapped_heartbeat_fixture () =
  let path = Filename.temp_file "drqos_top" ".jsonl" in
  let oc = open_out path in
  Printf.fprintf oc
    "{\"t\":10,\"ev\":\"snapshot\",\"seq\":0,\"events\":100,\"d_events\":100,\
     \"live\":5,\"levels\":[2,3],\"queue\":1,\"footprint\":2,\"peak_live\":5,\
     \"peak_queue\":1,\"hot\":[[7,40]],\"counters\":{\"drcomm.admitted\":5}}\n";
  Printf.fprintf oc
    "{\"t\":20,\"ev\":\"snapshot\",\"seq\":1,\"events\":160,\"d_events\":60,\
     \"live\":6,\"levels\":[2,4],\"queue\":1,\"footprint\":2,\"peak_live\":6,\
     \"peak_queue\":1,\"hot\":[[7,55]],\"counters\":{}}\n";
  List.iteri
    (fun i w ->
      Printf.fprintf oc
        "{\"t\":%d,\"ev\":\"heartbeat\",\"seq\":%d,\"wall_s\":%g,\
         \"d_events\":64,\"ops_per_s\":640,\"minor_words\":1000,\
         \"major_words\":10,\"heap_words\":100000}\n"
        (20 + i) i w)
    [ 0.; 0.1; 0.2; 0.3; 1.3; 1.4 ];
  close_out oc;
  path

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_top_reports_stalls () =
  let path = gapped_heartbeat_fixture () in
  let code, out = output_of (Printf.sprintf "%s top %s" cli path) in
  Sys.remove path;
  Alcotest.(check int) "exits 0" 0 code;
  Alcotest.(check bool) "snapshot summary rendered" true
    (contains ~sub:"2 snapshots" out);
  Alcotest.(check bool) "level breakdown rendered" true
    (contains ~sub:"S1:4" out);
  Alcotest.(check bool) "hottest link rendered" true (contains ~sub:"7:55" out);
  Alcotest.(check bool) "the 1s gap is flagged" true
    (contains ~sub:"STALLS (1)" out)

let test_top_clean_stream_no_stalls () =
  let path = gapped_heartbeat_fixture () in
  let code, out =
    output_of (Printf.sprintf "%s top --stall-factor 20 %s" cli path)
  in
  Sys.remove path;
  Alcotest.(check int) "exits 0" 0 code;
  Alcotest.(check bool) "no stalls at a forgiving factor" true
    (contains ~sub:"no stalls" out)

let test_top_errors () =
  Alcotest.(check int) "unreadable file exits 1" 1
    (exit_of (cli ^ " top /no/such/heartbeat.jsonl"));
  Alcotest.(check int) "missing positional exits 2" 2 (exit_of (cli ^ " top"));
  Alcotest.(check int) "non-positive stall factor exits 2" 2
    (exit_of (cli ^ " top --stall-factor 0 /dev/null"))

(* --- drqos_cli latency --- *)

(* A hand-written server trace (one traced admit) plus its client-side
   record — the smallest joinable pair. *)
let request_trace_fixture ~consistent () =
  let path = Filename.temp_file "drqos_latency" ".jsonl" in
  let oc = open_out path in
  Printf.fprintf oc
    "{\"t\":1,\"ev\":\"req_begin\",\"rid\":3,\"verb\":\"admit\"}\n";
  List.iter
    (fun (stage, s) ->
      Printf.fprintf oc
        "{\"t\":1,\"ev\":\"req_stage\",\"rid\":3,\"stage\":\"%s\",\
         \"seconds\":%g}\n"
        stage s)
    [
      ("queue", 0.001); ("parse", 0.0001); ("service", 0.01);
      ("redistribute", 0.002); ("write", 0.0004);
    ];
  Printf.fprintf oc
    "{\"t\":1,\"ev\":\"req_end\",\"rid\":3,\"verb\":\"admit\",\"ok\":true,\
     \"total_s\":0.0135}\n";
  if not consistent then
    (* An orphan req_end: the --check gate must reject the trace. *)
    Printf.fprintf oc
      "{\"t\":2,\"ev\":\"req_end\",\"rid\":9,\"verb\":\"ping\",\"ok\":true,\
       \"total_s\":0.001}\n";
  Printf.fprintf oc
    "{\"t\":3,\"ev\":\"req_client\",\"rid\":3,\"verb\":\"admit\",\
     \"sched_s\":0.5,\"latency_s\":0.02}\n";
  close_out oc;
  path

let test_latency_anatomy () =
  let path = request_trace_fixture ~consistent:true () in
  let code, out =
    output_of (Printf.sprintf "%s latency --check %s" cli path)
  in
  Sys.remove path;
  Alcotest.(check int) "exits 0" 0 code;
  Alcotest.(check bool) "join counted" true
    (contains ~sub:"1 joined with a client record" out);
  Alcotest.(check bool) "stage table rendered" true
    (contains ~sub:"redistribute" out);
  Alcotest.(check bool) "slowest requests listed" true
    (contains ~sub:"slowest requests" out);
  Alcotest.(check bool) "check passes" true (contains ~sub:"check: ok" out)

let test_latency_check_gate () =
  let path = request_trace_fixture ~consistent:false () in
  let code = exit_of (Printf.sprintf "%s latency --check %s" cli path) in
  let code_nocheck = exit_of (Printf.sprintf "%s latency %s" cli path) in
  Sys.remove path;
  Alcotest.(check int) "inconsistent trace fails --check" 1 code;
  Alcotest.(check int) "without --check it only reports" 0 code_nocheck

let test_latency_errors () =
  Alcotest.(check int) "missing positional exits 2" 2
    (exit_of (cli ^ " latency"));
  Alcotest.(check int) "unreadable file exits 1" 1
    (exit_of (cli ^ " latency /no/such/trace.jsonl"))

(* --- drqos_cli serve: connection cap --- *)

(* One line from a blocking socket, byte at a time so a thousand open
   sockets carry no channel buffers; [None] at EOF. *)
let read_line fd =
  let buf = Buffer.create 128 and byte = Bytes.create 1 in
  let rec go () =
    match Unix.read fd byte 0 1 with
    | 0 -> if Buffer.length buf = 0 then None else Some (Buffer.contents buf)
    | _ when Bytes.get byte 0 = '\n' -> Some (Buffer.contents buf)
    | _ ->
      Buffer.add_char buf (Bytes.get byte 0);
      go ()
  in
  go ()

(* A raw client socket.  Blocking connects wait while the listen backlog
   is full; EAGAIN is retried after a pause.  Reads time out, so a
   daemon that never answers fails the test instead of hanging it. *)
let dial path =
  let rec go tries =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 20.;
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error (Unix.EAGAIN, _, _) when tries > 0 ->
      Unix.close fd;
      Unix.sleepf 0.01;
      go (tries - 1)
    | exception e ->
      Unix.close fd;
      raise e
  in
  go 500

(* Poll for the daemon's exit code, bounded. *)
let wait_exit pid =
  let rec go tries =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when tries > 0 ->
      Unix.sleepf 0.05;
      go (tries - 1)
    | 0, _ -> None
    | _, Unix.WEXITED code -> Some code
    | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> Some (-1)
  in
  go 600

(* Regression: select cannot watch an fd at or above FD_SETSIZE, so the
   daemon died (EINVAL from select, exit 125) near its 1024th fd.  It
   must run as a subprocess: in process, the test's own client fds
   would push the daemon's fds past 1024 long before any cap. *)
let test_serve_connection_cap () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let cap = Serve_server.max_connections in
  let sock = Filename.temp_file "drqos_cap" ".sock" in
  Sys.remove sock;
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process cli [| cli; "serve"; "--socket"; sock |] devnull devnull
      devnull
  in
  Unix.close devnull;
  let exit_code = ref None and raw = ref [] and first = ref None in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) !raw;
      Option.iter Serve_client.close !first;
      if !exit_code = None then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
      end;
      if Sys.file_exists sock then Sys.remove sock)
  @@ fun () ->
  let c = Serve_client.connect ~retries:200 (`Unix sock) in
  first := Some c;
  for _ = 2 to cap + 100 do
    raw := dial sock :: !raw
  done;
  (* Connections are accepted in connect order, so the last 100 are the
     ones past the cap. *)
  let refusals =
    List.filteri (fun i _ -> i < 100) !raw
    |> List.map (fun fd ->
           let line = read_line fd in
           Alcotest.(check (option string)) "then EOF" None (read_line fd);
           line)
  in
  (match List.sort_uniq compare refusals with
  | [ Some line ] -> (
    match Serve_proto.response_of_json (Jsonx.of_string line) with
    | Ok (0, Serve_proto.Error_reply { message }) ->
      Alcotest.(check bool) "the refusal names the cap" true
        (mentions (string_of_int cap) message)
    | _ -> Alcotest.fail "past the cap: not an id-0 error reply")
  | _ -> Alcotest.fail "past the cap: not one identical reply each");
  (match Serve_client.request c Serve_proto.Ping with
  | Serve_proto.Pong -> ()
  | _ -> Alcotest.fail "ping on the first connection");
  (match Serve_client.request c Serve_proto.Metrics with
  | Serve_proto.Metrics_reply doc ->
    Alcotest.(check (option int)) "serve.refused" (Some 100)
      (Option.bind
         (Option.bind (Jsonx.member "counters" doc)
            (Jsonx.member "serve.refused"))
         Jsonx.to_int)
  | _ -> Alcotest.fail "metrics request failed");
  (match Serve_client.request c Serve_proto.Shutdown with
  | Serve_proto.Shutting_down -> ()
  | _ -> Alcotest.fail "shutdown not acknowledged");
  exit_code := wait_exit pid;
  Alcotest.(check (option int)) "daemon exits 0" (Some 0) !exit_code

(* --- drqos_cli perfdiff --- *)

let baseline name = Filename.concat "../bench/baselines" ("BENCH_" ^ name ^ ".json")

let perfdiff ?(limit = "") base fresh =
  exit_of (Printf.sprintf "%s perfdiff %s %s %s" cli base fresh limit)

let test_perfdiff_gate () =
  Alcotest.(check int) "a record passes against itself at 0%" 0
    (perfdiff ~limit:"--max-regress 0" (baseline "fig2") (baseline "fig2"));
  (* The committed pair is a +386.6% wall-time regression: the gate's
     negative control. *)
  Alcotest.(check int) "fig3 -> fig2 fails at 50%" 1
    (perfdiff ~limit:"--max-regress 50" (baseline "fig3") (baseline "fig2"));
  Alcotest.(check int) "without --max-regress it only reports" 0
    (perfdiff (baseline "fig3") (baseline "fig2"))

let test_perfdiff_errors () =
  let path = Filename.temp_file "drqos_perfdiff" ".json" in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "{\"experiment\":\"x\",\"scale\":\"quick\",\"jobs\":1}\n");
  let code = perfdiff path (baseline "fig2") in
  Sys.remove path;
  Alcotest.(check int) "a record without wall_s exits 1" 1 code;
  Alcotest.(check int) "unreadable record exits 1" 1
    (perfdiff "/no/such/BENCH.json" (baseline "fig2"))

let () =
  Alcotest.run "cli"
    [
      ( "exit-codes",
        [
          Alcotest.test_case "unknown flag per sub-command" `Quick
            test_unknown_flag_exits_2;
          Alcotest.test_case "unknown subcommand" `Quick
            test_unknown_subcommand_exits_2;
          Alcotest.test_case "--help" `Quick test_help_exits_0;
          Alcotest.test_case "drqos_lint usage errors" `Quick
            test_lint_usage_errors_exit_2;
          Alcotest.test_case "drqos_lint findings" `Quick
            test_lint_findings_exit_1;
        ] );
      ( "output-files",
        [
          Alcotest.test_case "bad heartbeat path leaves no trace file" `Quick
            test_bad_heartbeat_path_leaves_no_trace_file;
          Alcotest.test_case "bad trace/metrics paths exit 1" `Quick
            test_bad_trace_path_exits_1;
          Alcotest.test_case "loadgen bad output fails before replay" `Quick
            test_loadgen_bad_output_fails_first;
          Alcotest.test_case "serve bad output fails before bind" `Quick
            test_serve_bad_output_fails_before_bind;
          Alcotest.test_case "serve creates --slow-dir recursively" `Quick
            test_serve_slow_dir_created_recursively;
          Alcotest.test_case "fuzz --replay of a directory exits 1" `Quick
            test_fuzz_replay_directory_exits_1;
          Alcotest.test_case "sweep bad --out fails before the sweep" `Quick
            test_sweep_bad_out_fails_before_sweep;
        ] );
      ( "policy",
        [ Alcotest.test_case "one converter accepts the aliases" `Quick test_policy_aliases ] );
      ( "top",
        [
          Alcotest.test_case "stall detection on a gapped stream" `Quick
            test_top_reports_stalls;
          Alcotest.test_case "clean stream reports no stalls" `Quick
            test_top_clean_stream_no_stalls;
          Alcotest.test_case "error exit codes" `Quick test_top_errors;
        ] );
      ( "latency",
        [
          Alcotest.test_case "anatomy over a joinable pair" `Quick
            test_latency_anatomy;
          Alcotest.test_case "--check gates on consistency" `Quick
            test_latency_check_gate;
          Alcotest.test_case "error exit codes" `Quick test_latency_errors;
        ] );
      ( "serve",
        [
          Alcotest.test_case "connections past the cap are refused" `Quick
            test_serve_connection_cap;
        ] );
      ( "perfdiff",
        [
          Alcotest.test_case "wall-time gate" `Quick test_perfdiff_gate;
          Alcotest.test_case "error exit codes" `Quick test_perfdiff_errors;
        ] );
    ]
