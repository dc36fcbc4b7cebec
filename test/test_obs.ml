(* Tests for the observability layer: JSON documents, the metrics
   registry with the edge cases of its timer histogram, and trace
   sinks. *)

let approx = Alcotest.float 1e-9

let get_exn = function Some x -> x | None -> Alcotest.fail "missing JSON member"

let member_exn key json = get_exn (Jsonx.member key json)

(* --- Jsonx --- *)

let test_jsonx_roundtrip () =
  let doc =
    Jsonx.Obj
      [
        ("name", Jsonx.String "line\n\"quoted\"\tand\\slashed");
        ("count", Jsonx.Int (-42));
        ("ratio", Jsonx.Float 0.125);
        ("flags", Jsonx.List [ Jsonx.Bool true; Jsonx.Bool false; Jsonx.Null ]);
        ("nested", Jsonx.Obj [ ("k", Jsonx.Int 7) ]);
      ]
  in
  let back = Jsonx.of_string (Jsonx.to_string doc) in
  Alcotest.(check bool) "identical after round-trip" true (back = doc)

let test_jsonx_special_floats () =
  Alcotest.(check string) "nan is null" "null" (Jsonx.to_string (Jsonx.Float nan));
  let inf = Jsonx.of_string (Jsonx.to_string (Jsonx.Float infinity)) in
  Alcotest.(check bool) "infinity survives" true (Jsonx.to_float inf = Some infinity)

let test_jsonx_rejects_garbage () =
  let bad s =
    match Jsonx.of_string s with
    | exception Jsonx.Parse_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "trailing garbage" true (bad "{} x");
  Alcotest.(check bool) "unterminated string" true (bad "\"abc");
  Alcotest.(check bool) "bare word" true (bad "qos");
  (* Valid JSON, but nested past the limit: the reader's stack stays
     bounded. *)
  let nest n = String.make n '[' ^ String.make n ']' in
  let nest_obj n = String.concat "" (List.init n (fun _ -> "{\"k\":")) ^ "1" ^ String.make n '}' in
  Alcotest.(check bool) "nested 10^4 deep" true (bad (nest 10_000));
  Alcotest.(check bool) "one past the limit" true (bad (nest (Jsonx.max_depth + 1)));
  Alcotest.(check bool) "objects count too" true (bad (nest_obj (Jsonx.max_depth + 1)));
  Alcotest.(check bool) "the limit itself parses" false
    (bad (nest Jsonx.max_depth) || bad (nest_obj Jsonx.max_depth))

let test_jsonx_bad_unicode_escape () =
  (* Regression: the \u handler used to catch every exception around
     int_of_string; it now narrows to Failure. Malformed hex digits
     must still surface as Parse_error, not escape as something else. *)
  let bad s =
    match Jsonx.of_string s with
    | exception Jsonx.Parse_error _ -> true
    | exception _ -> false
    | _ -> false
  in
  Alcotest.(check bool) "non-hex digits" true (bad "\"\\uZZZZ\"");
  Alcotest.(check bool) "truncated escape" true (bad "\"\\u12\"");
  (* And a well-formed escape still parses. *)
  Alcotest.(check bool) "valid escape accepted" true
    (match Jsonx.of_string "\"\\u0041\"" with
    | Jsonx.String s -> s = "A"
    | _ -> false)

let test_jsonx_field () =
  let doc = Jsonx.of_string {|{"n":3,"s":"x","b":true}|} in
  let check_result name expected got =
    Alcotest.(check (result int string)) name expected got
  in
  check_result "present and well-typed" (Ok 3) (Jsonx.field "n" Jsonx.to_int doc);
  check_result "missing key" (Error {|missing field "k"|})
    (Jsonx.field "k" Jsonx.to_int doc);
  check_result "wrong type" (Error {|field "s" has the wrong type|})
    (Jsonx.field "s" Jsonx.to_int doc);
  Alcotest.(check (result bool string)) "booleans read through to_bool" (Ok true)
    (Jsonx.field "b" Jsonx.to_bool doc);
  check_result "a non-object has no fields" (Error {|missing field "n"|})
    (Jsonx.field "n" Jsonx.to_int (Jsonx.List []))

let test_jsonx_to_list () =
  let ints = Jsonx.to_list Jsonx.to_int in
  Alcotest.(check (option (list int))) "every element converts" (Some [ 1; 2; 3 ])
    (ints (Jsonx.of_string "[1,2,3]"));
  Alcotest.(check (option (list int))) "empty list" (Some []) (ints (Jsonx.List []));
  Alcotest.(check (option (list int))) "one bad element" None
    (ints (Jsonx.of_string {|[1,"two",3]|}));
  Alcotest.(check (option (list int))) "not a list" None (ints (Jsonx.Int 1))

(* --- Jsonx.fold_lines --- *)

let fold_string text =
  let path = Filename.temp_file "drqos_jsonl" ".jsonl" in
  let oc = open_out path in
  output_string oc text;
  close_out oc;
  let ic = open_in path in
  let result =
    match
      Jsonx.fold_lines ic ~init:[] ~f:(fun acc ~line doc -> (line, doc) :: acc)
    with
    | docs -> Ok (List.rev docs)
    | exception Jsonx.Line_error { line; message } -> Error (line, message)
  in
  close_in ic;
  Sys.remove path;
  result

let test_fold_lines_good () =
  match fold_string "{\"a\":1}\n\n  \n{\"b\":2}\n" with
  | Error _ -> Alcotest.fail "good stream rejected"
  | Ok docs ->
    Alcotest.(check (list int)) "line numbers skip blanks" [ 1; 4 ]
      (List.map fst docs);
    Alcotest.(check bool) "documents parsed" true
      (List.map snd docs
      = [ Jsonx.Obj [ ("a", Jsonx.Int 1) ]; Jsonx.Obj [ ("b", Jsonx.Int 2) ] ])

let test_fold_lines_truncated () =
  (* A crash mid-write leaves a truncated final line; the reader must
     name it rather than silently dropping data. *)
  match fold_string "{\"a\":1}\n{\"b\": 2, \"c\"" with
  | Ok _ -> Alcotest.fail "truncated final line accepted"
  | Error (line, _) -> Alcotest.(check int) "error names line 2" 2 line

let test_fold_lines_garbage_line () =
  match fold_string "{\"a\":1}\nnot json at all\n{\"b\":2}\n" with
  | Ok _ -> Alcotest.fail "garbage line accepted"
  | Error (line, message) ->
    Alcotest.(check int) "error names line 2" 2 line;
    Alcotest.(check bool) "message is non-empty" true (String.length message > 0)

let test_fold_lines_empty_stream () =
  match fold_string "" with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "phantom documents"
  | Error _ -> Alcotest.fail "empty stream rejected"

(* --- Metrics registry --- *)

let test_metrics_counters_and_snapshot () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "events" in
  Metrics.incr c;
  Metrics.incr c;
  Metrics.add c 40;
  Alcotest.(check int) "counter value" 42 (Metrics.count c);
  Alcotest.(check bool) "interned by name" true (Metrics.counter reg "events" == c);
  let g = Metrics.gauge reg "depth" in
  Metrics.set g 3.;
  Metrics.set g 10.;
  Metrics.set g 2.;
  let tm = Metrics.timer reg "solve" in
  Metrics.observe tm 0.5;
  Metrics.observe tm 1.5;
  let snap = Metrics.snapshot reg in
  (* The snapshot must survive a JSON round-trip and expose the values. *)
  let snap = Jsonx.of_string (Jsonx.to_string snap) in
  let counters = member_exn "counters" snap in
  Alcotest.(check int) "snapshot counter" 42
    (get_exn (Jsonx.to_int (member_exn "events" counters)));
  let depth = member_exn "depth" (member_exn "gauges" snap) in
  Alcotest.check approx "gauge last" 2.
    (get_exn (Jsonx.to_float (member_exn "value" depth)));
  Alcotest.check approx "gauge peak" 10.
    (get_exn (Jsonx.to_float (member_exn "peak" depth)));
  let solve = member_exn "solve" (member_exn "timers" snap) in
  Alcotest.(check int) "timer count" 2
    (get_exn (Jsonx.to_int (member_exn "count" solve)));
  Alcotest.check approx "timer total" 2.
    (get_exn (Jsonx.to_float (member_exn "total_s" solve)));
  Alcotest.check approx "timer mean" 1.
    (get_exn (Jsonx.to_float (member_exn "mean_s" solve)))

let test_metrics_disabled_is_noop () =
  let c = Metrics.counter Metrics.disabled "never" in
  Metrics.incr c;
  Metrics.add c 10;
  Alcotest.(check int) "disabled counter stays 0" 0 (Metrics.count c);
  let g = Metrics.gauge Metrics.disabled "never_g" in
  Metrics.set g 5.;
  Alcotest.check approx "disabled gauge stays 0" 0. (Metrics.value g);
  let tm = Metrics.timer Metrics.disabled "never_t" in
  let ran = Metrics.time tm (fun () -> 123) in
  Alcotest.(check int) "thunk still runs" 123 ran;
  Alcotest.(check int) "disabled timer records nothing" 0 (Metrics.timer_count tm)

(* --- timer percentiles --- *)

(* The log-bucket histogram has ~12% relative resolution, so quantile
   answers must land within that of the exact value — deterministically,
   with no sampling seed. *)
let check_rel name expected actual =
  let rel = Float.abs (actual -. expected) /. expected in
  if rel > 0.15 then
    Alcotest.failf "%s: expected ~%g, got %g (rel. error %.2f)" name expected
      actual rel

let test_timer_percentiles () =
  let reg = Metrics.create () in
  let tm = Metrics.timer reg "lat" in
  (* 100 observations: 1 ms .. 100 ms. *)
  for i = 1 to 100 do
    Metrics.observe tm (float_of_int i *. 1e-3)
  done;
  check_rel "p50" 0.050 (Metrics.timer_quantile tm 0.50);
  check_rel "p95" 0.095 (Metrics.timer_quantile tm 0.95);
  check_rel "p99" 0.099 (Metrics.timer_quantile tm 0.99);
  Alcotest.(check bool) "q out of range rejected" true
    (match Metrics.timer_quantile tm 1.5 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let empty = Metrics.timer reg "never" in
  Alcotest.check approx "empty timer quantile is 0" 0.
    (Metrics.timer_quantile empty 0.5)

let test_timer_percentiles_in_snapshot () =
  let reg = Metrics.create () in
  let tm = Metrics.timer reg "solve" in
  List.iter (Metrics.observe tm) [ 0.010; 0.010; 0.010; 0.500 ];
  let snap = Jsonx.of_string (Jsonx.to_string (Metrics.snapshot reg)) in
  let solve = member_exn "solve" (member_exn "timers" snap) in
  let q name = get_exn (Jsonx.to_float (member_exn name solve)) in
  check_rel "snapshot p50" 0.010 (q "p50_s");
  check_rel "snapshot p99" 0.500 (q "p99_s");
  Alcotest.(check bool) "p95 between p50 and p99" true
    (q "p50_s" <= q "p95_s" && q "p95_s" <= q "p99_s")

let test_timer_percentiles_merge () =
  (* Percentiles over merged registries must equal percentiles over the
     union of observations (bucket counts add exactly). *)
  let a = Metrics.create () and b = Metrics.create () in
  for i = 1 to 50 do
    Metrics.observe (Metrics.timer a "t") (float_of_int i *. 1e-3)
  done;
  for i = 51 to 100 do
    Metrics.observe (Metrics.timer b "t") (float_of_int i *. 1e-3)
  done;
  let whole = Metrics.create () in
  for i = 1 to 100 do
    Metrics.observe (Metrics.timer whole "t") (float_of_int i *. 1e-3)
  done;
  Metrics.merge_into ~into:a b;
  let tm = Metrics.timer a "t" in
  Alcotest.(check int) "merged count" 100 (Metrics.timer_count tm);
  List.iter
    (fun q ->
      Alcotest.check approx
        (Printf.sprintf "merged q=%g equals unsplit" q)
        (Metrics.timer_quantile (Metrics.timer whole "t") q)
        (Metrics.timer_quantile tm q))
    [ 0.; 0.25; 0.5; 0.9; 0.95; 0.99; 1. ]

(* --- Trace sinks --- *)

let events_fixture =
  [
    (0., Trace.Admit { channel = 0; direct = 2; indirect = 5 });
    (1.5, Trace.Reject { reason = "no_backup_route" });
    (2.25, Trace.Retreat { channel = 0; from_level = 8; to_level = 0 });
    (2.25, Trace.Upgrade { channel = 3; from_level = 0; to_level = 1 });
    (3., Trace.Link_fail { edge = 17 });
    (3., Trace.Backup_activate { channel = 0; reprotected = true });
    (4., Trace.Solve { what = "ctmc.stationary"; states = 9; seconds = 0.001 });
  ]

let test_jsonl_sink_roundtrip () =
  let path = Filename.temp_file "drqos_trace" ".jsonl" in
  let tracer = Trace.create (Trace.jsonl_sink (open_out path)) in
  List.iter (fun (time, ev) -> Trace.emit tracer ~time ev) events_fixture;
  Trace.close tracer;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let lines = List.rev !lines in
  Sys.remove path;
  Alcotest.(check int) "one line per event" (List.length events_fixture)
    (List.length lines);
  List.iter2
    (fun (time, ev) line ->
      let json = Jsonx.of_string line in
      Alcotest.(check string) "kind" (Trace.kind ev)
        (get_exn (Jsonx.to_str (member_exn "ev" json)));
      Alcotest.check approx "timestamp" time
        (get_exn (Jsonx.to_float (member_exn "t" json)));
      (* The parsed line must equal the direct serialisation. *)
      Alcotest.(check bool) "document round-trips" true
        (json = Jsonx.of_string (Jsonx.to_string (Trace.to_json ~time ev))))
    events_fixture lines;
  (* Spot-check one payload field survived the file round-trip. *)
  let activate = Jsonx.of_string (List.nth lines 5) in
  Alcotest.(check bool) "reprotected flag" true
    (Jsonx.member "reprotected" activate = Some (Jsonx.Bool true))

let test_disabled_tracer_emits_nothing () =
  let hit = ref 0 in
  let sink = { Trace.emit = (fun _ _ -> incr hit); close = (fun () -> ()) } in
  ignore sink.Trace.emit;
  Trace.emit Trace.disabled ~time:1. (Trace.Drop { channel = 1 });
  Alcotest.(check int) "no emission" 0 !hit

(* Every constructor must serialise and parse back: [Trace.all_samples]
   holds one sample per constructor, so adding a constructor without
   extending to_json/of_json (or the sample list) fails here. *)
let test_trace_serialisation_total () =
  let kinds = List.map Trace.kind Trace.all_samples in
  Alcotest.(check int) "one distinct kind per constructor"
    (List.length kinds)
    (List.length (List.sort_uniq compare kinds));
  List.iteri
    (fun i ev ->
      let time = 0.5 +. float_of_int i in
      let doc = Jsonx.of_string (Jsonx.to_string (Trace.to_json ~time ev)) in
      match Trace.of_json doc with
      | Error msg -> Alcotest.failf "%s does not parse back: %s" (Trace.kind ev) msg
      | Ok (time', ev') ->
        Alcotest.check approx (Trace.kind ev ^ " timestamp") time time';
        (* Structural equality covers every field of every constructor. *)
        if ev' <> ev then
          Alcotest.failf "%s fields changed across the round-trip:\n%s\nvs\n%s"
            (Trace.kind ev)
            (Jsonx.to_string (Trace.to_json ~time ev))
            (Jsonx.to_string (Trace.to_json ~time:time' ev')))
    Trace.all_samples

let test_trace_of_json_rejects () =
  let err doc =
    match Trace.of_json (Jsonx.of_string doc) with
    | Error _ -> true
    | Ok _ -> false
  in
  Alcotest.(check bool) "unknown kind" true
    (err "{\"t\":1.0,\"ev\":\"frobnicate\"}");
  Alcotest.(check bool) "missing field" true (err "{\"t\":1.0,\"ev\":\"admit\"}");
  Alcotest.(check bool) "ill-typed field" true
    (err "{\"t\":1.0,\"ev\":\"terminate\",\"channel\":\"three\"}");
  Alcotest.(check bool) "missing timestamp" true (err "{\"ev\":\"link_fail\",\"edge\":1}")

let test_tracer_close_idempotent () =
  let closes = ref 0 in
  let sink = { Trace.emit = (fun _ _ -> ()); close = (fun () -> incr closes) } in
  let tracer = Trace.create sink in
  Trace.close tracer;
  Trace.close tracer;
  Alcotest.(check int) "sink closed exactly once" 1 !closes

(* --- Span profiler --- *)

let test_span_nesting_and_self_time () =
  let sp = Span.create () in
  let outer = get_exn (Span.enter sp "outer") in
  let inner = get_exn (Span.enter sp "inner") in
  Alcotest.(check int) "inner depth" 1 (Span.depth sp - 1);
  let ri = get_exn (Span.exit sp inner) in
  let ro = get_exn (Span.exit sp outer) in
  Alcotest.(check string) "inner name" "inner" ri.Span.name;
  Alcotest.(check int) "inner depth recorded" 1 ri.Span.depth;
  Alcotest.(check int) "outer depth recorded" 0 ro.Span.depth;
  Alcotest.(check bool) "durations are non-negative" true
    (ri.Span.total_s >= 0. && ro.Span.total_s >= 0.);
  Alcotest.(check bool) "outer total covers inner" true
    (ro.Span.total_s >= ri.Span.total_s);
  Alcotest.(check bool) "outer self excludes inner" true
    (ro.Span.self_s <= ro.Span.total_s -. ri.Span.total_s +. 1e-9);
  Alcotest.(check int) "two records kept" 2 (List.length (Span.records sp));
  (* Completion order: inner closed first. *)
  (match Span.records sp with
  | [ a; b ] ->
    Alcotest.(check string) "inner completes first" "inner" a.Span.name;
    Alcotest.(check string) "outer completes last" "outer" b.Span.name
  | _ -> Alcotest.fail "expected exactly two records");
  match Span.aggregate sp with
  | aggs ->
    Alcotest.(check int) "two aggregate rows" 2 (List.length aggs);
    List.iter
      (fun a -> Alcotest.(check int) ("count of " ^ a.Span.agg_name) 1 a.Span.count)
      aggs

let test_span_exit_order_enforced () =
  let sp = Span.create () in
  let outer = get_exn (Span.enter sp "outer") in
  let _inner = get_exn (Span.enter sp "inner") in
  Alcotest.(check bool) "closing the outer frame first is rejected" true
    (match Span.exit sp outer with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_span_wrap_protects_on_raise () =
  let sp = Span.create () in
  (try Span.wrap sp "boom" (fun () -> failwith "kaboom") with Failure _ -> ());
  Alcotest.(check int) "stack unwound" 0 (Span.depth sp);
  Alcotest.(check int) "the raising span still recorded" 1
    (List.length (Span.records sp))

let test_span_record_cap () =
  let sp = Span.create ~keep:3 () in
  for _ = 1 to 5 do
    Span.wrap sp "tick" (fun () -> ())
  done;
  Alcotest.(check int) "records capped" 3 (List.length (Span.records sp));
  Alcotest.(check int) "overflow counted" 2 (Span.dropped_records sp);
  match Span.aggregate sp with
  | [ a ] -> Alcotest.(check int) "aggregate sees every span" 5 a.Span.count
  | aggs -> Alcotest.failf "expected one aggregate row, got %d" (List.length aggs)

let test_span_merge () =
  let a = Span.create () and b = Span.create () in
  Span.wrap a "shared" (fun () -> ());
  Span.wrap b "shared" (fun () -> ());
  Span.wrap b "worker_only" (fun () -> ());
  Span.merge_into ~into:a b;
  let find name =
    List.find (fun x -> x.Span.agg_name = name) (Span.aggregate a)
  in
  Alcotest.(check int) "shared counts add" 2 (find "shared").Span.count;
  Alcotest.(check int) "worker-only arrives" 1 (find "worker_only").Span.count;
  Alcotest.(check bool) "self-merge rejected" true
    (match Span.merge_into ~into:a a with
    | exception Invalid_argument _ -> true
    | () -> false);
  (* Merging into/from the disabled profiler is a silent no-op. *)
  Span.merge_into ~into:Span.disabled a;
  Span.merge_into ~into:a Span.disabled

(* --- Obs context --- *)

let test_obs_span_and_clock () =
  let events = ref [] in
  let sink =
    { Trace.emit = (fun time ev -> events := (time, ev) :: !events);
      close = (fun () -> ()) }
  in
  let obs = Obs.create ~metrics:(Metrics.create ()) ~trace:(Trace.create sink) () in
  Obs.set_clock obs (fun () -> 42.);
  let result = Obs.span obs "work" (fun () -> 7) in
  Alcotest.(check int) "span returns the thunk's value" 7 result;
  (match List.rev !events with
  | [ (t1, Trace.Phase_begin { name = n1 }); (t2, Trace.Phase_end { name = n2; _ }) ] ->
    Alcotest.(check string) "begin name" "work" n1;
    Alcotest.(check string) "end name" "work" n2;
    Alcotest.check approx "begin at clock" 42. t1;
    Alcotest.check approx "end at clock" 42. t2
  | evs -> Alcotest.failf "expected begin/end pair, got %d events" (List.length evs));
  let timers = Jsonx.member "timers" (Obs.metrics_json obs) in
  Alcotest.(check bool) "phase timer recorded" true
    (match timers with
    | Some (Jsonx.Obj fields) -> List.mem_assoc "phase.work" fields
    | _ -> false)

let test_obs_null_ignores_clock () =
  Obs.set_clock Obs.null (fun () -> 99.);
  Alcotest.check approx "null clock pinned at 0" 0. (Obs.now Obs.null)

let test_obs_profiled_span_emits_span_events () =
  let events = ref [] in
  let sink =
    { Trace.emit = (fun time ev -> events := (time, ev) :: !events);
      close = (fun () -> ()) }
  in
  let obs =
    Obs.create ~trace:(Trace.create sink) ~spans:(Span.create ()) ()
  in
  Alcotest.(check bool) "profiling on" true (Obs.profiling obs);
  Obs.span obs "outer" (fun () -> Obs.span obs "inner" (fun () -> ()));
  let kinds = List.rev_map (fun (_, ev) -> Trace.kind ev) !events in
  Alcotest.(check (list string)) "span events, properly nested"
    [ "span_begin"; "span_begin"; "span_end"; "span_end" ]
    kinds;
  match List.rev !events with
  | [ _; _; (_, Trace.Span_end { name; total_s; self_s; _ }); (_, Trace.Span_end _) ]
    ->
    Alcotest.(check string) "inner closes first" "inner" name;
    Alcotest.(check bool) "self <= total" true (self_s <= total_s +. 1e-9)
  | _ -> Alcotest.fail "expected two span_end events"

let test_obs_fork_absorb_spans () =
  let parent = Obs.create ~spans:(Span.create ()) () in
  let worker = Obs.fork parent in
  Alcotest.(check bool) "fork mirrors profiling" true (Obs.profiling worker);
  Obs.span worker "work" (fun () -> ());
  Obs.absorb ~into:parent worker;
  match Span.aggregate (Obs.spans parent) with
  | [ a ] ->
    Alcotest.(check string) "merged name" "work" a.Span.agg_name;
    Alcotest.(check int) "merged count" 1 a.Span.count
  | aggs -> Alcotest.failf "expected one merged aggregate, got %d" (List.length aggs)

(* Regression: a scenario that raises mid-span must still flush its
   buffered trace to the sink — the CLI guards the tracer with
   [Fun.protect ~finally:close] (plus an [at_exit] hook), and [close]
   must be safe to call on both paths. *)
let test_obs_trace_flushed_on_raise () =
  let path = Filename.temp_file "drqos_flush" ".jsonl" in
  let obs =
    Obs.create
      ~trace:(Trace.create (Trace.jsonl_sink (open_out path)))
      ~spans:(Span.create ()) ()
  in
  (try
     Fun.protect
       ~finally:(fun () -> Obs.close obs)
       (fun () ->
         Obs.span obs "doomed" (fun () ->
             Obs.event obs (Trace.Link_fail { edge = 3 });
             failwith "simulated crash"))
   with Failure _ -> ());
  (* Double close (Fun.protect now, at_exit later) must stay safe. *)
  Obs.close obs;
  let ic = open_in path in
  let events =
    Jsonx.fold_lines ic ~init:[] ~f:(fun acc ~line:_ doc ->
        match Trace.of_json doc with
        | Ok (_, ev) -> Trace.kind ev :: acc
        | Error msg -> Alcotest.failf "unparseable flushed line: %s" msg)
    |> List.rev
  in
  close_in ic;
  Sys.remove path;
  Alcotest.(check (list string))
    "everything before and at the crash reached the file"
    [ "span_begin"; "link_fail"; "span_end" ]
    events

(* --- High-watermark gauges --- *)

let test_hwm_basics () =
  let reg = Metrics.create () in
  let w = Metrics.hwm reg "peak" in
  Alcotest.check approx "0 before updates" 0. (Metrics.hwm_value w);
  Metrics.observe_hwm w 3.;
  Metrics.observe_hwm w 10.;
  Metrics.observe_hwm w 7.;
  Alcotest.check approx "keeps the max" 10. (Metrics.hwm_value w);
  Alcotest.(check bool) "interned by name" true (Metrics.hwm reg "peak" == w);
  let snap = Jsonx.of_string (Jsonx.to_string (Metrics.snapshot reg)) in
  let peak = member_exn "peak" (member_exn "hwm" snap) in
  Alcotest.check approx "snapshot value" 10.
    (get_exn (Jsonx.to_float (member_exn "value" peak)));
  Alcotest.(check int) "snapshot updates" 3
    (get_exn (Jsonx.to_int (member_exn "updates" peak)))

let test_hwm_merge_order_independent () =
  (* The reason hwm exists: gauges keep the *last* value, which depends
     on worker absorb order; watermarks max-merge, so any permutation of
     the same forks yields the same combined peak. *)
  let mk v =
    let r = Metrics.create () in
    Metrics.observe_hwm (Metrics.hwm r "live_peak") v;
    r
  in
  let merged order =
    let into = Metrics.create () in
    List.iter (fun v -> Metrics.merge_into ~into (mk v)) order;
    Metrics.hwm_value (Metrics.hwm into "live_peak")
  in
  let a = merged [ 4.; 9.; 2. ] in
  let b = merged [ 2.; 4.; 9. ] in
  let c = merged [ 9.; 2.; 4. ] in
  Alcotest.check approx "order 1 = order 2" a b;
  Alcotest.check approx "order 2 = order 3" b c;
  Alcotest.check approx "merged value is the true peak" 9. a

let test_counter_values_sorted_and_disabled () =
  let reg = Metrics.create () in
  Metrics.add (Metrics.counter reg "z.last") 3;
  Metrics.add (Metrics.counter reg "a.first") 1;
  Alcotest.(check (list (pair string int)))
    "name-sorted cumulative values"
    [ ("a.first", 1); ("z.last", 3) ]
    (Metrics.counter_values reg);
  Alcotest.(check (list (pair string int)))
    "disabled registry exposes nothing" []
    (Metrics.counter_values Metrics.disabled)

(* --- Flight recorder --- *)

let test_flight_wraparound () =
  let f = Flight.create ~capacity:4 () in
  let sink = Flight.sink f Trace.null_sink in
  for i = 1 to 10 do
    sink.Trace.emit (float_of_int i) (Trace.Link_fail { edge = i })
  done;
  Alcotest.(check int) "size capped" 4 (Flight.size f);
  Alcotest.(check int) "seen counts everything" 10 (Flight.seen f);
  Alcotest.(check (list int)) "retains the last N, oldest first"
    [ 7; 8; 9; 10 ]
    (List.map
       (fun (_, ev) ->
         match ev with Trace.Link_fail { edge } -> edge | _ -> -1)
       (Flight.events f))

let test_flight_dump_on_raise () =
  let path = Filename.temp_file "drqos_flight" ".jsonl" in
  let ring = Flight.create ~capacity:8 () in
  let forwarded = ref [] in
  let inner =
    { Trace.emit = (fun _ ev -> forwarded := Trace.kind ev :: !forwarded); close = ignore }
  in
  let obs = Obs.create ~trace:(Trace.create (Flight.sink ring inner)) () in
  Obs.set_clock obs (fun () -> 5.);
  Alcotest.check_raises "the run's exception propagates" (Failure "simulated crash")
    (fun () ->
      Flight.dump_on_raise ring path (fun () ->
          Obs.event obs (Trace.Link_fail { edge = 3 });
          Obs.event obs (Trace.Drop { channel = 1 });
          failwith "simulated crash"));
  Alcotest.(check (list string))
    "the ring forwards every event" [ "link_fail"; "drop" ] (List.rev !forwarded);
  (* The dump is JSONL that Analysis/Trace can replay: a note header
     naming the recorder, then the retained events. *)
  let ic = open_in path in
  let events =
    Jsonx.fold_lines ic ~init:[] ~f:(fun acc ~line:_ doc ->
        match Trace.of_json doc with
        | Ok (t, ev) -> (t, Trace.kind ev) :: acc
        | Error msg -> Alcotest.failf "unparseable dump line: %s" msg)
    |> List.rev
  in
  close_in ic;
  Sys.remove path;
  match events with
  | (_, "note") :: rest ->
    Alcotest.(check (list (pair (Alcotest.float 1e-9) string)))
      "events at the crash clock"
      [ (5., "link_fail"); (5., "drop") ]
      rest
  | _ -> Alcotest.fail "dump must start with the flight_recorder note"

let test_flight_dump_cancelled_on_success () =
  let path = Filename.temp_file "drqos_flight" ".jsonl" in
  Sys.remove path;
  let ring = Flight.create ~capacity:8 () in
  let obs = Obs.create ~trace:(Trace.create (Flight.sink ring Trace.null_sink)) () in
  let r =
    Flight.dump_on_raise ring path (fun () ->
        Obs.event obs (Trace.Link_fail { edge = 1 });
        42)
  in
  Alcotest.(check int) "the run's value" 42 r;
  Alcotest.(check int) "the ring holds the event" 1 (Flight.size ring);
  Alcotest.(check bool) "a successful run writes no dump" false (Sys.file_exists path)

(* --- Snapshot emitter --- *)

type fake_run = {
  mutable fr_time : float;
  mutable fr_events : int;
  mutable fr_live : int array;
  mutable fr_counters : (string * int) list;
  mutable fr_slo : int * int;
}

(* Keeps each emitted event as its JSONL line, newest first. *)
let line_sink lines =
  let emit time ev = lines := Jsonx.to_string (Trace.to_json ~time ev) :: !lines in
  { Trace.emit; close = ignore }

let fake_source r =
  {
    Snapshot.sim_time = (fun () -> r.fr_time);
    events = (fun () -> r.fr_events);
    live_by_level = (fun () -> r.fr_live);
    hot = (fun () -> [ (17, r.fr_events) ]);
    counters = (fun () -> r.fr_counters);
    slo = (fun () -> r.fr_slo);
  }

let test_snapshot_emitter_roundtrip () =
  let lines = ref [] in
  let snap =
    Snapshot.create ~sim_every:10. ~sink:(line_sink lines) ()
  in
  Alcotest.(check bool) "sim_every exposed" true
    (Snapshot.sim_every snap = Some 10.);
  let r =
    {
      fr_time = 0.;
      fr_events = 5;
      fr_live = [| 1; 0; 2 |];
      fr_counters = [ ("a.ops", 5); ("b.idle", 0) ];
      fr_slo = (3, 1);
    }
  in
  Snapshot.start snap (fake_source r);
  r.fr_time <- 10.;
  r.fr_events <- 25;
  r.fr_counters <- [ ("a.ops", 25); ("b.idle", 0) ];
  Snapshot.tick snap;
  r.fr_time <- 20.;
  r.fr_events <- 30;
  r.fr_live <- [| 0; 1; 1 |];
  r.fr_counters <- [ ("a.ops", 31); ("b.idle", 0); ("c.new", 2) ];
  Snapshot.tick snap;
  Alcotest.(check int) "two snapshots emitted" 2 (Snapshot.emitted snap);
  let parsed =
    List.rev_map
      (fun line ->
        match Trace.of_json (Jsonx.of_string line) with
        | Ok
            ( t,
              Trace.Snapshot
                {
                  seq;
                  d_events;
                  live;
                  live_by_level;
                  peak_live;
                  hot;
                  counters;
                  _;
                } ) ->
          ( t,
            seq,
            d_events,
            live,
            live_by_level,
            peak_live,
            hot,
            counters )
        | Ok _ -> Alcotest.fail "non-snapshot line in the stream"
        | Error msg -> Alcotest.failf "unparseable snapshot line: %s" msg)
      !lines
  in
  match parsed with
  | [
   (t1, seq1, d1, live1, _, _, hot1, counters1);
   (t2, seq2, d2, _, levels2, peak_live2, _, counters2);
  ] ->
    Alcotest.check approx "first tick time" 10. t1;
    Alcotest.check approx "second tick time" 20. t2;
    Alcotest.(check int) "seq 0" 0 seq1;
    Alcotest.(check int) "seq 1" 1 seq2;
    Alcotest.(check int) "d_events against start baseline" 20 d1;
    Alcotest.(check int) "d_events between ticks" 5 d2;
    Alcotest.(check int) "live sums levels" 3 live1;
    Alcotest.(check (list int)) "levels verbatim" [ 0; 1; 1 ] levels2;
    Alcotest.(check int) "peak live survives the drop" 3 peak_live2;
    Alcotest.(check (list (pair string int)))
      "counter deltas, zero-suppressed"
      [ ("a.ops", 20) ] counters1;
    Alcotest.(check (list (pair string int)))
      "new names and fresh deltas appear"
      [ ("a.ops", 6); ("c.new", 2) ]
      counters2;
    Alcotest.(check bool) "hot links pass through" true (hot1 = [ (17, 25) ])
  | l -> Alcotest.failf "expected 2 parsed snapshots, got %d" (List.length l)

let test_snapshot_create_validates () =
  let bad f = match f () with exception Invalid_argument _ -> true | _ -> false in
  Alcotest.(check bool) "sim_every <= 0 rejected" true
    (bad (fun () -> Snapshot.create ~sim_every:0. ~sink:Trace.null_sink ()));
  Alcotest.(check bool) "wall_every <= 0 rejected" true
    (bad (fun () -> Snapshot.create ~wall_every:(-1.) ~sink:Trace.null_sink ()))

let test_snapshot_tick_before_start () =
  let lines = ref [] in
  let snap =
    Snapshot.create ~sim_every:1. ~sink:(line_sink lines) ()
  in
  Snapshot.tick snap;
  Snapshot.wall_tick snap;
  Alcotest.(check int) "no source, no output" 0 (List.length !lines)

(* --- Wall heartbeats --- *)

let heartbeat_lines lines : Trace.heartbeat list =
  List.rev_map
    (fun line ->
      match Trace.of_json (Jsonx.of_string line) with
      | Ok (_, Trace.Heartbeat h) -> h
      | Ok (_, ev) -> Alcotest.failf "non-heartbeat line: %s" (Trace.kind ev)
      | Error msg -> Alcotest.failf "unparseable heartbeat line: %s" msg)
    lines

let test_wall_heartbeat_cadence () =
  let lines = ref [] in
  let snap =
    Snapshot.create ~wall_every:0.001 ~sink:(line_sink lines) ()
  in
  Alcotest.(check bool) "wall_every exposed" true
    (Snapshot.wall_every snap = Some 0.001);
  let r =
    {
      fr_time = 1.;
      fr_events = 10;
      fr_live = [| 1 |];
      fr_counters = [];
      fr_slo = (0, 0);
    }
  in
  Snapshot.start snap (fake_source r);
  r.fr_events <- 40;
  Snapshot.wall_tick snap;
  r.fr_events <- 45;
  Snapshot.wall_tick snap;
  Snapshot.wall_tick snap;
  match heartbeat_lines !lines with
  | [ h0; h1; h2 ] ->
    Alcotest.(check (list int)) "seq increments from 0" [ 0; 1; 2 ]
      [ h0.seq; h1.seq; h2.seq ];
    (* The monotonic clock can never run backwards, so the cumulative
       wall_s series is non-negative and non-decreasing. *)
    Alcotest.(check bool) "wall_s non-negative" true (h0.wall_s >= 0.);
    Alcotest.(check bool) "wall_s non-decreasing" true
      (h0.wall_s <= h1.wall_s && h1.wall_s <= h2.wall_s);
    (* Event deltas are against the previous *wall* tick. *)
    Alcotest.(check (list int)) "d_events per wall interval" [ 30; 5; 0 ]
      [ h0.d_events; h1.d_events; h2.d_events ];
    List.iter
      (fun (h : Trace.heartbeat) ->
        Alcotest.(check bool) "ops_per_s non-negative" true (h.ops_per_s >= 0.))
      [ h0; h1; h2 ]
  | l -> Alcotest.failf "expected 3 heartbeats, got %d" (List.length l)

let test_wall_heartbeat_gc_sanity () =
  let lines = ref [] in
  let snap =
    Snapshot.create ~wall_every:0.001 ~sink:(line_sink lines) ()
  in
  let r =
    {
      fr_time = 0.;
      fr_events = 0;
      fr_live = [||];
      fr_counters = [];
      fr_slo = (0, 0);
    }
  in
  Snapshot.start snap (fake_source r);
  (* Allocate deliberately between ticks so the minor-words delta is
     visibly positive, not merely non-negative.  On OCaml 5,
     [Gc.quick_stat] folds allocation into [minor_words] only at minor
     collections, so force one before reading. *)
  let junk = ref [] in
  for i = 1 to 10_000 do
    junk := (i, float_of_int i) :: !junk
  done;
  ignore (List.length !junk);
  Gc.minor ();
  Snapshot.wall_tick snap;
  Snapshot.wall_tick snap;
  match heartbeat_lines !lines with
  | [ h0; h1 ] ->
    Alcotest.(check bool) "allocation shows up in the first delta" true
      (h0.minor_words > 0.);
    (* GC deltas are between consecutive ticks of monotone cumulative
       counters: never negative, on any tick. *)
    List.iter
      (fun (h : Trace.heartbeat) ->
        Alcotest.(check bool) "minor delta >= 0" true (h.minor_words >= 0.);
        Alcotest.(check bool) "major delta >= 0" true (h.major_words >= 0.);
        Alcotest.(check bool) "heap_words positive" true (h.heap_words > 0))
      [ h0; h1 ]
  | l -> Alcotest.failf "expected 2 heartbeats, got %d" (List.length l)

let test_wall_heartbeat_interleaves_with_snapshots () =
  (* Event-time snapshots and wall heartbeats share one emitter but keep
     independent sequence numbers and independent event-delta baselines:
     a wall tick must not consume the event-time delta, and vice versa. *)
  let lines = ref [] in
  let snap =
    Snapshot.create ~sim_every:10. ~wall_every:0.001
      ~sink:(line_sink lines)
      ()
  in
  let r =
    {
      fr_time = 0.;
      fr_events = 0;
      fr_live = [| 2 |];
      fr_counters = [];
      fr_slo = (0, 0);
    }
  in
  Snapshot.start snap (fake_source r);
  r.fr_time <- 10.;
  r.fr_events <- 100;
  Snapshot.wall_tick snap;
  Snapshot.tick snap;
  r.fr_time <- 20.;
  r.fr_events <- 150;
  Snapshot.tick snap;
  Snapshot.wall_tick snap;
  Alcotest.(check int) "four lines emitted" 4 (Snapshot.emitted snap);
  let parsed =
    List.rev_map
      (fun line ->
        match Trace.of_json (Jsonx.of_string line) with
        | Ok (_, Trace.Heartbeat { seq; d_events; _ }) -> ("hb", seq, d_events)
        | Ok (_, Trace.Snapshot { seq; d_events; _ }) -> ("snap", seq, d_events)
        | Ok (_, ev) -> Alcotest.failf "unexpected line: %s" (Trace.kind ev)
        | Error msg -> Alcotest.failf "unparseable line: %s" msg)
      !lines
  in
  (* Wall deltas span wall ticks; snapshot deltas span snapshots; the
     two streams keep independent sequence numbers. *)
  Alcotest.(check (list (triple string int int)))
    "independent seq and delta baselines"
    [ ("hb", 0, 100); ("snap", 0, 100); ("snap", 1, 50); ("hb", 1, 50) ]
    parsed

(* --- Monotonic clock (regression: timing now immune to wall steps) --- *)

let test_clock_monotone () =
  let prev = ref (Clock.now ()) in
  for _ = 1 to 10_000 do
    let t = Clock.now () in
    if t < !prev then
      Alcotest.failf "Clock.now ran backwards: %.9f after %.9f" t !prev;
    prev := t
  done;
  let t0 = Clock.now () in
  for _ = 1 to 1_000 do
    if Clock.elapsed_since t0 < 0. then
      Alcotest.fail "Clock.elapsed_since returned a negative duration"
  done;
  Alcotest.(check bool) "now_ns non-negative" true (Clock.now_ns () >= 0L)

let test_observations_never_negative () =
  (* The bug this guards against: durations measured with
     [Unix.gettimeofday] go negative when NTP steps the wall clock
     backwards mid-measurement.  Timers and spans now read the
     monotonic clock, so every recorded duration is >= 0 by
     construction — [Metrics.observe] would raise on a negative
     observation, and the span records must agree. *)
  let reg = Metrics.create () in
  let tm = Metrics.timer reg "clock.regression" in
  for _ = 1 to 1_000 do
    Metrics.time tm (fun () -> ignore (Sys.opaque_identity (ref 0)))
  done;
  Alcotest.(check int) "all observations recorded" 1_000 (Metrics.timer_count tm);
  Alcotest.(check bool) "q=0 (minimum bucket) non-negative" true
    (Metrics.timer_quantile tm 0. >= 0.);
  Alcotest.(check bool) "total non-negative" true (Metrics.timer_total tm >= 0.);
  let sp = Span.create () in
  for _ = 1 to 1_000 do
    Span.wrap sp "tick" (fun () -> ignore (Sys.opaque_identity (ref 0)))
  done;
  List.iter
    (fun r ->
      if r.Span.total_s < 0. || r.Span.self_s < 0. then
        Alcotest.failf "negative span duration: total=%.9g self=%.9g"
          r.Span.total_s r.Span.self_s)
    (Span.records sp)

let test_clock_elapsed_future_clamped () =
  (* An origin "in the future" (only possible on the realtime fallback
     path) must clamp to zero, never go negative. *)
  Alcotest.check approx "future origin clamps to zero" 0.
    (Clock.elapsed_since (Clock.now () +. 60.))

let test_clock_ns_agrees_with_now () =
  let a = Clock.now () in
  let ns = Clock.now_ns () in
  let b = Clock.now () in
  let ns_s = Int64.to_float ns /. 1e9 in
  Alcotest.(check bool) "now_ns shares now's origin" true
    (a -. 1e-6 <= ns_s && ns_s <= b +. 1e-6)

let test_clock_wall_agrees_across_domains () =
  (* [fork]ed worker contexts carry independent trace clocks, but the
     calendar label must come from one shared epoch source in every
     domain. *)
  let w0 = Clock.wall_s () in
  let w1 = Domain.join (Domain.spawn (fun () -> Clock.wall_s ())) in
  Alcotest.(check bool) "epoch-anchored" true (w0 > 1.6e9);
  Alcotest.(check bool) "same source across domains" true
    (Float.abs (w1 -. w0) < 60.)

(* --- Request tracing (Reqtrace) --- *)

let stage_list seconds = List.map2 (fun st s -> (st, s)) Reqtrace.all_stages seconds

let test_reqtrace_observe_records () =
  let events = ref [] in
  let sink =
    { Trace.emit = (fun t ev -> events := (t, ev) :: !events);
      close = (fun () -> ()) }
  in
  let obs =
    Obs.create ~metrics:(Metrics.create ()) ~trace:(Trace.create sink) ()
  in
  let exemplars = ref [] in
  let rt =
    Reqtrace.create ~slo:0.5 ~on_exemplar:(fun e -> exemplars := e :: !exemplars)
      obs
  in
  Reqtrace.observe rt ~rid:7 ~verb:"admit" ~ok:true
    ~stages:(stage_list [ 0.01; 0.02; 0.03; 0.04; 0.05 ])
    ~total_s:0.15;
  Reqtrace.observe rt ~rid:8 ~verb:"chqos" ~ok:false
    ~stages:(stage_list [ 0.2; 0.1; 0.3; 0.2; 0.2 ])
    ~total_s:1.0;
  Alcotest.(check (pair int int)) "slo counts" (1, 1) (Reqtrace.slo_counts rt);
  (match !exemplars with
  | [ e ] ->
    Alcotest.(check int) "exemplar rid" 8 e.Reqtrace.ex_rid;
    Alcotest.check approx "exemplar total" 1.0 e.Reqtrace.ex_total_s;
    Alcotest.(check int) "exemplar carries all stages" 5
      (List.length e.Reqtrace.ex_stages)
  | l -> Alcotest.failf "expected 1 exemplar, got %d" (List.length l));
  let reg = Obs.metrics obs in
  List.iter
    (fun st ->
      Alcotest.(check int)
        (Reqtrace.timer_name st ^ " count")
        2
        (Metrics.timer_count (Metrics.timer reg (Reqtrace.timer_name st))))
    Reqtrace.all_stages;
  Alcotest.(check int) "req.total count" 2
    (Metrics.timer_count (Metrics.timer reg "req.total"));
  (* The Req_begin / Req_stage* / Req_end trio, emitted atomically per
     completion. *)
  let evs = List.rev_map snd !events in
  Alcotest.(check int) "2 * (begin + 5 stages + end)" 14 (List.length evs);
  (match evs with
  | Trace.Req_begin { rid = 7; verb = "admit" } :: rest ->
    let rec split k l =
      if k = 0 then ([], l)
      else
        match l with
        | x :: tl ->
          let a, b = split (k - 1) tl in
          (x :: a, b)
        | [] -> Alcotest.fail "trio truncated"
    in
    let stages7, rest = split 5 rest in
    List.iter
      (function
        | Trace.Req_stage { rid = 7; seconds; _ } ->
          if seconds < 0. then Alcotest.fail "negative stage duration"
        | _ -> Alcotest.fail "foreign event inside request 7's trio")
      stages7;
    (match rest with
    | Trace.Req_end { rid = 7; ok = true; total_s; _ } :: _ ->
      Alcotest.check approx "total is the stage sum" 0.15 total_s
    | _ -> Alcotest.fail "request 7 trio not closed by its Req_end")
  | _ -> Alcotest.fail "stream does not start with request 7's Req_begin");
  (* Every emitted event survives the JSONL codec. *)
  List.iter
    (fun ev ->
      match Trace.of_json (Trace.to_json ~time:1. ev) with
      | Ok (_, ev') ->
        if ev' <> ev then Alcotest.fail "request event changed by roundtrip"
      | Error msg -> Alcotest.failf "request event unparseable: %s" msg)
    evs

let test_reqtrace_slo_validation () =
  let obs = Obs.create ~metrics:(Metrics.create ()) () in
  Alcotest.(check bool) "slo <= 0 rejected" true
    (match Reqtrace.create ~slo:0. obs with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let rt = Reqtrace.create obs in
  Reqtrace.observe rt ~rid:1 ~verb:"ping" ~ok:true
    ~stages:(stage_list [ 0.; 0.; 0.; 0.; 0. ])
    ~total_s:0.;
  Alcotest.(check (pair int int)) "no slo, no counting" (0, 0)
    (Reqtrace.slo_counts rt)

let test_reqtrace_merges_exactly_across_forks () =
  (* The acceptance bar for --jobs N: per-stage timers recorded in
     worker forks merge back into the parent with exact counts and the
     exact same float totals as summing the forks in join order. *)
  let obs = Obs.create ~metrics:(Metrics.create ()) () in
  let per_fork = 25 and forks_n = 4 in
  let forks =
    Array.init forks_n (fun f ->
        Domain.spawn (fun () ->
            let fork = Obs.fork obs in
            let rt = Reqtrace.create fork in
            for i = 1 to per_fork do
              let s = float_of_int ((f * per_fork) + i) *. 1e-4 in
              Reqtrace.observe rt ~rid:i ~verb:"admit" ~ok:true
                ~stages:(stage_list [ s; s; s; s; s ])
                ~total_s:(5. *. s)
            done;
            fork))
  in
  let joined = Array.map Domain.join forks in
  let expected_total name =
    Array.fold_left
      (fun acc fork ->
        acc +. Metrics.timer_total (Metrics.timer (Obs.metrics fork) name))
      0. joined
  in
  let names = List.map Reqtrace.timer_name Reqtrace.all_stages @ [ "req.total" ] in
  let expected = List.map (fun n -> (n, expected_total n)) names in
  Array.iter (fun fork -> Obs.absorb ~into:obs fork) joined;
  List.iter
    (fun (name, exp_total) ->
      let tm = Metrics.timer (Obs.metrics obs) name in
      Alcotest.(check int) (name ^ " count merges exactly")
        (forks_n * per_fork)
        (Metrics.timer_count tm);
      (* Totals are float sums: merge order may reassociate the last
         ulp, but nothing is lost or duplicated. *)
      Alcotest.(check (float 1e-9)) (name ^ " total merges") exp_total
        (Metrics.timer_total tm))
    expected

let test_snapshot_slo_fields () =
  let lines = ref [] in
  let snap =
    Snapshot.create ~sim_every:10. ~sink:(line_sink lines) ()
  in
  let r =
    {
      fr_time = 0.;
      fr_events = 0;
      fr_live = [| 0 |];
      fr_counters = [];
      fr_slo = (3, 1);
    }
  in
  Snapshot.start snap (fake_source r);
  r.fr_time <- 10.;
  r.fr_slo <- (13, 2);
  Snapshot.tick snap;
  r.fr_time <- 20.;
  r.fr_slo <- (13, 12);
  Snapshot.tick snap;
  let parsed =
    List.rev_map
      (fun line ->
        match Trace.of_json (Jsonx.of_string line) with
        | Ok (_, Trace.Snapshot { slo_good; slo_bad; slo_burn; _ }) ->
          (slo_good, slo_bad, slo_burn)
        | Ok _ -> Alcotest.fail "non-snapshot line"
        | Error msg -> Alcotest.failf "unparseable line: %s" msg)
      !lines
  in
  match parsed with
  | [ (g1, b1, burn1); (g2, b2, burn2) ] ->
    Alcotest.(check (pair int int)) "cumulative after tick 1" (13, 2) (g1, b1);
    (* Burn rate is the bad fraction of *this beat's* delta: 10 good +
       1 bad since start. *)
    Alcotest.check approx "burn of beat 1" (1. /. 11.) burn1;
    Alcotest.(check (pair int int)) "cumulative after tick 2" (13, 12) (g2, b2);
    Alcotest.check approx "burn of beat 2 (all bad)" 1.0 burn2
  | l -> Alcotest.failf "expected 2 snapshots, got %d" (List.length l)

(* --- Timer histogram edge cases --- *)

let test_quantile_empty () =
  let tm = Metrics.timer (Metrics.create ()) "never" in
  List.iter
    (fun q -> Alcotest.check approx (Printf.sprintf "q=%g of no spans is 0" q) 0.
        (Metrics.timer_quantile tm q))
    [ 0.; 0.5; 1. ]

let test_quantile_bounds_q () =
  let tm = Metrics.timer (Metrics.create ()) "t" in
  Metrics.observe tm 0.001;
  let rejected q =
    match Metrics.timer_quantile tm q with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "q < 0 rejected" true (rejected (-0.1));
  Alcotest.(check bool) "q > 1 rejected" true (rejected 1.1);
  Alcotest.(check bool) "q = 0 and q = 1 accepted" false (rejected 0. || rejected 1.)

(* A timer holding only [spans]. *)
let timer_of spans =
  let tm = Metrics.timer (Metrics.create ()) "t" in
  List.iter (Metrics.observe tm) spans;
  tm

let test_quantile_extremes () =
  (* Spans in two buckets only: q = 0 and q = 1 answer with the first
     and the last populated bucket. *)
  let tm = timer_of [ 0.001; 0.001; 0.1; 0.1; 0.1 ] in
  Alcotest.check approx "q=0 hits the first populated bucket"
    (Metrics.timer_quantile (timer_of [ 0.001 ]) 0.5)
    (Metrics.timer_quantile tm 0.);
  Alcotest.check approx "q=1 hits the last populated bucket"
    (Metrics.timer_quantile (timer_of [ 0.1 ]) 0.5)
    (Metrics.timer_quantile tm 1.);
  check_rel "first bucket near 1 ms" 0.001 (Metrics.timer_quantile tm 0.);
  check_rel "last bucket near 100 ms" 0.1 (Metrics.timer_quantile tm 1.)

let test_quantile_outlier_buckets () =
  (* Spans outside 1 ns .. 1000 s clamp into the edge buckets; the
     running maximum stays exact. *)
  let tm = timer_of [ 1e-12; 1e6 ] in
  let edges = timer_of [ 1e-9; 999. ] in
  Alcotest.(check int) "both counted" 2 (Metrics.timer_count tm);
  Alcotest.check approx "low outlier in bucket 0"
    (Metrics.timer_quantile edges 0.) (Metrics.timer_quantile tm 0.);
  Alcotest.check approx "high outlier in the last bucket"
    (Metrics.timer_quantile edges 1.) (Metrics.timer_quantile tm 1.);
  Alcotest.(check bool) "bucket 0 sits at 1 ns" true
    (Metrics.timer_quantile tm 0. < 1.2e-9);
  Alcotest.(check bool) "last bucket sits below 1000 s" true
    (let q = Metrics.timer_quantile tm 1. in q > 800. && q < 1000.);
  Alcotest.check approx "max is exact" 1e6 (Metrics.timer_max tm)

let () =
  Alcotest.run "obs"
    [
      ( "jsonx",
        [
          Alcotest.test_case "roundtrip" `Quick test_jsonx_roundtrip;
          Alcotest.test_case "special floats" `Quick test_jsonx_special_floats;
          Alcotest.test_case "rejects garbage" `Quick test_jsonx_rejects_garbage;
          Alcotest.test_case "bad unicode escape" `Quick
            test_jsonx_bad_unicode_escape;
          Alcotest.test_case "field reader" `Quick test_jsonx_field;
          Alcotest.test_case "to_list" `Quick test_jsonx_to_list;
          Alcotest.test_case "fold_lines good stream" `Quick test_fold_lines_good;
          Alcotest.test_case "fold_lines truncated" `Quick test_fold_lines_truncated;
          Alcotest.test_case "fold_lines garbage line" `Quick
            test_fold_lines_garbage_line;
          Alcotest.test_case "fold_lines empty" `Quick test_fold_lines_empty_stream;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters and snapshot" `Quick
            test_metrics_counters_and_snapshot;
          Alcotest.test_case "disabled is no-op" `Quick test_metrics_disabled_is_noop;
          Alcotest.test_case "timer percentiles" `Quick test_timer_percentiles;
          Alcotest.test_case "percentiles in snapshot" `Quick
            test_timer_percentiles_in_snapshot;
          Alcotest.test_case "percentiles merge exactly" `Quick
            test_timer_percentiles_merge;
        ] );
      ( "trace",
        [
          Alcotest.test_case "jsonl roundtrip" `Quick test_jsonl_sink_roundtrip;
          Alcotest.test_case "disabled tracer" `Quick
            test_disabled_tracer_emits_nothing;
          Alcotest.test_case "serialisation is total" `Quick
            test_trace_serialisation_total;
          Alcotest.test_case "of_json rejects bad docs" `Quick
            test_trace_of_json_rejects;
          Alcotest.test_case "close is idempotent" `Quick
            test_tracer_close_idempotent;
        ] );
      ( "span",
        [
          Alcotest.test_case "nesting and self time" `Quick
            test_span_nesting_and_self_time;
          Alcotest.test_case "exit order enforced" `Quick
            test_span_exit_order_enforced;
          Alcotest.test_case "wrap protects on raise" `Quick
            test_span_wrap_protects_on_raise;
          Alcotest.test_case "record cap" `Quick test_span_record_cap;
          Alcotest.test_case "merge" `Quick test_span_merge;
        ] );
      ( "obs",
        [
          Alcotest.test_case "span and clock" `Quick test_obs_span_and_clock;
          Alcotest.test_case "null ignores clock" `Quick test_obs_null_ignores_clock;
          Alcotest.test_case "profiled span events" `Quick
            test_obs_profiled_span_emits_span_events;
          Alcotest.test_case "fork/absorb spans" `Quick test_obs_fork_absorb_spans;
          Alcotest.test_case "trace flushed on raise" `Quick
            test_obs_trace_flushed_on_raise;
        ] );
      ( "hwm",
        [
          Alcotest.test_case "basics and snapshot" `Quick test_hwm_basics;
          Alcotest.test_case "hwm merge is order-independent" `Quick
            test_hwm_merge_order_independent;
          Alcotest.test_case "counter_values sorted / disabled" `Quick
            test_counter_values_sorted_and_disabled;
        ] );
      ( "flight",
        [
          Alcotest.test_case "ring wraparound" `Quick test_flight_wraparound;
          Alcotest.test_case "dump on raise" `Quick test_flight_dump_on_raise;
          Alcotest.test_case "dump cancelled on success" `Quick
            test_flight_dump_cancelled_on_success;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "emitter JSONL roundtrip" `Quick
            test_snapshot_emitter_roundtrip;
          Alcotest.test_case "create validates intervals" `Quick
            test_snapshot_create_validates;
          Alcotest.test_case "tick before start" `Quick
            test_snapshot_tick_before_start;
          Alcotest.test_case "wall heartbeat cadence" `Quick
            test_wall_heartbeat_cadence;
          Alcotest.test_case "wall heartbeat GC sanity" `Quick
            test_wall_heartbeat_gc_sanity;
          Alcotest.test_case "wall heartbeats interleave with snapshots" `Quick
            test_wall_heartbeat_interleaves_with_snapshots;
          Alcotest.test_case "slo fields and burn rate" `Quick
            test_snapshot_slo_fields;
        ] );
      ( "clock",
        [
          Alcotest.test_case "monotone" `Quick test_clock_monotone;
          Alcotest.test_case "observations never negative" `Quick
            test_observations_never_negative;
          Alcotest.test_case "elapsed_since clamps future origins" `Quick
            test_clock_elapsed_future_clamped;
          Alcotest.test_case "now_ns agrees with now" `Quick
            test_clock_ns_agrees_with_now;
          Alcotest.test_case "wall_s agrees across domains" `Quick
            test_clock_wall_agrees_across_domains;
        ] );
      ( "reqtrace",
        [
          Alcotest.test_case "observe feeds timers, sketch, slo, trio" `Quick
            test_reqtrace_observe_records;
          Alcotest.test_case "slo validation and off-by-default" `Quick
            test_reqtrace_slo_validation;
          Alcotest.test_case "stage timers merge exactly across forks" `Quick
            test_reqtrace_merges_exactly_across_forks;
        ] );
      ( "stats-edges",
        [
          Alcotest.test_case "quantile empty" `Quick test_quantile_empty;
          Alcotest.test_case "quantile q bounds" `Quick test_quantile_bounds_q;
          Alcotest.test_case "quantile extremes" `Quick test_quantile_extremes;
          Alcotest.test_case "quantile outliers" `Quick test_quantile_outlier_buckets;
        ] );
    ]
