(* The repository benchmark: one workload per invocation.

     run.exe --workload NAME --seed N --seconds S --trace 0|1
             [--smoke] [--out DIR]

   It prints every metric as [workload metric value unit n=samples],
   writes the same to DIR/<workload>-seed<N>-trace<T>.json (plus the
   traced run's spans), and ends its standard output with one JSON
   line: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
   the metrics are the end-to-end ones, with --trace 1 the per-layer
   ones.  A digest of the workload's outputs is checked against
   benchmark/golden/<workload>.txt for seed 1; on a mismatch, or a
   failed invariant audit, it prints no result and exits 1.  Usage
   errors exit 2.  See benchmark/README.md. *)

let workloads =
  [
    ("paper_fig2", Paper_fig2.run);
    ("scale_20k", Scale_churn.run);
    ("failover", Failover.run);
    ("serve_mix", Serve_mix.run);
  ]

(* The metric catalogue, with units; BENCHMARK.json names the same
   metrics (the smoke test checks the two agree). *)
let end_to_end = [ ("setup_s", "s"); ("peak_rss_mb", "MB") ]

let p50_p99 prefix suffix unit_ =
  [ (prefix ^ ".p50" ^ suffix, unit_); (prefix ^ ".p99" ^ suffix, unit_) ]

let per_layer =
  [
    ("ops_per_s", "1/s");
    ("op_p50_us", "us");
    ("op_p99_us", "us");
    ("topology.generate_s", "s");
  ]
  @ p50_p99 "routing.primary_us" "" "us"
  @ p50_p99 "routing.backup_us" "" "us"
  @ [ ("routing.admit_share", "ratio") ]
  @ p50_p99 "core.admit_us" "" "us"
  @ p50_p99 "core.terminate_us" "" "us"
  @ [ ("core.load_admit_us", "us") ]
  @ p50_p99 "core.fail_edge_us" "" "us"
  @ p50_p99 "core.fail_redistribute_us" "" "us"
  @ [
      ("core.victims_per_fail", "count");
      ("core.redistribute_s", "s");
      ("core.admit_self_s", "s");
      ("scenario.load_s", "s");
      ("scenario.warmup_s", "s");
      ("scenario.measure_s", "s");
      ("scenario.solve_s", "s");
      ("sim.engine_self_s", "s");
      ("gc.minor_words_per_op", "words");
      ("gc.major_words_per_op", "words");
      ("gc.major_collections", "count");
    ]
  @ List.concat_map
      (fun verb -> p50_p99 ("serve.verb." ^ verb) "_us" "us")
      [ "admit"; "teardown"; "chqos"; "stats"; "ping"; "snapshot" ]
  @ List.concat_map
      (fun stage -> p50_p99 ("serve.req." ^ stage) "_us" "us")
      [ "queue"; "parse"; "service"; "redistribute"; "write"; "total" ]
  @ [
      ("serve.client_residual_p99_us", "us");
      ("loadgen.max_lag_ms", "ms");
      ("loadgen.lag_p50_us", "us");
      ("serve.codec_decode_ns", "ns");
      ("serve.codec_encode_ns", "ns");
    ]
  @ p50_p99 "serve.broker_dispatch_us" "" "us"
  @ [ ("obs.trace_overhead_pct", "%"); ("unattributed_share", "ratio") ]

let usage () =
  prerr_endline
    "usage: run.exe --workload NAME --seed N --seconds S --trace 0|1 [--smoke] \
     [--out DIR]";
  prerr_endline
    ("workloads: " ^ String.concat ", " (List.map fst workloads));
  exit 2

let parse_args argv =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None and smoke = ref false and out_dir = ref "benchmark/out" in
  let int_of r s =
    match int_of_string_opt s with
    | Some v -> r := Some v; Ok ()
    | None -> Error ("not an integer: " ^ s)
  in
  let specs =
    [
      ( "--workload",
        Cliopt.Value
          (fun s ->
            if List.mem_assoc s workloads then (workload := Some s; Ok ())
            else Error ("unknown workload " ^ s)) );
      ("--seed", Cliopt.Value (int_of seed));
      ( "--seconds",
        Cliopt.Value
          (fun s ->
            match float_of_string_opt s with
            | Some v when v > 0. -> seconds := Some v; Ok ()
            | _ -> Error ("--seconds wants a positive number, got " ^ s)) );
      ( "--trace",
        Cliopt.Value
          (function
          | "0" -> trace := Some false; Ok ()
          | "1" -> trace := Some true; Ok ()
          | s -> Error ("--trace wants 0 or 1, got " ^ s)) );
      ("--smoke", Cliopt.Unit (fun () -> smoke := true));
      ("--out", Cliopt.Value (fun s -> out_dir := s; Ok ()));
    ]
  in
  match Cliopt.parse ~specs (List.tl (Array.to_list argv)) with
  | Error msg ->
    prerr_endline ("run.exe: " ^ msg);
    usage ()
  | Ok (_ :: _ as rest) ->
    prerr_endline ("run.exe: unexpected arguments: " ^ String.concat " " rest);
    usage ()
  | Ok [] -> (
    match (!workload, !seed, !seconds, !trace) with
    | Some w, Some seed, Some seconds, Some traced ->
      (w, { Kit.seed; seconds; traced; smoke = !smoke; out_dir = !out_dir })
    | _ ->
      prerr_endline "run.exe: --workload, --seed, --seconds and --trace are required";
      usage ())

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let golden_path name = Filename.concat "benchmark/golden" (name ^ ".txt")

(* Golden files hold [key value] lines; [#] starts a comment. *)
let read_golden path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None
         else
           match String.index_opt line ' ' with
           | Some i ->
             Some
               ( String.sub line 0 i,
                 String.trim (String.sub line i (String.length line - i)) )
           | None -> Some (line, ""))

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("run.exe: " ^ msg); exit 1) fmt

let check_digest name env digest =
  if digest = [] then fail "%s: the window ended before the digest checkpoint" name;
  if env.Kit.seed = 1 && not env.Kit.smoke then begin
    let path = golden_path name in
    if not (Sys.file_exists path) then fail "%s: missing golden file %s" name path;
    let expected = read_golden path in
    if expected <> digest then begin
      prerr_endline ("run.exe: " ^ name ^ ": outputs differ from " ^ path ^ ":");
      List.iter (fun (k, v) -> Printf.eprintf "  expected %s %s\n" k v) expected;
      List.iter (fun (k, v) -> Printf.eprintf "  actual   %s %s\n" k v) digest;
      exit 1
    end
  end

(* Every catalogue metric in order: a workload must measure every
   end-to-end metric; a per-layer metric it does not exercise reads 0
   with n=0. *)
let complete name ~traced (measured : Kit.metric list) =
  let catalogue = if traced then per_layer else end_to_end in
  List.iter
    (fun (m : Kit.metric) ->
      if not (List.mem_assoc m.Kit.name catalogue) then
        fail "%s: metric %s is not in the catalogue" name m.Kit.name)
    measured;
  List.map
    (fun (metric, unit_) ->
      match List.find_opt (fun (m : Kit.metric) -> m.Kit.name = metric) measured with
      | Some m -> (m, unit_)
      | None when traced -> ({ Kit.name = metric; value = 0.; samples = 0 }, unit_)
      | None -> fail "%s: end-to-end metric %s was not measured" name metric)
    catalogue

let () =
  let name, env = parse_args Sys.argv in
  mkdir_p env.Kit.out_dir;
  let outcome =
    match (List.assoc name workloads) env with
    | o -> o
    | exception e -> fail "%s: %s" name (Printexc.to_string e)
  in
  check_digest name env outcome.Kit.digest;
  let metrics = complete name ~traced:env.Kit.traced outcome.Kit.metrics in
  List.iter (fun (k, v) -> Printf.printf "%s digest %s %s\n" name k v) outcome.Kit.digest;
  List.iter
    (fun ((m : Kit.metric), unit_) ->
      Printf.printf "%s %s %.6g %s n=%d\n" name m.Kit.name m.Kit.value unit_ m.Kit.samples)
    metrics;
  let metric_json =
    Jsonx.Obj
      (List.map
         (fun ((m : Kit.metric), unit_) ->
           ( m.Kit.name,
             Jsonx.Obj [ ("value", Jsonx.Float m.Kit.value); ("unit", Jsonx.String unit_) ] ))
         metrics)
  in
  let stem =
    Filename.concat env.Kit.out_dir
      (Printf.sprintf "%s-seed%d-trace%d" name env.Kit.seed
         (if env.Kit.traced then 1 else 0))
  in
  Out_channel.with_open_text (stem ^ ".json") (fun oc ->
      Jsonx.output oc
        (Jsonx.Obj
           [
             ("workload", Jsonx.String name);
             ("seed", Jsonx.Int env.Kit.seed);
             ("seconds", Jsonx.Float env.Kit.seconds);
             ("traced", Jsonx.Bool env.Kit.traced);
             ("smoke", Jsonx.Bool env.Kit.smoke);
             ("attempted", Jsonx.Int outcome.Kit.attempted);
             ("failed", Jsonx.Int outcome.Kit.failed);
             ( "digest",
               Jsonx.Obj (List.map (fun (k, v) -> (k, Jsonx.String v)) outcome.Kit.digest) );
             ( "metrics",
               Jsonx.List
                 (List.map
                    (fun ((m : Kit.metric), unit_) ->
                      Jsonx.Obj
                        [
                          ("name", Jsonx.String m.Kit.name);
                          ("value", Jsonx.Float m.Kit.value);
                          ("unit", Jsonx.String unit_);
                          ("samples", Jsonx.Int m.Kit.samples);
                        ])
                    metrics) );
           ]));
  if env.Kit.traced then
    Out_channel.with_open_text (stem ^ ".spans.json") (fun oc ->
        Jsonx.output oc outcome.Kit.spans);
  print_endline
    (Jsonx.to_string
       (Jsonx.Obj
          [
            ("correct", Jsonx.Bool true);
            ("attempted", Jsonx.Int outcome.Kit.attempted);
            ("failed", Jsonx.Int outcome.Kit.failed);
            ("metrics", metric_json);
          ]))
