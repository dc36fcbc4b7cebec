(* Smoke test of the benchmark binary against BENCHMARK.json.

     smoke.exe RUN_EXE BENCHMARK_JSON

   Runs every workload of the file shrunk (--smoke), untraced and
   traced, and checks that each run succeeds, prints every metric the
   file names for that mode with the file's unit — on its own line and
   in the closing JSON — and no metric the file does not name, and that
   the traced run reproduces the untraced run's output digest.  Also
   checks that a usage error exits 2 without a result. *)

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      prerr_endline ("smoke: " ^ msg))
    fmt

let field key doc =
  match Jsonx.member key doc with
  | Some v -> v
  | None -> failwith ("BENCHMARK.json: missing " ^ key)

let list = function Jsonx.List l -> l | _ -> failwith "expected a JSON list"
let str = function Jsonx.String s -> s | _ -> failwith "expected a JSON string"

(* name -> unit for one metric list of the file. *)
let metric_units doc key =
  List.map (fun m -> (str (field "name" m), str (field "unit" m))) (list (field key doc))

(* stdout and the exit status; stderr is shown only when the run did
   not exit as the caller expects. *)
let run_capture ?(expect = 0) prog args =
  let ((out_ic, _, err_ic) as chans) =
    Unix.open_process_args_full prog (Array.of_list (prog :: args)) (Unix.environment ())
  in
  let out = In_channel.input_all out_ic in
  let err = In_channel.input_all err_ic in
  let status = Unix.close_process_full chans in
  if status <> Unix.WEXITED expect then prerr_string err;
  (out, status)

let lines s = List.filter (fun l -> l <> "") (String.split_on_char '\n' s)

let check_run prog workload ~trace expected =
  let out, status =
    run_capture prog
      [
        "--workload"; workload; "--seed"; "3"; "--seconds"; "0.2"; "--trace";
        string_of_int trace; "--smoke"; "--out"; "smoke-out";
      ]
  in
  let tag = Printf.sprintf "%s --trace %d" workload trace in
  (match status with
  | Unix.WEXITED 0 -> ()
  | _ -> fail "%s: did not exit 0" tag);
  let all = lines out in
  match List.rev all with
  | [] ->
    fail "%s: no output" tag;
    []
  | last :: _ ->
    let doc = Jsonx.of_string last in
    if Jsonx.member "correct" doc <> Some (Jsonx.Bool true) then fail "%s: not correct" tag;
    (match Option.bind (Jsonx.member "attempted" doc) Jsonx.to_int with
    | Some n when n >= 1 -> ()
    | _ -> fail "%s: attempted < 1" tag);
    if Option.bind (Jsonx.member "failed" doc) Jsonx.to_int <> Some 0 then
      fail "%s: failed operations" tag;
    let printed =
      match Jsonx.member "metrics" doc with
      | Some (Jsonx.Obj fields) -> fields
      | _ ->
        fail "%s: no metrics object" tag;
        []
    in
    List.iter
      (fun (name, unit_) ->
        (match List.assoc_opt name printed with
        | None -> fail "%s: metric %s missing from the result" tag name
        | Some m ->
          if Option.map str (Jsonx.member "unit" m) <> Some unit_ then
            fail "%s: metric %s not in %s" tag name unit_;
          if Option.bind (Jsonx.member "value" m) Jsonx.to_float = None then
            fail "%s: metric %s has no value" tag name);
        let prefix = Printf.sprintf "%s %s " workload name in
        let line =
          List.find_opt (fun l -> String.starts_with ~prefix l) all
        in
        match line with
        | Some l when List.mem unit_ (String.split_on_char ' ' l) -> ()
        | _ -> fail "%s: no '%s<value> %s' line" tag prefix unit_)
      expected;
    List.iter
      (fun (name, _) ->
        if not (List.mem_assoc name expected) then
          fail "%s: metric %s is not named in BENCHMARK.json" tag name)
      printed;
    List.filter
      (fun l -> String.starts_with ~prefix:(workload ^ " digest ") l)
      all

let () =
  let prog, file =
    match Sys.argv with
    | [| _; prog; file |] -> (prog, file)
    | _ ->
      prerr_endline "usage: smoke.exe RUN_EXE BENCHMARK_JSON";
      exit 2
  in
  let prog = if Filename.is_relative prog then Filename.concat (Sys.getcwd ()) prog else prog in
  let doc = Jsonx.of_string (In_channel.with_open_text file In_channel.input_all) in
  let e2e = metric_units doc "end_to_end" and layers = metric_units doc "per_layer" in
  List.iter
    (fun w ->
      let workload = str (field "name" w) in
      let plain = check_run prog workload ~trace:0 e2e in
      let traced = check_run prog workload ~trace:1 layers in
      if plain = [] then fail "%s: no digest" workload;
      if plain <> traced then fail "%s: traced digest differs from untraced" workload)
    (list (field "workloads" doc));
  (match run_capture ~expect:2 prog [ "--workload"; "nonesuch" ] with
  | out, Unix.WEXITED 2 when lines out = [] -> ()
  | _ -> fail "a usage error must exit 2 and print nothing");
  if !failures > 0 then exit 1
