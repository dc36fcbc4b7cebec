(* Typed-AST linter for the drqos tree.

     drqos_lint _build/default/lib _build/default/bin --baseline lint.baseline

   Walks the .cmt files dune already produced (`dune build @check`
   writes one per module, executables' mains included; a root without
   any is an input error), runs the project rule set
   (R1 float equality, R2 closed-variant catch-alls, R3 partial stdlib
   functions, R4 swallowed exceptions, R5 stray stdout prints, R7
   cross-domain races, R8 event-loop blocking, R9 wall-clock taint) and
   exits 0 only when every finding is covered by a justified baseline
   entry and no baseline entry is stale.

   Exit codes follow the repo convention: 0 clean, 1 findings (or stale
   suppressions), 2 usage/input error. *)

let usage oc =
  output_string oc
    "usage: drqos_lint [OPTIONS] ROOT...\n\
     \n\
     Lint the typed ASTs (.cmt files) under each ROOT (a directory, e.g.\n\
     _build/default/lib, or a single .cmt file).\n\
     \n\
     options:\n\
     \  --rules R1,R2,...      enable only these rules (default: all)\n\
     \  --lib-prefix PREFIX    source-path prefix treated as library code\n\
     \                         for R3/R5 (default: lib/)\n\
     \  --r8-roots F1,F2,...   event-loop dispatch entry points for R8,\n\
     \                         as Module.name (default:\n\
     \                         Serve_server.handle_line,Lintfix_evloop.dispatch)\n\
     \  --baseline FILE        suppress findings listed in FILE; stale\n\
     \                         entries fail the gate\n\
     \  --write-baseline FILE  write the current findings to FILE as\n\
     \                         baseline entries needing justification\n\
     \  --format text|json|github\n\
     \                         report format (default: text); github\n\
     \                         emits ::error/::warning annotations\n\
     \  --list-rules           print the rule catalogue and exit\n\
     \  --help                 this message\n"

let die_usage msg =
  prerr_endline ("drqos_lint: " ^ msg);
  usage stderr;
  exit 2

let csv s = List.map String.trim (String.split_on_char ',' s)

let list_rules () =
  List.iter
    (fun r ->
      Printf.printf "%s (%s): %s\n" (Lint.rule_name r)
        (Lint.severity_name (Lint.severity r))
        (Lint.describe r))
    Lint.all_rules;
  exit 0

let () =
  let rules = ref Lint.all_rules in
  let lib_prefix = ref "lib/" in
  let r8_roots = ref Lint_flow.default_r8_roots in
  let baseline = ref None in
  let write_baseline = ref None in
  let format = ref `Text in
  let set r v =
    r := v;
    Ok ()
  in
  let parse_rules s =
    match List.find_opt (fun n -> Option.is_none (Lint.rule_of_name n)) (csv s) with
    | Some name -> Error (Printf.sprintf "unknown rule id %S" name)
    | None -> set rules (List.filter_map Lint.rule_of_name (csv s))
  in
  let parse_format = function
    | "text" -> set format `Text
    | "json" -> set format `Json
    | "github" -> set format `Github
    | other ->
      Error
        (Printf.sprintf "unknown format %S (expected text, json or github)" other)
  in
  let specs =
    [
      ("--help", Cliopt.Unit (fun () -> usage stdout; exit 0));
      ("--list-rules", Cliopt.Unit list_rules);
      ("--rules", Cliopt.Value parse_rules);
      ("--lib-prefix", Cliopt.Value (set lib_prefix));
      ("--r8-roots", Cliopt.Value (fun s -> set r8_roots (csv s)));
      ("--baseline", Cliopt.Value (fun f -> set baseline (Some f)));
      ("--write-baseline", Cliopt.Value (fun f -> set write_baseline (Some f)));
      ("--format", Cliopt.Value parse_format);
    ]
  in
  let roots =
    match Cliopt.parse ~specs (List.tl (Array.to_list Sys.argv)) with
    | Error msg -> die_usage msg
    | Ok args ->
      List.iter
        (fun arg ->
          if String.starts_with ~prefix:"-" arg then
            die_usage (Printf.sprintf "unknown option %S" arg))
        args;
      args
  in
  if roots = [] then die_usage "no roots given";
  let config =
    {
      Lint_driver.roots;
      rules = !rules;
      lib_prefix = !lib_prefix;
      r8_roots = !r8_roots;
    }
  in
  match Lint_driver.run config with
  | Error msg ->
    prerr_endline ("drqos_lint: " ^ msg);
    exit 2
  | Ok findings -> (
    match !write_baseline with
    | Some path ->
      let oc = open_out path in
      output_string oc
        "# drqos_lint baseline: <rule> <file>:<line> <justification>\n\
         # Replace every TODO with a real justification before committing.\n";
      List.iter
        (fun f ->
          output_string oc
            (Lint_baseline.entry_to_string
               (Lint_baseline.of_finding ~reason:"TODO: justify" f));
          output_char oc '\n')
        findings;
      close_out oc;
      Printf.printf "wrote %d baseline entries to %s\n" (List.length findings)
        path
    | None -> (
      let entries =
        match !baseline with
        | None -> []
        | Some path -> (
          match Lint_baseline.load path with
          | Ok entries -> entries
          | Error msg ->
            prerr_endline ("drqos_lint: baseline: " ^ msg);
            exit 2)
      in
      let { Lint_baseline.kept; suppressed; stale } =
        Lint_baseline.apply entries findings
      in
      let clean = kept = [] && stale = [] in
      (match !format with
      | `Json ->
        print_endline
          (Jsonx.to_string
             (Lint_driver.report_json ~findings:kept ~suppressed ~stale))
      | `Github ->
        List.iter
          (fun f -> print_endline (Lint_driver.github_annotation f))
          kept;
        List.iter
          (fun e ->
            print_endline
              (Printf.sprintf
                 "::error title=stale-baseline::stale baseline entry \
                  (matches no finding): %s"
                 (Lint_baseline.entry_to_string e)))
          stale
      | `Text ->
        List.iter (fun f -> print_endline (Lint.finding_to_string f)) kept;
        List.iter
          (fun e ->
            print_endline
              ("stale baseline entry (matches no finding): "
              ^ Lint_baseline.entry_to_string e))
          stale;
        Printf.printf "%d finding%s (%d suppressed by baseline), %d stale \
                       baseline entr%s\n"
          (List.length kept)
          (if List.length kept = 1 then "" else "s")
          suppressed (List.length stale)
          (if List.length stale = 1 then "y" else "ies"));
      exit (if clean then 0 else 1)))
