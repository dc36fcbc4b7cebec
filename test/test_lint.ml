(* Tests for the typed-AST linter: golden findings per rule over the
   deliberately-bad fixture library (test/lintfix, compiled to .cmt by
   dune like any other library), baseline round-trip with stale
   detection, rule filtering, and JSON report validity via Jsonx.

   The fixture sources carry `(* line N: Rk *)` markers; this golden
   list is the contract between them and the rule engine. *)

let fixture_root = "lintfix/.lint_fixtures.objs/byte"

let config ?(rules = Lint.all_rules) () =
  {
    (Lint_driver.default_config ~roots:[ fixture_root ]) with
    Lint_driver.rules;
    (* Fixtures live under test/, not lib/: widen what counts as
       "library code" for the scoped rules R3/R5. *)
    lib_prefix = "test/";
  }

let run_exn ?rules () =
  match Lint_driver.run (config ?rules ()) with
  | Ok findings -> findings
  | Error msg -> Alcotest.failf "lint driver failed: %s" msg

let key (f : Lint.finding) = (Lint.rule_name f.rule, f.file, f.line)

let golden =
  [
    ("R9", "test/lintfix/lintfix_clock.ml", 6);
    ("R9", "test/lintfix/lintfix_clock.ml", 8);
    ("R9", "test/lintfix/lintfix_clock.ml", 10);
    ("R9", "test/lintfix/lintfix_clock.ml", 12);
    ("R9", "test/lintfix/lintfix_clock.ml", 17);
    ("R9", "test/lintfix/lintfix_clock.ml", 20);
    ("R9", "test/lintfix/lintfix_clock.ml", 22);
    ("R9", "test/lintfix/lintfix_clock.ml", 25);
    ("R8", "test/lintfix/lintfix_evloop.ml", 6);
    ("R8", "test/lintfix/lintfix_evloop.ml", 16);
    ("R7", "test/lintfix/lintfix_race.ml", 8);
    ("R7", "test/lintfix/lintfix_race.ml", 15);
    ("R1", "test/lintfix/lintfix_float.ml", 4);
    ("R1", "test/lintfix/lintfix_float.ml", 6);
    ("R1", "test/lintfix/lintfix_float.ml", 8);
    ("R1", "test/lintfix/lintfix_float.ml", 10);
    ("R2", "test/lintfix/lintfix_match.ml", 6);
    ("R2", "test/lintfix/lintfix_match.ml", 11);
    ("R2", "test/lintfix/lintfix_match.ml", 15);
    ("R3", "test/lintfix/lintfix_partial.ml", 4);
    ("R3", "test/lintfix/lintfix_partial.ml", 6);
    ("R3", "test/lintfix/lintfix_partial.ml", 8);
    ("R3", "test/lintfix/lintfix_partial.ml", 10);
    ("R5", "test/lintfix/lintfix_print.ml", 3);
    ("R5", "test/lintfix/lintfix_print.ml", 5);
    ("R5", "test/lintfix/lintfix_print.ml", 7);
    ("R4", "test/lintfix/lintfix_swallow.ml", 3);
    ("R4", "test/lintfix/lintfix_swallow.ml", 6);
  ]

let golden_sorted =
  List.sort compare golden

(* R7's message text over spawn-site workers is pinned here, as the
   --format json report over test/lintfix gives it. *)
let golden_worker_messages =
  [
    ( ("R7", "test/lintfix/lintfix_race.ml", 8),
      "Sweep.map worker shares top-level mutable Hashtbl.t \
       Lintfix_race_state.hits across domains; route per-domain state \
       through the Obs fork/absorb protocol or an Atomic" );
    ( ("R7", "test/lintfix/lintfix_race.ml", 15),
      "Sweep.map worker calls Lintfix_race_state.record, which reaches \
       top-level mutable state without the fork/absorb merge protocol \
       (Lintfix_race_state.record -> Lintfix_race_state.bump -> \
       Lintfix_race_state.hits); pass the state in, or merge per-domain \
       copies explicitly" );
  ]

let key_t = Alcotest.(triple string string int)

(* --- golden findings --- *)

let test_golden_findings () =
  let findings = run_exn () in
  let got = List.map key findings in
  (* Driver output is sorted by file/line already; normalise both sides
     the same way so the test states set equality with multiplicity. *)
  Alcotest.(check (list key_t))
    "every fixture violation found, nothing else flagged" golden_sorted
    (List.sort compare got);
  let worker_messages =
    List.filter_map
      (fun (f : Lint.finding) ->
        match f.rule with
        | Lint.R7 -> Some (key f, f.message)
        | _ -> None)
      findings
  in
  Alcotest.(check (list (pair key_t string)))
    "R7 messages" golden_worker_messages
    (List.sort compare worker_messages)

let test_severities () =
  List.iter
    (fun f ->
      let expected =
        match f.Lint.rule with
        | Lint.R3 | Lint.R5 -> Lint.Warning
        | _ -> Lint.Error
      in
      Alcotest.(check string)
        (Lint.rule_name f.Lint.rule ^ " severity")
        (Lint.severity_name expected)
        (Lint.severity_name (Lint.severity f.Lint.rule)))
    (run_exn ())

let test_deterministic () =
  let a = run_exn () and b = run_exn () in
  Alcotest.(check bool) "two runs agree exactly" true (a = b)

(* --- rule filtering --- *)

let test_rule_filter () =
  let only r = List.map key (run_exn ~rules:[ r ] ()) in
  let expect r =
    List.filter (fun (name, _, _) -> name = Lint.rule_name r) golden_sorted
  in
  List.iter
    (fun r ->
      Alcotest.(check (list key_t))
        ("--rules " ^ Lint.rule_name r)
        (expect r)
        (List.sort compare (only r)))
    Lint.all_rules

(* --- baseline --- *)

let test_baseline_suppresses_exactly () =
  let findings = run_exn () in
  let entries =
    List.map (Lint_baseline.of_finding ~reason:"fixture violation") findings
  in
  let { Lint_baseline.kept; suppressed; stale } =
    Lint_baseline.apply entries findings
  in
  Alcotest.(check int) "all suppressed" (List.length findings) suppressed;
  Alcotest.(check int) "nothing kept" 0 (List.length kept);
  Alcotest.(check int) "nothing stale" 0 (List.length stale)

let test_baseline_partial_and_stale () =
  let findings = run_exn () in
  let r1_only =
    List.filter (fun (f : Lint.finding) -> f.rule = Lint.R1) findings
  in
  let stale_entry =
    {
      Lint_baseline.b_rule = Lint.R4;
      b_file = "test/lintfix/lintfix_float.ml";
      b_line = 999;
      b_reason = "points at nothing";
    }
  in
  let entries =
    stale_entry
    :: List.map (Lint_baseline.of_finding ~reason:"float fixture") r1_only
  in
  let { Lint_baseline.kept; suppressed; stale } =
    Lint_baseline.apply entries findings
  in
  Alcotest.(check int) "R1 findings suppressed" (List.length r1_only) suppressed;
  Alcotest.(check int) "the rest kept"
    (List.length findings - List.length r1_only)
    (List.length kept);
  Alcotest.(check bool) "no kept finding is R1" true
    (List.for_all (fun (f : Lint.finding) -> f.rule <> Lint.R1) kept);
  Alcotest.(check (list string)) "exactly the unmatched entry is stale"
    [ Lint_baseline.entry_to_string stale_entry ]
    (List.map Lint_baseline.entry_to_string stale)

let test_baseline_file_roundtrip () =
  let findings = run_exn () in
  let entries =
    List.map (Lint_baseline.of_finding ~reason:"fixture violation") findings
  in
  let path = Filename.temp_file "drqos_lint" ".baseline" in
  let oc = open_out path in
  output_string oc "# comment line\n\n";
  List.iter
    (fun e ->
      output_string oc (Lint_baseline.entry_to_string e);
      output_char oc '\n')
    entries;
  close_out oc;
  let back =
    match Lint_baseline.load path with
    | Ok back -> back
    | Error msg -> Alcotest.failf "baseline load failed: %s" msg
  in
  Sys.remove path;
  Alcotest.(check (list string)) "entries survive the file format"
    (List.map Lint_baseline.entry_to_string entries)
    (List.map Lint_baseline.entry_to_string back)

let test_baseline_rejects_garbage () =
  let rejects text =
    let path = Filename.temp_file "drqos_lint" ".baseline" in
    let oc = open_out path in
    output_string oc text;
    close_out oc;
    let r = Lint_baseline.load path in
    Sys.remove path;
    match r with Error _ -> true | Ok _ -> false
  in
  Alcotest.(check bool) "missing justification" true (rejects "R1 a.ml:3\n");
  Alcotest.(check bool) "unknown rule" true (rejects "R99 a.ml:3 because\n");
  Alcotest.(check bool) "bad location" true (rejects "R1 a.ml:x because\n");
  Alcotest.(check bool) "bare word" true (rejects "nonsense\n")

(* --- interprocedural engine --- *)

(* A tiny hand-built program: f -> g -> state (a mutable global).  The
   fix-points and chain renderers must agree with it exactly. *)

let mkpos line = { Lint_interproc.line; col = 0 }
let mkuse name = { Lint_interproc.u_name = name; u_pos = mkpos 1 }

let mkdef ?mutable_ name refs =
  {
    Lint_interproc.d_name = name;
    d_pos = mkpos 1;
    d_refs = List.map mkuse refs;
    d_blocking = [];
    d_wall = [];
    d_traversals = [];
    d_mutable = mutable_;
  }

let tiny_summary =
  {
    Lint_interproc.s_source = "a.ml";
    s_modname = "A";
    s_defs =
      [
        mkdef ~mutable_:"ref" "A.state" [];
        mkdef "A.g" [ "A.state" ];
        mkdef "A.f" [ "A.g" ];
        mkdef "A.clean" [ "A.unrelated" ];
      ];
    s_spawns = [];
  }

let tiny_db () = Lint_interproc.build [ tiny_summary ]

module SS = Lint_interproc.SS

let test_engine_transitive () =
  let db = tiny_db () in
  let seeds = SS.singleton "A.state" in
  let tainted = Lint_interproc.transitive db ~seeds () in
  Alcotest.(check (list string))
    "taint climbs the call chain" [ "A.f"; "A.g" ] (SS.elements tainted);
  let stopped =
    Lint_interproc.transitive db ~seeds
      ~stop:(fun _ d -> d.Lint_interproc.d_name = "A.g")
      ()
  in
  Alcotest.(check (list string))
    "a sanitizer stops propagation" [] (SS.elements stopped)

let test_engine_witness () =
  let db = tiny_db () in
  let seeds = SS.singleton "A.state" in
  let tainted = Lint_interproc.transitive db ~seeds () in
  Alcotest.(check (option (list string)))
    "shortest chain back to the seed"
    (Some [ "A.f"; "A.g"; "A.state" ])
    (Lint_interproc.witness db ~seeds ~tainted "A.f");
  Alcotest.(check (option (list string)))
    "untainted names have no witness" None
    (Lint_interproc.witness db ~seeds ~tainted "A.clean")

let test_engine_reachable () =
  let db = tiny_db () in
  let roots = SS.singleton "A.f" in
  Alcotest.(check (list string))
    "forward closure from the root"
    [ "A.f"; "A.g"; "A.state" ]
    (SS.elements (Lint_interproc.reachable db ~roots));
  Alcotest.(check (option (list string)))
    "call path for messages"
    (Some [ "A.f"; "A.g"; "A.state" ])
    (Lint_interproc.path_from db ~roots "A.state");
  Alcotest.(check (option (list string)))
    "unreachable names have no path" None
    (Lint_interproc.path_from db ~roots "A.clean")

let test_r8_roots_config () =
  let with_roots r8_roots =
    match
      Lint_driver.run
        { (config ~rules:[ Lint.R8 ] ()) with Lint_driver.r8_roots }
    with
    | Ok findings -> List.map key findings
    | Error msg -> Alcotest.failf "lint run failed: %s" msg
  in
  Alcotest.(check (list key_t)) "no roots, no findings" [] (with_roots []);
  Alcotest.(check bool)
    "rooting at the loop itself flags its own select" true
    (List.mem
       ("R8", "test/lintfix/lintfix_evloop.ml", 21)
       (with_roots [ "Lintfix_evloop.loop" ]))

(* --- JSON report --- *)

let test_json_report_parses () =
  let findings = run_exn () in
  let doc =
    Lint_driver.report_json ~findings ~suppressed:3
      ~stale:
        [
          {
            Lint_baseline.b_rule = Lint.R1;
            b_file = "gone.ml";
            b_line = 1;
            b_reason = "stale";
          };
        ]
  in
  let back = Jsonx.of_string (Jsonx.to_string doc) in
  let member k = Jsonx.member k back in
  (match member "findings" with
  | Some (Jsonx.List l) ->
    Alcotest.(check int) "one JSON object per finding"
      (List.length findings) (List.length l);
    List.iter2
      (fun (f : Lint.finding) j ->
        Alcotest.(check (option string))
          "rule field"
          (Some (Lint.rule_name f.rule))
          (Option.bind (Jsonx.member "rule" j) Jsonx.to_str);
        Alcotest.(check (option int))
          "line field" (Some f.line)
          (Option.bind (Jsonx.member "line" j) Jsonx.to_int))
      findings l
  | _ -> Alcotest.fail "findings is not a JSON list");
  Alcotest.(check (option int)) "suppressed count" (Some 3)
    (Option.bind (member "suppressed") Jsonx.to_int);
  (match member "stale_baseline" with
  | Some (Jsonx.List [ e ]) ->
    Alcotest.(check (option string))
      "stale entry file" (Some "gone.ml")
      (Option.bind (Jsonx.member "file" e) Jsonx.to_str)
  | _ -> Alcotest.fail "stale_baseline is not a one-element list");
  Alcotest.(check bool) "not clean" true
    (member "clean" = Some (Jsonx.Bool false));
  let clean = Lint_driver.report_json ~findings:[] ~suppressed:5 ~stale:[] in
  Alcotest.(check bool) "clean report" true
    (Jsonx.member "clean" (Jsonx.of_string (Jsonx.to_string clean))
    = Some (Jsonx.Bool true))

(* --- GitHub annotations --- *)

let test_github_annotation () =
  let f =
    {
      Lint.rule = Lint.R8;
      file = "lib/a.ml";
      line = 3;
      col = 7;
      message = "50% blocked: a,b\nnext";
    }
  in
  Alcotest.(check string) "workflow command with escapes"
    "::error file=lib/a.ml,line=3,col=7,title=R8::R8: 50%25 blocked: a,b%0Anext"
    (Lint_driver.github_annotation f);
  let w = { f with Lint.rule = Lint.R3; message = "partial" } in
  Alcotest.(check string) "warnings map to ::warning"
    "::warning file=lib/a.ml,line=3,col=7,title=R3::R3: partial"
    (Lint_driver.github_annotation w)

(* --- driver error reporting --- *)

let test_missing_root_is_error () =
  let rejects what roots =
    match Lint_driver.run (Lint_driver.default_config ~roots) with
    | Error msg ->
      Alcotest.(check bool) (what ^ ": error names a cause") true
        (String.length msg > 0)
    | Ok _ -> Alcotest.failf "%s accepted" what
  in
  rejects "nonexistent root" [ "no/such/dir" ];
  (* A root with no implementation .cmt (an executable built by
     `dune build @all` alone, say) must not pass as clean. *)
  let empty = Filename.temp_file "drqos_lint" ".d" in
  Sys.remove empty;
  Sys.mkdir empty 0o755;
  Fun.protect
    ~finally:(fun () -> Sys.rmdir empty)
    (fun () -> rejects "root with no .cmt" [ fixture_root; empty ])

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "golden findings over fixtures" `Quick
            test_golden_findings;
          Alcotest.test_case "severities" `Quick test_severities;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "rule filtering" `Quick test_rule_filter;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "suppresses exactly the listed findings" `Quick
            test_baseline_suppresses_exactly;
          Alcotest.test_case "partial baseline + stale entry" `Quick
            test_baseline_partial_and_stale;
          Alcotest.test_case "file round-trip" `Quick
            test_baseline_file_roundtrip;
          Alcotest.test_case "rejects malformed entries" `Quick
            test_baseline_rejects_garbage;
        ] );
      ( "engine",
        [
          Alcotest.test_case "backward taint fix-point" `Quick
            test_engine_transitive;
          Alcotest.test_case "witness chains" `Quick test_engine_witness;
          Alcotest.test_case "forward reachability" `Quick
            test_engine_reachable;
          Alcotest.test_case "R8 roots are configurable" `Quick
            test_r8_roots_config;
        ] );
      ( "output",
        [
          Alcotest.test_case "JSON report parses with Jsonx" `Quick
            test_json_report_parses;
          Alcotest.test_case "GitHub annotations" `Quick
            test_github_annotation;
          Alcotest.test_case "missing root is an error" `Quick
            test_missing_root_is_error;
        ] );
    ]
