(* Tests for the fuzzing library (lib/check): the op language, the
   fuzzer + shrinker machinery, and the differential oracles.  The
   bounded quick runs here are the `dune runtest` surface of the fuzzer;
   the CLI (`drqos_cli fuzz`) and scripts/verify.sh run longer ones. *)

let sample_ops =
  [
    Op.Admit { src = 50886; dst = 53019; qos = 15206 };
    Op.Terminate 7;
    Op.Change_qos (83635, 43932);
    Op.Fail 69609;
    Op.Repair 3;
    Op.Set_auto true;
    Op.Set_auto false;
    Op.Redistribute_all;
  ]

let test_op_roundtrip () =
  List.iter
    (fun op ->
      match Op.of_string (Op.to_string op) with
      | Some op' ->
        Alcotest.(check string) "round-trips" (Op.to_string op) (Op.to_string op');
        Alcotest.(check bool) "structurally equal" true (op = op')
      | None -> Alcotest.fail ("unparseable: " ^ Op.to_string op))
    sample_ops

let test_op_rejects_garbage () =
  List.iter
    (fun s -> Alcotest.(check bool) s true (Op.of_string s = None))
    [ ""; "admit 1"; "frobnicate 3"; "terminate x"; "auto maybe"; "fail" ]

(* Every family must survive a few hundred random ops with the full
   invariant suite (including predicted counters) audited after each
   one.  This is the regression net for the four bugs this fuzzer
   originally flushed out of Drcomm. *)
let quick_fuzz family () =
  let cfg = Fuzz.config ~family ~seed:1 ~ops:400 () in
  match Fuzz.run cfg with
  | Ok stats ->
    Alcotest.(check int) "all ops ran" 400 stats.Fuzz.ops_run;
    Alcotest.(check bool) "non-trivial run" true (stats.Fuzz.admitted > 0)
  | Error f ->
    Alcotest.fail
      (Printf.sprintf "violation at op %d: %s" f.Fuzz.violation.Fuzz.index
         f.Fuzz.violation.Fuzz.message)

(* Scripts and topologies are pure functions of the config. *)
let test_fuzz_deterministic () =
  let cfg = Fuzz.config ~family:Fuzz.Waxman ~seed:9 ~ops:120 () in
  let ops1 = Fuzz.gen_ops cfg and ops2 = Fuzz.gen_ops cfg in
  Alcotest.(check bool) "same script" true (ops1 = ops2);
  let g1 = Fuzz.topology cfg and g2 = Fuzz.topology cfg in
  Alcotest.(check int) "same nodes" (Graph.node_count g1) (Graph.node_count g2);
  Alcotest.(check int) "same edges" (Graph.edge_count g1) (Graph.edge_count g2);
  let r1 = Fuzz.replay cfg ops1 and r2 = Fuzz.replay cfg ops2 in
  Alcotest.(check bool) "same stats" true (r1.Fuzz.stats = r2.Fuzz.stats)

(* An injected fault ("three channels live") must be caught, shrunk to a
   near-minimal script, and the reproducer must replay verbatim. *)
let injected t = if Drcomm.count t >= 3 then failwith "injected: three live channels"

let test_injected_fault_shrinks () =
  let cfg = Fuzz.config ~family:Fuzz.Waxman ~seed:42 ~ops:400 () in
  match Fuzz.run ~extra_invariant:injected cfg with
  | Ok _ -> Alcotest.fail "injected fault not detected"
  | Error f ->
    let contains ~sub s =
      let n = String.length sub and m = String.length s in
      let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "fault message surfaced" true
      (contains ~sub:"injected" f.Fuzz.violation.Fuzz.message);
    (* Reaching three live channels needs exactly three admits. *)
    Alcotest.(check bool)
      (Printf.sprintf "shrunk to <= 10 ops (got %d)" (Array.length f.Fuzz.script))
      true
      (Array.length f.Fuzz.script <= 10);
    (* The reproducer replays to the same failure... *)
    let r = Fuzz.replay ~extra_invariant:injected cfg f.Fuzz.script in
    (match r.Fuzz.violation with
    | Some v ->
      Alcotest.(check int) "fails at the last op" (Array.length f.Fuzz.script - 1)
        v.Fuzz.index
    | None -> Alcotest.fail "shrunk script no longer fails");
    (* ... and is 1-minimal: dropping any op makes the failure vanish. *)
    Array.iteri
      (fun i _ ->
        let pruned =
          Array.of_list
            (List.filteri (fun j _ -> j <> i) (Array.to_list f.Fuzz.script))
        in
        let r = Fuzz.replay ~extra_invariant:injected cfg pruned in
        Alcotest.(check bool)
          (Printf.sprintf "dropping op %d defuses the script" i)
          true (r.Fuzz.violation = None))
      f.Fuzz.script

(* The black box: a failure carries the final (shrunk) replay's last
   trace events, timestamped with op indices, and dumps as replayable
   JSONL next to the reproducer. *)
let test_failure_carries_flight () =
  let cfg = Fuzz.config ~family:Fuzz.Waxman ~seed:42 ~ops:400 () in
  match Fuzz.run ~extra_invariant:injected cfg with
  | Ok _ -> Alcotest.fail "injected fault not detected"
  | Error f ->
    Alcotest.(check bool) "flight recorder non-empty" true (f.Fuzz.flight <> []);
    (* Event times are op indices into the shrunk script. *)
    let n = Array.length f.Fuzz.script in
    List.iter
      (fun (t, _) ->
        Alcotest.(check bool)
          (Printf.sprintf "event time %g within [0, %d)" t n)
          true
          (t >= 0. && t < float_of_int n))
      f.Fuzz.flight;
    (* The last recorded events come from the final (failing) op. *)
    let last_t, _ = List.nth f.Fuzz.flight (List.length f.Fuzz.flight - 1) in
    Alcotest.(check (float 1e-9)) "tail events at the failing op"
      (float_of_int f.Fuzz.violation.Fuzz.index)
      last_t;
    (* And the dump is JSONL that Analysis replays. *)
    let path = Filename.temp_file "drqos_fuzz_flight" ".jsonl" in
    let oc = open_out path in
    Flight.dump_events f.Fuzz.flight oc;
    close_out oc;
    let a = Analysis.of_file path in
    Sys.remove path;
    Alcotest.(check int) "every event (plus the note header) replays"
      (List.length f.Fuzz.flight + 1)
      (Analysis.event_count a)

let test_reproducer_roundtrip () =
  let cfg =
    Fuzz.config ~family:Fuzz.Torus ~seed:42 ~ops:400 ~capacity:900 ~backups:1
      ~policy:Policy.proportional ()
  in
  match Fuzz.run ~extra_invariant:injected cfg with
  | Ok _ -> Alcotest.fail "injected fault not detected"
  | Error f -> (
    let text = Fuzz.to_script f in
    match Fuzz.parse_script text with
    | Error e -> Alcotest.fail ("reproducer does not parse: " ^ e)
    | Ok (cfg', ops) ->
      Alcotest.(check string) "family survives" "torus" (Fuzz.family_name cfg'.Fuzz.family);
      Alcotest.(check int) "seed survives" 42 cfg'.Fuzz.seed;
      Alcotest.(check int) "capacity survives" 900 cfg'.Fuzz.capacity;
      Alcotest.(check int) "backups survive" 1 cfg'.Fuzz.backups_per_connection;
      Alcotest.(check bool) "policy survives" true
        (Policy.equal cfg'.Fuzz.policy Policy.proportional);
      Alcotest.(check bool) "ops survive" true (ops = f.Fuzz.script);
      (* Parsing and replaying the printed text reproduces the failure. *)
      let r = Fuzz.replay ~extra_invariant:injected cfg' ops in
      Alcotest.(check bool) "replays to a violation" true (r.Fuzz.violation <> None))

(* Differential oracle: with gamma = 0 the Markov model must collapse to
   the uncontended ideal for any QoS spec. *)
let test_gamma0_oracle () =
  Oracle.check_gamma0_agreement (Qos.paper_spec ~increment:100);
  Oracle.check_gamma0_agreement (Qos.paper_spec ~increment:50);
  Oracle.check_gamma0_agreement (Qos.make ~b_min:200 ~b_max:400 ~increment:50 ~utility:0.7 ());
  Oracle.check_gamma0_agreement (Qos.single_value 150)

(* Differential oracle: fail -> repair -> redistribute of a backup-only
   edge is an exact no-op on the bandwidth allocation. *)
let test_fail_repair_roundtrip_oracle () =
  let g = Graph.create 4 in
  ignore (Graph.add_edge g 0 1);
  ignore (Graph.add_edge g 1 2);
  let e23 = Graph.add_edge g 2 3 in
  ignore (Graph.add_edge g 3 0);
  let t = Drcomm.create (Net_state.create ~capacity:1000 g) in
  (match Drcomm.admit t ~src:0 ~dst:1 ~qos:(Qos.paper_spec ~increment:100) with
  | Drcomm.Admitted _ -> ()
  | Drcomm.Rejected _ -> Alcotest.fail "admission failed");
  (* e23 lies on the backup route 0-3-2-1 only. *)
  Oracle.check_fail_repair_roundtrip t ~edge:e23;
  Drcomm.check_invariants t

let test_fail_repair_roundtrip_rejects_primary_edge () =
  let g = Graph.create 4 in
  let e01 = Graph.add_edge g 0 1 in
  ignore (Graph.add_edge g 1 2);
  ignore (Graph.add_edge g 2 3);
  ignore (Graph.add_edge g 3 0);
  let t = Drcomm.create (Net_state.create ~capacity:1000 g) in
  (match Drcomm.admit t ~src:0 ~dst:1 ~qos:(Qos.paper_spec ~increment:100) with
  | Drcomm.Admitted _ -> ()
  | Drcomm.Rejected _ -> Alcotest.fail "admission failed");
  match Oracle.check_fail_repair_roundtrip t ~edge:e01 with
  | () -> Alcotest.fail "primary edge must be refused"
  | exception Invalid_argument _ -> ()

(* Differential oracle: a channel alone on its path reaches its ceiling
   under auto-redistribution. *)
let test_unshared_at_ceiling_oracle () =
  let g = Graph.create 3 in
  ignore (Graph.add_edge g 0 1);
  ignore (Graph.add_edge g 1 2);
  let cfg = Drcomm.Config.make ~backups_per_connection:0 () in
  let t = Drcomm.create ~config:cfg (Net_state.create ~capacity:2000 g) in
  (match Drcomm.admit t ~src:0 ~dst:2 ~qos:(Qos.paper_spec ~increment:100) with
  | Drcomm.Admitted _ -> ()
  | Drcomm.Rejected _ -> Alcotest.fail "admission failed");
  Oracle.check_unshared_at_ceiling t

let () =
  Alcotest.run "check"
    [
      ( "op-language",
        [
          Alcotest.test_case "round-trip" `Quick test_op_roundtrip;
          Alcotest.test_case "garbage rejected" `Quick test_op_rejects_garbage;
        ] );
      ( "fuzzer",
        [
          Alcotest.test_case "waxman quick" `Quick (quick_fuzz Fuzz.Waxman);
          Alcotest.test_case "torus quick" `Quick (quick_fuzz Fuzz.Torus);
          Alcotest.test_case "transit-stub quick" `Quick (quick_fuzz Fuzz.Transit_stub);
          Alcotest.test_case "deterministic" `Quick test_fuzz_deterministic;
        ] );
      ( "shrinking",
        [
          Alcotest.test_case "injected fault shrinks" `Quick test_injected_fault_shrinks;
          Alcotest.test_case "failure carries the flight recorder" `Quick
            test_failure_carries_flight;
          Alcotest.test_case "reproducer round-trip" `Quick test_reproducer_roundtrip;
        ] );
      ( "oracles",
        [
          Alcotest.test_case "gamma=0 model vs ideal" `Quick test_gamma0_oracle;
          Alcotest.test_case "fail/repair round-trip" `Quick
            test_fail_repair_roundtrip_oracle;
          Alcotest.test_case "round-trip refuses primary edge" `Quick
            test_fail_repair_roundtrip_rejects_primary_edge;
          Alcotest.test_case "unshared at ceiling" `Quick test_unshared_at_ceiling_oracle;
        ] );
    ]
