(* Million-connection scale bench: the acceptance run for the indexed
   hot path (DESIGN.md §13).

   A 1056-node transit–stub topology (4 transit domains of 8, four
   8-node stubs per transit node) is loaded in plateaus of live
   DR-connections; at each plateau a batch of admit/terminate churn
   events runs through the simulation engine and is timed.  The claim
   under test is {e flat per-operation cost}: once the steady-state heap
   is established, ops/sec at 10^6 live connections stays within a small
   factor of the earlier plateaus (the very first plateau runs cheaper
   while links and allocator arenas are still cold).

   Load is stub-local (traffic engineering keeps most pairs inside a
   stub) and overwhelmingly inelastic — the million-connection regime is
   many small fixed-rate flows, with a sprinkling of elastic ones to
   keep the water-filling machinery honest.  Admission control stays
   fully on; auto-redistribution is deferred during bulk loading and
   flushed once per plateau (the batched-arrival pattern).

   Wall-clock figures go only to BENCH_scale.json (the perf_diff gate);
   scale.dat carries the deterministic columns. *)

let topo_spec =
  Transit_stub.spec ~transit_domains:4 ~transit_size:8 ~stubs_per_transit_node:4
    ~stub_size:8 ()

let plateaus = function
  | Exp.Full -> [ 250_000; 500_000; 750_000; 1_000_000 ]
  | Exp.Quick -> [ 50_000; 100_000 ]

let churn_ops = function Exp.Full -> 20_000 | Exp.Quick -> 4_000

(* Floors are small (10 Kbps flows) against 400 Mbps links so the
   topology holds a million reservations; 1 in 64 connections is elastic
   and competes for the leftovers. *)
let capacity = Bandwidth.mbps 400
let qos_inelastic = Qos.single_value 10
let qos_elastic = Qos.make ~b_min:10 ~b_max:50 ~increment:10 ()
let pick_qos rng = if Prng.int rng 64 = 0 then qos_elastic else qos_inelastic

(* Stub membership -> dense per-stub node arrays, for stub-local pairs. *)
let stub_table info =
  let stub_of = info.Transit_stub.stub_of_node in
  let n_stubs = 1 + Array.fold_left max (-1) stub_of in
  let members = Array.make n_stubs [] in
  for v = Array.length stub_of - 1 downto 0 do
    let s = stub_of.(v) in
    if s >= 0 then members.(s) <- v :: members.(s)
  done;
  Array.map Array.of_list members

let stub_pair rng stubs =
  let stub = stubs.(Prng.int rng (Array.length stubs)) in
  let i, j = Prng.sample_distinct_pair rng (Array.length stub) in
  (stub.(i), stub.(j))

type plateau_stats = {
  live_target : int;
  carried : int;
  rejected : int;
  total_reserved : int;
  ops : int;
  churn_rejected : int;
  churn_s : float;
}

let ops_per_sec p = if p.churn_s > 0. then float_of_int p.ops /. p.churn_s else 0.

let us_per_op p =
  if p.ops > 0 then p.churn_s *. 1e6 /. float_of_int p.ops else 0.

let sweep obs scale =
  Exp.section "Scale: churn throughput vs live DR-connections";
  let rng = Prng.create 7 in
  let info = Transit_stub.generate rng topo_spec in
  let g = info.Transit_stub.graph in
  let stubs = stub_table info in
  Exp.note "transit-stub: %d nodes, %d edges, %d stub domains"
    (Graph.node_count g) (Graph.edge_count g) (Array.length stubs);
  let net = Net_state.create ~capacity g in
  let config = Drcomm.Config.make ~hop_bound:6 ~require_backup:false () in
  let service = Drcomm.create ~config ~obs net in
  let rejected = ref 0 in
  let load_to target =
    Drcomm.set_auto_redistribute service false;
    let attempts = ref 0 in
    let budget = 3 * target in
    while Drcomm.count service < target && !attempts < budget do
      incr attempts;
      let src, dst = stub_pair rng stubs in
      match
        Drcomm.admit ~want_indirect:false ~want_report:false service ~src ~dst
          ~qos:(pick_qos rng)
      with
      | Drcomm.Admitted _ -> ()
      | Drcomm.Rejected _ -> incr rejected
    done;
    Drcomm.redistribute_pending service;
    Drcomm.set_auto_redistribute service true;
    if Drcomm.count service < target then
      failwith
        (Printf.sprintf "scale: stuck at %d live connections loading to %d"
           (Drcomm.count service) target)
  in
  (* One timed batch of churn events at the current plateau, dispatched
     through the engine (capacity-hinted queue, batch scheduled up
     front).  Alternating admit/terminate holds the population. *)
  let churn ops =
    let engine = Engine.create ~capacity:(ops + 8) ~obs () in
    let churn_rejected = ref 0 in
    for i = 1 to ops do
      Engine.schedule_at engine ~time:(float_of_int i) (fun _ ->
          if i land 1 = 0 then begin
            let n = Drcomm.count service in
            if n > 0 then
              ignore
                (Drcomm.terminate ~report:false service
                   (Drcomm.nth_channel service (Prng.int rng n)))
          end
          else
            let src, dst = stub_pair rng stubs in
            match
              Drcomm.admit ~want_indirect:false ~want_report:false service ~src ~dst
                ~qos:(pick_qos rng)
            with
            | Drcomm.Admitted _ -> ()
            | Drcomm.Rejected _ -> incr churn_rejected)
    done;
    let t0 = Clock.now () in
    ignore (Engine.run engine);
    (Clock.elapsed_since t0, !churn_rejected)
  in
  (* A few failure/repair cycles (outside the timed window) exercise the
     indexed victim resolution at full population. *)
  let failure_cycle () =
    for _ = 1 to 2 do
      let e = Prng.int rng (Graph.edge_count g) in
      ignore (Drcomm.fail_edge service e);
      Drcomm.repair_edge service e
    done
  in
  let stats =
    List.map
      (fun target ->
        let before = !rejected in
        Obs.span obs "scale.load" (fun () -> load_to target);
        let ops = churn_ops scale in
        let churn_s, churn_rejected =
          Obs.span obs "scale.churn" (fun () -> churn ops)
        in
        Obs.span obs "scale.failures" failure_cycle;
        (* Incremental state vs full recomputation, at every plateau. *)
        Obs.span obs "scale.audit" (fun () -> Drcomm.check_invariants service);
        {
          live_target = target;
          carried = Drcomm.count service;
          rejected = !rejected - before;
          total_reserved = Drcomm.total_reserved service;
          ops;
          churn_rejected;
          churn_s;
        })
      (plateaus scale)
  in
  let rows =
    List.map
      (fun p ->
        [
          string_of_int p.live_target;
          string_of_int p.carried;
          string_of_int p.rejected;
          Printf.sprintf "%.0f" (ops_per_sec p);
          Printf.sprintf "%.1f" (us_per_op p);
        ])
      stats
  in
  Exp.table
    ~header:[ "live"; "carried"; "rejected"; "churn ops/s"; "us/op" ]
    ~rows ();
  (* The .dat export must stay byte-identical across runs, so it carries
     no wall-clock columns. *)
  Exp.export_rows "scale"
    ~header:[ "live"; "carried"; "rejected"; "churn_rejected"; "total_reserved_kbps" ]
    ~rows:
      (List.map
         (fun p ->
           [
             string_of_int p.live_target;
             string_of_int p.carried;
             string_of_int p.rejected;
             string_of_int p.churn_rejected;
             string_of_int p.total_reserved;
           ])
         stats);
  Exp.note
    "expected: us/op flat (within ~2x) across the upper plateaus; the first \
     plateau runs cheaper while the heap and link sets are still small.";
  stats

let run scale =
  let stats = ref [] in
  Exp.with_record
    ~plateaus:(fun () ->
      List.map
        (fun p ->
          {
            Perf_record.live = p.carried;
            ops = p.ops;
            ops_per_sec = ops_per_sec p;
            us_per_op = us_per_op p;
          })
        !stats)
    "scale" scale
    (fun obs -> stats := sweep obs scale)
