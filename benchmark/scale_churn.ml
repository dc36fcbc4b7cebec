(* Admission churn at scale, on the network of bench/scale.ml: a
   1056-node transit-stub with 400 Mbps links and hop bound 6, carrying
   many small stub-local flows (10 Kbps inelastic, 1 in 64 elastic), no
   backup required.  Set-up bulk-loads the live population; the window
   times alternating admit/terminate calls on it.  Route search over
   node-sized arrays and its major-heap allocation dominate here;
   water-filling hardly runs. *)

open Kit

let topo_spec =
  Transit_stub.spec ~transit_domains:4 ~transit_size:8 ~stubs_per_transit_node:4
    ~stub_size:8 ()

(* The network is part of the workload, fixed across seeds; the seed
   draws the request stream. *)
let topology_seed = 7
let capacity = Bandwidth.mbps 400
let hop_bound = 6
let config = Drcomm.Config.make ~hop_bound ~require_backup:false ()
let qos_inelastic = Qos.single_value 10
let qos_elastic = Qos.make ~b_min:10 ~b_max:50 ~increment:10 ()
let pick_qos rng = if Prng.int rng 64 = 0 then qos_elastic else qos_inelastic

(* [peak_at]: the operation after which peak memory is read.  A fixed
   count, since the window's own sample buffers double as it runs: read
   at its end, the peak would follow how far the host got in the time. *)
type sizes = { live : int; setups : int; checkpoint : int; peak_at : int }

let sizes env =
  if env.smoke then { live = 2_000; setups = 2; checkpoint = 400; peak_at = 1_000 }
  else { live = 20_000; setups = 3; checkpoint = 20_000; peak_at = 100_000 }

(* Stub membership as dense per-stub node arrays, for stub-local pairs. *)
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

type state = {
  service : Drcomm.t;
  stubs : int array array;
  rng : Prng.t;
  mutable rejects : int;
  topology_s : float;
  setup_s : float;
  load_admit : Samples.t;
}

let setup env sz =
  let t0 = now () in
  let info = Transit_stub.generate (Prng.create topology_seed) topo_spec in
  let topology_s = now () -. t0 in
  let stubs = stub_table info in
  let service =
    Drcomm.create ~config ~obs:Obs.null
      (Net_state.create ~capacity info.Transit_stub.graph)
  in
  let rng = Prng.create env.seed in
  let load_admit = Samples.create () in
  let rejects = ref 0 and attempts = ref 0 in
  Drcomm.set_auto_redistribute service false;
  while Drcomm.count service < sz.live && !attempts < 3 * sz.live do
    incr attempts;
    let src, dst = stub_pair rng stubs in
    let qos = pick_qos rng in
    let t = now () in
    (match
       Drcomm.admit ~want_indirect:false ~want_report:false service ~src ~dst ~qos
     with
    | Drcomm.Admitted _ -> ()
    | Drcomm.Rejected _ -> incr rejects);
    Samples.add load_admit (now () -. t)
  done;
  Drcomm.redistribute_pending service;
  Drcomm.set_auto_redistribute service true;
  if Drcomm.count service < sz.live then
    failwith
      (Printf.sprintf "scale: stuck at %d live connections loading to %d"
         (Drcomm.count service) sz.live);
  {
    service;
    stubs;
    rng;
    rejects = !rejects;
    topology_s;
    setup_s = now () -. t0;
    load_admit;
  }

(* Set up [k] times, since a median set-up time needs several; each
   set-up builds the same state and the last one is measured.  Only the
   times of the earlier ones are kept, and the heap is compacted before
   each, so the process's peak memory is that of one state. *)
let setups k f =
  let rec go k times =
    Gc.compact ();
    let s = f () in
    let times = (s.setup_s, s.topology_s) :: times in
    if k <= 1 then (s, times) else go (k - 1) times
  in
  go k []

let run env =
  let sz = sizes env in
  let st, times = setups sz.setups (fun () -> setup env sz) in
  let svc = st.service in
  let net = Drcomm.net svc in
  let prof = profiler env in
  let admit_s = Samples.create () and terminate_s = Samples.create () in
  let p = probes () in
  let probed_admit_s = ref 0. in
  (* Operation latencies: every operation of the untraced run, and of
     the traced run's plain and instrumented blocks apart. *)
  let plain_op = Samples.create () and traced_op = Samples.create () in
  let layer_s = ref 0. in
  let digest = ref [] and peak = ref nan in
  let block = 256 in
  let step i =
    (* Plain blocks of the traced run record no spans and run no probes. *)
    let probing = instrumented env ~block i in
    let prof = if probing then prof else Span.disabled in
    let op () =
      if i land 1 = 0 then begin
        let src, dst = stub_pair st.rng st.stubs in
        let qos = pick_qos st.rng in
        if probing then
          layer_s :=
            !layer_s +. probe_routes prof p net ~hop_bound ~src ~dst ~floor:qos.Qos.b_min;
        let r, d =
          call prof ~into:admit_s "drcomm.admit" (fun () ->
              Drcomm.admit ~want_indirect:false ~want_report:false svc ~src ~dst ~qos)
        in
        if probing then probed_admit_s := !probed_admit_s +. d;
        layer_s := !layer_s +. d;
        match r with
        | Drcomm.Admitted _ -> ()
        | Drcomm.Rejected _ -> st.rejects <- st.rejects + 1
      end
      else begin
        let ch = Drcomm.nth_channel svc (Prng.int st.rng (Drcomm.count svc)) in
        let _, d =
          call prof ~into:terminate_s "drcomm.terminate" (fun () ->
              Drcomm.terminate ~report:false svc ch)
        in
        layer_s := !layer_s +. d
      end
    in
    let latency = if probing then traced_op else plain_op in
    let t0 = now () in
    (try
       Span.wrap prof "op" op;
       Samples.add latency (now () -. t0)
     with e ->
       Printf.eprintf "scale: op %d raised %s\n%!" i (Printexc.to_string e);
       Samples.add_failed latency);
    if i + 1 = sz.checkpoint then
      digest :=
        [
          dint "ops" (i + 1);
          dint "live" (Drcomm.count svc);
          dint "total_reserved" (Drcomm.total_reserved svc);
          dint "rejects" st.rejects;
        ];
    if i + 1 = sz.peak_at then peak := peak_rss_mb ()
  in
  let g0 = Gc.quick_stat () in
  let n, wall =
    window ~seconds:env.seconds ~min_ops:(max sz.checkpoint sz.peak_at) step
  in
  let g1 = Gc.quick_stat () in
  Drcomm.check_invariants svc;
  let metrics =
    if not env.traced then
      [
        metric ~samples:sz.setups "setup_s" (median (List.map fst times));
        metric "peak_rss_mb" !peak;
      ]
    else
      [
        metric ~samples:sz.setups "topology.generate_s" (median (List.map snd times));
        metric ~samples:(Samples.count st.load_admit) "core.load_admit_us"
          (us (Samples.mean st.load_admit));
        metric ~samples:n "obs.trace_overhead_pct"
          (overhead_pct ~traced:traced_op ~plain:plain_op);
        metric ~samples:n "unattributed_share" (1. -. (!layer_s /. wall));
      ]
      @ op_metrics ~n:(Samples.count plain_op) ~busy_s:(Samples.sum plain_op) plain_op
      @ quantiles_us "core.admit_us" admit_s
      @ quantiles_us "core.terminate_us" terminate_s
      @ routing_metrics p ~admit_s:!probed_admit_s
      @ gc_metrics g0 g1 ~ops:n
  in
  {
    attempted = n;
    failed = Samples.failed plain_op + Samples.failed traced_op;
    digest = !digest;
    metrics;
    spans = spans_json prof;
  }
