(* Plumbing shared by the four workloads: the run environment, the
   timed window, the end-to-end operation figures, process memory and GC
   readings, spans of the traced run, and the record a workload hands
   back to [Run]. *)

type env = {
  seed : int;
  seconds : float;
  traced : bool;
  smoke : bool;  (** shrunk sizes, for the [dune runtest] smoke rule. *)
  out_dir : string;
}

type metric = { name : string; value : float; samples : int }

let metric ?(samples = 1) name value = { name; value; samples }

type outcome = {
  attempted : int;
  failed : int;
  digest : (string * string) list;
      (** compared with [benchmark/golden/<workload>.txt] for seed 1. *)
  metrics : metric list;
      (** end-to-end metrics untraced, per-layer metrics traced. *)
  spans : Jsonx.t;  (** written next to the results file when traced. *)
}

let now = Clock.now
let us s = s *. 1e6

let dint key v = (key, string_of_int v)
let dfloat key v = (key, Printf.sprintf "%.6f" v)

(* Median of a few repeated measurements (set-up times). *)
let median xs =
  let s = Samples.create () in
  List.iter (Samples.add s) xs;
  Samples.quantile s 0.5

(* p50 and p99 of a sample as two metrics named [<prefix>.p50<suffix>]
   and [<prefix>.p99<suffix>], in microseconds; absent on an empty
   sample (the run reports the layer as idle). *)
let quantiles_us ?(suffix = "") prefix s =
  if Samples.count s = 0 then []
  else
    let a = Samples.sorted s in
    let n = Array.length a in
    [
      metric ~samples:n (prefix ^ ".p50" ^ suffix) (us (Samples.quantile_sorted a 0.5));
      metric ~samples:n (prefix ^ ".p99" ^ suffix) (us (Samples.quantile_sorted a 0.99));
    ]

(* The timed window: operations 0, 1, ... run until [seconds] have
   passed and at least [min_ops] have run (the digest checkpoint must
   fall inside the window).  Returns the operation count and the wall
   time. *)
let window ~seconds ~min_ops step =
  let t0 = now () in
  let i = ref 0 in
  while !i < min_ops || now () -. t0 < seconds do
    step !i;
    incr i
  done;
  (!i, now () -. t0)

(* Throughput and latency: [n] operations took [busy_s] seconds, and
   [latency] holds one sample per timed operation ([infinity] when it
   failed), whose exact nearest-rank quantiles are taken over every
   sample.  The traced run reports these over its plain blocks, whose
   operations run exactly as in the untraced run. *)
let op_metrics ~n ~busy_s latency =
  let a = Samples.sorted latency in
  let k = Array.length a in
  if n = 0 || k = 0 then failwith "op_metrics: no operations";
  [
    metric ~samples:n "ops_per_s" (float_of_int n /. busy_s);
    metric ~samples:k "op_p50_us" (us (Samples.quantile_sorted a 0.5));
    metric ~samples:k "op_p99_us" (us (Samples.quantile_sorted a 0.99));
  ]

(* The traced run measures its own overhead by alternating blocks of
   operations with and without the extra instrumentation.  The first
   block is instrumented, so the output digest, taken early, covers the
   instrumented path. *)
let instrumented env ~block i = env.traced && (i / block) land 1 = 0

let overhead_pct ~traced ~plain =
  let per s = Samples.mean s in
  if Samples.count traced = 0 || Samples.count plain = 0 then 0.
  else 100. *. ((per traced /. per plain) -. 1.)

(* VmHWM of this process, in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> scan ()
        | exception End_of_file -> failwith "peak_rss_mb: no VmHWM line"
      in
      scan ())

(* Run [f] in a forked child and return its result, which must hold no
   closures, with the child's peak memory (VmHWM, MB).  Every child
   starts from this process's memory, so their peaks are independent
   draws, where peaks read in one process only ever grow.  Must be
   called before any domain is spawned. *)
let in_child (type a) (f : unit -> a) : a * float =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let reply : (a * float, string) result =
      match f () with
      | r -> Ok (r, peak_rss_mb ())
      | exception e -> Error (Printexc.to_string e)
    in
    let oc = Unix.out_channel_of_descr wr in
    Marshal.to_channel oc reply [];
    close_out oc;
    Unix._exit 0
  | pid -> (
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let reply =
      Fun.protect
        ~finally:(fun () ->
          close_in_noerr ic;
          ignore (Unix.waitpid [] pid))
        (fun () ->
          match (Marshal.from_channel ic : (a * float, string) result) with
          | reply -> Some reply
          | exception End_of_file -> None)
    in
    match reply with
    | Some (Ok r) -> r
    | Some (Error msg) -> failwith ("in child: " ^ msg)
    | None -> failwith "child process ended without a result")

(* Main-domain allocation and major collections over a window, per
   operation. *)
let gc_metrics (g0 : Gc.stat) (g1 : Gc.stat) ~ops =
  let per x = x /. float_of_int (max 1 ops) in
  [
    metric ~samples:ops "gc.minor_words_per_op" (per (g1.minor_words -. g0.minor_words));
    metric ~samples:ops "gc.major_words_per_op" (per (g1.major_words -. g0.major_words));
    metric "gc.major_collections"
      (float_of_int (g1.major_collections - g0.major_collections));
  ]

(* The traced run records its calls into each layer as spans of the
   program's own profiler, kept in memory until the run ends; enough
   records to follow a few thousand operations, the rest only
   aggregated.  Untraced runs pass [Span.disabled]. *)
let keep_spans = 50_000
let profiler env = if env.traced then Span.create ~keep:keep_spans () else Span.disabled

let spans_json prof =
  Jsonx.Obj
    [
      ("aggregate", Span.to_json prof);
      ("dropped", Jsonx.Int (Span.dropped_records prof));
      ( "records",
        Jsonx.List
          (List.map
             (fun (r : Span.record) ->
               Jsonx.Obj
                 [
                   ("name", Jsonx.String r.name);
                   ("depth", Jsonx.Int r.depth);
                   ("start_us", Jsonx.Float (us r.start_s));
                   ("total_us", Jsonx.Float (us r.total_s));
                   ("self_us", Jsonx.Float (us r.self_s));
                 ])
             (Span.records prof)) );
    ]

(* Time one call into a layer: its duration goes to [into] and, when
   [prof] is live, a span named [name] under the innermost open one. *)
let call prof ?into name f =
  let t0 = now () in
  let r = Span.wrap prof name f in
  let dur = now () -. t0 in
  Option.iter (fun s -> Samples.add s dur) into;
  (r, dur)

(* Routing probes: the two route searches an admit is about to run,
   called with its exact request on the state just before it.  The
   searches only read the network, so the admit that follows sees the
   same state. *)
type probes = { primary : Samples.t; backup : Samples.t }

let probes () = { primary = Samples.create (); backup = Samples.create () }

let probe_routes prof p net ~hop_bound ~src ~dst ~floor =
  let req = Flooding.request ~hop_bound ~src ~dst ~floor () in
  let route, d_primary =
    call prof ~into:p.primary "routing.primary" (fun () -> Flooding.primary_route net req)
  in
  match route with
  | None -> d_primary
  | Some path ->
    let _, d_backup =
      call prof ~into:p.backup "routing.backup" (fun () ->
          Flooding.backup_route net req ~primary_edges:path.Paths.edges)
    in
    d_primary +. d_backup

(* Routing metrics; [admit_s] is the admit time the probed searches are
   a share of. *)
let routing_metrics p ~admit_s =
  quantiles_us "routing.primary_us" p.primary
  @ quantiles_us "routing.backup_us" p.backup
  @
  if admit_s > 0. then
    [
      metric ~samples:(Samples.count p.primary) "routing.admit_share"
        ((Samples.sum p.primary +. Samples.sum p.backup) /. admit_s);
    ]
  else []
