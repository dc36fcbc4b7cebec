(* Shared infrastructure for the paper-reproduction benches: the
   declarative experiment API, its parallel driver, table rendering, and
   the common command-line options. *)

(* Scale of the sweeps: [Full] runs the paper's exact points; [Quick]
   shrinks loads and measurement windows ~4x for smoke runs. *)
type scale = Perf_record.scale = Full | Quick

let churn = function Full -> 2000 | Quick -> 500
let warmup = function Full -> 400 | Quick -> 100

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let note fmt = Printf.printf (fmt ^^ "\n")

let hrule widths =
  List.iter (fun w -> Printf.printf "+%s" (String.make (w + 2) '-')) widths;
  Printf.printf "+\n"

let row widths cells =
  List.iter2 (fun w c -> Printf.printf "| %*s " w c) widths cells;
  Printf.printf "|\n"

(* Optional machine-readable export: every table also lands in
   <dir>/<export>.dat as tab-separated values with a '#' header line —
   ready for gnuplot / pandas.  Exported rows carry no wall-clock
   columns, so a .dat file is byte-identical across runs and across
   --jobs settings (the determinism gate in scripts/verify.sh diffs
   them). *)
let out_dir = ref None

let set_out_dir dir =
  Result.map (fun () -> out_dir := Some dir) (Cliopt.mkdir_p dir)

let in_out_dir file =
  match !out_dir with Some dir -> Filename.concat dir file | None -> file

let export_rows name ~header ~rows =
  match !out_dir with
  | None -> ()
  | Some dir ->
    let path = Filename.concat dir (name ^ ".dat") in
    let oc = open_out path in
    Printf.fprintf oc "# %s\n" (String.concat "\t" header);
    List.iter (fun r -> Printf.fprintf oc "%s\n" (String.concat "\t" r)) rows;
    close_out oc;
    Printf.printf "(data written to %s)\n" path

let table ?export ~header ~rows () =
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left (fun acc r -> max acc (String.length (List.nth r i)))
          (String.length h) rows)
      header
  in
  hrule widths;
  row widths header;
  hrule widths;
  List.iter (row widths) rows;
  hrule widths;
  Option.iter (fun name -> export_rows name ~header ~rows) export

let kbps x = Printf.sprintf "%.0f" x

(* ------------------------------------------------------------------ *)
(* Common command-line options                                         *)

(* Worker-pool width for every sweep; set once by [parse_args]. *)
let jobs = ref (Sweep.recommended_jobs ())

let parse_jobs v =
  match int_of_string_opt v with
  | Some j when j >= 1 ->
    jobs := j;
    Ok ()
  | Some _ | None ->
    Error (Printf.sprintf "--jobs expects a count >= 1, got %S" v)

(* Live telemetry: --heartbeat attaches a snapshot emitter (one tick
   every [hb_sim_every] simulation time units) to every sweep point and
   concatenates the streams in point order into <name>.heartbeat.jsonl,
   then replays the file into an ops/sim-time series (<name>.hb.dat).
   Snapshot contents are purely sim-derived, so like the .dat exports
   the stream is byte-identical across --jobs (verify.sh diffs it). *)
let heartbeat = ref false
let hb_sim_every = 5000.

(* The flag table every bench driver shares, as a {!Cliopt} spec —
   unknown arguments pass through to the caller (sub-command
   selection). *)
let common_flags scale =
  [
    ("--quick", Cliopt.Unit (fun () -> scale := Quick));
    ("--heartbeat", Cliopt.Unit (fun () -> heartbeat := true));
    ("--out", Cliopt.Value set_out_dir);
    ("--jobs", Cliopt.Value parse_jobs);
  ]

let parse_args args =
  let scale = ref Full in
  match Cliopt.parse ~specs:(common_flags scale) args with
  | Ok rest -> Ok (!scale, rest)
  | Error _ as e -> e

(* ------------------------------------------------------------------ *)
(* The experiment API                                                  *)

(* An experiment declares its scenario points and how to render the
   results; the shared driver below owns execution — it fans the points
   out over the worker pool, times them, and (via [run_experiment])
   writes the perf record.  [render] receives one (result, seconds)
   pair per point, in point order. *)
type experiment = {
  name : string;
  points : Scenario.config list;
  render : (Scenario.result * float) list -> unit;
}

let run_points ~name points =
  let obs = Obs.default () in
  (* One buffer per point: each index is written by exactly one worker,
     so the buffers need no locking, and concatenating them in index
     order reproduces the sequential stream whatever --jobs is. *)
  let bufs =
    if !heartbeat then
      Some (Array.init (List.length points) (fun _ -> Buffer.create 256))
    else None
  in
  let results =
    Sweep.map ~jobs:!jobs ~obs
      (fun obs (i, cfg) ->
        let snapshot =
          Option.map
            (fun bufs ->
              let buf = bufs.(i) in
              let emit time ev =
                Buffer.add_string buf (Jsonx.to_string (Trace.to_json ~time ev));
                Buffer.add_char buf '\n'
              in
              Snapshot.create ~sim_every:hb_sim_every
                ~sink:{ Trace.emit; close = ignore } ())
            bufs
        in
        let t0 = Clock.now () in
        let r = Scenario.run ~obs ?snapshot cfg in
        (r, Clock.elapsed_since t0))
      (List.mapi (fun i cfg -> (i, cfg)) points)
  in
  Option.iter
    (fun bufs ->
      let path = in_out_dir (name ^ ".heartbeat.jsonl") in
      let oc = open_out path in
      Array.iter (Buffer.output_buffer oc) bufs;
      close_out oc;
      let a = Analysis.of_file path in
      let series = Analysis.ops_series a in
      let dat = in_out_dir (name ^ ".hb.dat") in
      let oc = open_out dat in
      Printf.fprintf oc "# t\tevents_per_simt\n";
      List.iter (fun (t, r) -> Printf.fprintf oc "%g\t%g\n" t r) series;
      close_out oc;
      note "(%d telemetry snapshots written to %s; ops series to %s)"
        (List.length (Analysis.snapshots a))
        path dat)
    bufs;
  results

(* Run one experiment's sweep and render it (no perf record — used for
   sub-experiments sharing one, e.g. the ablations). *)
let run_sweep e =
  let t0 = Clock.now () in
  let results = run_points ~name:e.name e.points in
  let wall = Clock.elapsed_since t0 in
  e.render results;
  note "(%d points in %.1fs, %d jobs)" (List.length e.points) wall !jobs

(* The paper's base configuration (Fig. 2): calibrated 100-node Waxman,
   10 Mbps links, 100-500 Kbps elastic QoS, lambda = mu = 0.001. *)
let paper_config ~scale ~offered ~increment ~seed =
  {
    Scenario.default with
    Scenario.qos = Qos.paper_spec ~increment;
    offered;
    churn_events = churn scale;
    warmup_events = warmup scale;
    seed;
  }

(* Every experiment runs under a fresh metrics registry and span
   profiler and leaves one machine-readable record in the --out
   directory (or the working directory): BENCH_<name>.json, the perf
   record `perfdiff` compares (see Perf_record).  It carries scale,
   jobs, wall time, main-domain GC deltas, the metrics registry
   (per-phase timings with p50/p95/p99, event counts) and the span
   aggregates.

   These records anchor cross-PR performance trajectories: later
   optimisation work diffs them against earlier runs
   (scripts/perf_diff.sh).  Worker-domain metrics and spans reach the
   registry and profiler through Sweep's fork/absorb; the GC deltas are
   main-domain only, so allocation inside workers shows up in the span
   aggregates, not under "gc".

   [plateaus] (evaluated after [f]) adds the scale bench's
   ops/sec-vs-live curve to the record. *)
let with_record ?plateaus name scale f =
  let obs =
    Obs.create ~metrics:(Metrics.create ()) ~spans:(Span.create ()) ()
  in
  Obs.set_default obs;
  let (result, wall_s), gc =
    Perf_record.with_gc (fun () ->
        let t0 = Clock.now () in
        let result = Fun.protect ~finally:(fun () -> Obs.set_default Obs.null) f in
        (result, Clock.elapsed_since t0))
  in
  let bench_path = in_out_dir ("BENCH_" ^ name ^ ".json") in
  Out_channel.with_open_text bench_path (fun oc ->
      Perf_record.write oc
        (Perf_record.bench ~experiment:name ~scale ~jobs:!jobs ~wall_s ~gc
           ~metrics:(Obs.metrics obs) ~spans:(Obs.spans obs)
           ?plateaus:(Option.map (fun f -> f ()) plateaus)
           ()));
  Printf.printf "(perf record written to %s)\n" bench_path;
  result

let run_experiment scale e = with_record e.name scale (fun () -> run_sweep e)
