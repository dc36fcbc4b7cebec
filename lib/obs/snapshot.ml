type source = {
  sim_time : unit -> float;
  events : unit -> int;
  live_by_level : unit -> int array;
  hot : unit -> (int * int) list;
  counters : unit -> (string * int) list;
  slo : unit -> int * int;
}

type t = {
  sink : Trace.sink;
  sim_every : float option;
  wall_every : float option;
  mutable src : source option;
  mutable emitted : int;
  (* event-time side *)
  mutable seq : int;
  mutable last_events : int;
  mutable last_counters : (string * int) list;
  mutable last_slo_good : int;
  mutable last_slo_bad : int;
  mutable peak_live : int;
  (* wall-clock side *)
  mutable wall_seq : int;
  mutable wall_t0 : float;
  mutable wall_last : float;
  mutable wall_last_events : int;
  mutable gc_minor : float;
  mutable gc_major : float;
}

let create ?sim_every ?wall_every ~sink () =
  let check label = function
    | Some x when x <= 0. ->
      invalid_arg (Printf.sprintf "Snapshot.create: %s must be positive" label)
    | _ -> ()
  in
  check "sim_every" sim_every;
  check "wall_every" wall_every;
  {
    sink;
    sim_every;
    wall_every;
    src = None;
    emitted = 0;
    seq = 0;
    last_events = 0;
    last_counters = [];
    last_slo_good = 0;
    last_slo_bad = 0;
    peak_live = 0;
    wall_seq = 0;
    wall_t0 = 0.;
    wall_last = 0.;
    wall_last_events = 0;
    gc_minor = 0.;
    gc_major = 0.;
  }

let sim_every t = t.sim_every
let wall_every t = t.wall_every
let emitted t = t.emitted

let start t src =
  t.src <- Some src;
  t.seq <- 0;
  t.last_events <- src.events ();
  t.last_counters <- src.counters ();
  let good0, bad0 = src.slo () in
  t.last_slo_good <- good0;
  t.last_slo_bad <- bad0;
  t.peak_live <- 0;
  t.wall_seq <- 0;
  let now = Clock.now () in
  t.wall_t0 <- now;
  t.wall_last <- now;
  t.wall_last_events <- src.events ();
  let g = Gc.quick_stat () in
  t.gc_minor <- g.Gc.minor_words;
  t.gc_major <- g.Gc.major_words

(* Counter deltas against the previous tick's cumulative values.  Both
   lists are name-sorted, so one merge walk suffices; zero deltas are
   dropped — the set of interned names depends on what ran earlier in
   the same registry (worker reuse across sweep points), and only the
   nonzero deltas are a function of this run alone. *)
let counter_deltas ~prev ~cur =
  let rec go acc prev cur =
    match (prev, cur) with
    | _, [] -> List.rev acc
    | [], (name, v) :: cur' ->
      go (if v <> 0 then (name, v) :: acc else acc) [] cur'
    | (pn, pv) :: prev', (cn, cv) :: cur' ->
      let c = compare pn cn in
      if c = 0 then
        go (if cv - pv <> 0 then (cn, cv - pv) :: acc else acc) prev' cur'
      else if c < 0 then go acc prev' cur (* name vanished: registries only grow *)
      else go (if cv <> 0 then (cn, cv) :: acc else acc) prev cur'
  in
  go [] prev cur

let emit t ~time ev =
  t.sink.Trace.emit time ev;
  t.emitted <- t.emitted + 1

let tick t =
  match t.src with
  | None -> ()
  | Some src ->
    let events = src.events () in
    let levels = src.live_by_level () in
    let live = Array.fold_left ( + ) 0 levels in
    if live > t.peak_live then t.peak_live <- live;
    let counters = src.counters () in
    let slo_good, slo_bad = src.slo () in
    let d_good = slo_good - t.last_slo_good in
    let d_bad = slo_bad - t.last_slo_bad in
    let slo_burn =
      if d_good + d_bad > 0 then float_of_int d_bad /. float_of_int (d_good + d_bad)
      else 0.
    in
    let ev =
      Trace.Snapshot
        {
          seq = t.seq;
          events;
          d_events = events - t.last_events;
          live;
          live_by_level = Array.to_list levels;
          peak_live = t.peak_live;
          hot = src.hot ();
          counters = counter_deltas ~prev:t.last_counters ~cur:counters;
          slo_good;
          slo_bad;
          slo_burn;
        }
    in
    t.seq <- t.seq + 1;
    t.last_events <- events;
    t.last_counters <- counters;
    t.last_slo_good <- slo_good;
    t.last_slo_bad <- slo_bad;
    emit t ~time:(src.sim_time ()) ev

let wall_tick t =
  match t.src with
  | None -> ()
  | Some src ->
    (* Monotonic: a stepped wall clock must not yield negative [wall_s]
       deltas or nonsense GC-rate intervals in a long-running server. *)
    let now = Clock.now () in
    let g = Gc.quick_stat () in
    let events = src.events () in
    let dt = now -. t.wall_last in
    let d_events = events - t.wall_last_events in
    let ev =
      Trace.Heartbeat
        {
          seq = t.wall_seq;
          wall_s = now -. t.wall_t0;
          d_events;
          ops_per_s = (if dt > 0. then float_of_int d_events /. dt else 0.);
          minor_words = g.Gc.minor_words -. t.gc_minor;
          major_words = g.Gc.major_words -. t.gc_major;
          heap_words = g.Gc.heap_words;
        }
    in
    t.wall_seq <- t.wall_seq + 1;
    t.wall_last <- now;
    t.wall_last_events <- events;
    t.gc_minor <- g.Gc.minor_words;
    t.gc_major <- g.Gc.major_words;
    emit t ~time:(src.sim_time ()) ev
