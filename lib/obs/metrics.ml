type t = {
  on : bool;
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  hwms : (string, hwm) Hashtbl.t;
  timers : (string, timer) Hashtbl.t;
}

and counter = { c_reg : t; mutable count : int }

and gauge = {
  g_reg : t;
  mutable last : float;
  mutable peak : float;
  mutable updates : int;
}

and hwm = { w_reg : t; mutable high : float; mutable w_updates : int }

and timer = { t_reg : t; mutable spans : Stats.Welford.t; buckets : int array }

(* Timer quantiles come from a fixed log-bucket histogram rather than a
   sampling reservoir: deterministic with no seed, O(1) update, and the
   ~12% relative resolution (20 buckets per decade over 1 ns .. 1000 s)
   is far below the run-to-run noise of wall-clock timings anyway. *)
let bucket_lo = 1e-9
let buckets_per_decade = 20
let bucket_count = 12 * buckets_per_decade (* up to 1e3 s *)

let bucket_index x =
  if x <= bucket_lo then 0
  else
    let i =
      int_of_float (Float.log10 (x /. bucket_lo) *. float_of_int buckets_per_decade)
    in
    if i >= bucket_count then bucket_count - 1 else i

(* Geometric midpoint of bucket [i]. *)
let bucket_mid i =
  bucket_lo *. (10. ** ((float_of_int i +. 0.5) /. float_of_int buckets_per_decade))

let registry on =
  {
    on;
    counters = Hashtbl.create 16;
    gauges = Hashtbl.create 16;
    hwms = Hashtbl.create 16;
    timers = Hashtbl.create 16;
  }

let create () = registry true

(* The shared no-op registry: instruments minted from it keep their
   [on = false] check forever, so instrumented hot paths cost one load
   and one branch when observability is off. *)
let disabled = registry false

let enabled t = t.on

let intern table name make =
  match Hashtbl.find_opt table name with
  | Some x -> x
  | None ->
    let x = make () in
    Hashtbl.replace table name x;
    x

let counter t name = intern t.counters name (fun () -> { c_reg = t; count = 0 })

let incr c = if c.c_reg.on then c.count <- c.count + 1

let add c n = if c.c_reg.on then c.count <- c.count + n

let count c = c.count

let gauge t name =
  intern t.gauges name (fun () ->
      { g_reg = t; last = 0.; peak = neg_infinity; updates = 0 })

let set g v =
  if g.g_reg.on then begin
    g.last <- v;
    if v > g.peak then g.peak <- v;
    g.updates <- g.updates + 1
  end

let value g = g.last
let peak g = if g.updates = 0 then 0. else g.peak

let hwm t name =
  intern t.hwms name (fun () -> { w_reg = t; high = neg_infinity; w_updates = 0 })

let observe_hwm w v =
  if w.w_reg.on then begin
    if v > w.high then w.high <- v;
    w.w_updates <- w.w_updates + 1
  end

let hwm_value w = if w.w_updates = 0 then 0. else w.high

let timer t name =
  intern t.timers name (fun () ->
      { t_reg = t; spans = Stats.Welford.create (); buckets = Array.make bucket_count 0 })

let observe tm seconds =
  if tm.t_reg.on then begin
    Stats.Welford.add tm.spans seconds;
    let i = bucket_index seconds in
    tm.buckets.(i) <- tm.buckets.(i) + 1
  end

let time tm f =
  if tm.t_reg.on then begin
    let t0 = Clock.now () in
    let finally () = observe tm (Clock.elapsed_since t0) in
    Fun.protect ~finally f
  end
  else f ()

let timer_count tm = Stats.Welford.count tm.spans
let timer_total tm = Stats.Welford.mean tm.spans *. float_of_int (Stats.Welford.count tm.spans)

let timer_max tm =
  if Stats.Welford.count tm.spans = 0 then 0. else Stats.Welford.max_value tm.spans

let timer_quantile tm q =
  if q < 0. || q > 1. then invalid_arg "Metrics.timer_quantile: q in [0, 1]";
  let n = Array.fold_left ( + ) 0 tm.buckets in
  if n = 0 then 0.
  else begin
    let target = q *. float_of_int n in
    let rec scan i acc =
      if i >= bucket_count - 1 then i
      else
        let acc' = acc + tm.buckets.(i) in
        if acc' > 0 && float_of_int acc' >= target then i else scan (i + 1) acc'
    in
    bucket_mid (scan 0 0)
  end

(* ------------------------------------------------------------------ *)
(* Merging                                                             *)

(* Counter and timer merges are exact sums, so a parallel sweep whose
   workers record into private registries snapshots the same counts as a
   sequential run (timer durations are wall-clock and vary run to run
   regardless).  A gauge's last value is taken from [src] only when [src]
   actually updated it — under dynamic work assignment which worker wrote
   last is scheduling-dependent, so gauges are best-effort. *)
let merge_into ~into src =
  (* Disabled target first: forks of a disabled context all share the
     [disabled] singleton, and merging nothing into nothing is fine. *)
  if into.on then begin
    if into == src then invalid_arg "Metrics.merge_into: registry merged into itself";
    Hashtbl.iter
      (fun name (c : counter) ->
        let d = counter into name in
        d.count <- d.count + c.count)
      src.counters;
    Hashtbl.iter
      (fun name (g : gauge) ->
        let d = gauge into name in
        if g.updates > 0 then begin
          d.last <- g.last;
          if g.peak > d.peak then d.peak <- g.peak;
          d.updates <- d.updates + g.updates
        end)
      src.gauges;
    (* High watermarks max-merge, so the combined value is the true peak
       across domains whatever order the workers are absorbed in. *)
    Hashtbl.iter
      (fun name (w : hwm) ->
        let d = hwm into name in
        if w.w_updates > 0 then begin
          if w.high > d.high then d.high <- w.high;
          d.w_updates <- d.w_updates + w.w_updates
        end)
      src.hwms;
    Hashtbl.iter
      (fun name (tm : timer) ->
        let d = timer into name in
        d.spans <- Stats.Welford.merge d.spans tm.spans;
        Array.iteri (fun i c -> d.buckets.(i) <- d.buckets.(i) + c) tm.buckets)
      src.timers
  end

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)

let sorted_bindings table =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let counter_values t =
  if not t.on then []
  else List.map (fun (name, c) -> (name, c.count)) (sorted_bindings t.counters)

let snapshot t =
  let counters =
    List.map (fun (name, c) -> (name, Jsonx.Int c.count)) (sorted_bindings t.counters)
  in
  let hwms =
    List.map
      (fun (name, w) ->
        ( name,
          Jsonx.Obj
            [
              ("value", Jsonx.Float (hwm_value w));
              ("updates", Jsonx.Int w.w_updates);
            ] ))
      (sorted_bindings t.hwms)
  in
  let gauges =
    List.map
      (fun (name, g) ->
        ( name,
          Jsonx.Obj
            [
              ("value", Jsonx.Float g.last);
              ("peak", Jsonx.Float (peak g));
              ("updates", Jsonx.Int g.updates);
            ] ))
      (sorted_bindings t.gauges)
  in
  let timers =
    List.map
      (fun (name, tm) ->
        let w = tm.spans in
        let n = Stats.Welford.count w in
        ( name,
          Jsonx.Obj
            [
              ("count", Jsonx.Int n);
              ("total_s", Jsonx.Float (timer_total tm));
              ("mean_s", Jsonx.Float (Stats.Welford.mean w));
              ("min_s", Jsonx.Float (if n = 0 then 0. else Stats.Welford.min_value w));
              ("max_s", Jsonx.Float (if n = 0 then 0. else Stats.Welford.max_value w));
              ("p50_s", Jsonx.Float (timer_quantile tm 0.50));
              ("p95_s", Jsonx.Float (timer_quantile tm 0.95));
              ("p99_s", Jsonx.Float (timer_quantile tm 0.99));
            ] ))
      (sorted_bindings t.timers)
  in
  Jsonx.Obj
    [
      ("enabled", Jsonx.Bool t.on);
      ("counters", Jsonx.Obj counters);
      ("gauges", Jsonx.Obj gauges);
      ("hwm", Jsonx.Obj hwms);
      ("timers", Jsonx.Obj timers);
    ]
