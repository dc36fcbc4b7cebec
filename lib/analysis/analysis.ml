type rates = {
  lambda : float;
  mu : float;
  gamma : float;
  p_f : float;
  p_s : float;
  arrivals : int;
  chain_samples : int;
}

type failure_window = {
  fail_time : float;
  retreats : int;
  upgrades : int;
  activations : int;
  drops : int;
  first_activation_dt : float option;
}

type audit = {
  levels : int;
  rates_used : rates;
  empirical : float array;
  analytic : float array;
  linf : float;
  l1 : float;
}

type request_record = {
  rq_rid : int;
  rq_verb : string;
  rq_ok : bool;
  rq_total_s : float;
  rq_stages : (string * float) list;
  rq_has_begin : bool;
  rq_complete : bool;
  rq_client : (string * float * float) option;
}

type stage_stat = {
  st_stage : string;
  st_count : int;
  st_total_s : float;
  st_p50_s : float;
  st_p95_s : float;
  st_p99_s : float;
  st_tail_share : float;
}

(* One channel's replayed belief: current level, when it got there, and
   the full step history (newest first). *)
type chan = {
  mutable c_level : int;
  mutable c_since : float;
  mutable c_steps : (float * int) list;
  mutable c_open : bool;
}

type t = {
  events : (float * Trace.event) array;
  horizon : float;
  chans : (int, chan) Hashtbl.t;
  residence : float array; (* seconds of channel-time at each level *)
  counts : (string * int) list;
  rejects : (string * int) list;
  r : rates;
  fails : float list; (* each in trace order *)
  retreat_ts : float list;
  upgrade_ts : float list;
  activation_ts : float list;
  drop_ts : float list;
  spans : Span.agg list;
  max_depth : int;
  snaps : (float * Trace.snapshot) list; (* in trace order *)
  hbs : (float * Trace.heartbeat) list;
  reqs : (int, req_cell) Hashtbl.t;
}

(* One request's replayed belief, keyed by rid; server-side records
   ([Req_begin]/[Req_stage]/[Req_end]) and the client-side [Req_client]
   line land in the same cell, joining the two traces. *)
and req_cell = {
  mutable q_verb : string;
  mutable q_ok : bool;
  mutable q_total : float;
  mutable q_stages : (string * float) list; (* reversed *)
  mutable q_begin : bool;
  mutable q_end : bool;
  mutable q_ends : int;
  mutable q_client : (string * float * float) option;
}

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)

let bump tbl key = Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let sorted_counts tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let of_events evs =
  let events = Array.of_list evs in
  let horizon = Array.fold_left (fun acc (tm, _) -> Float.max acc tm) 0. events in
  let chans = Hashtbl.create 64 in
  let residence = ref (Array.make 16 0.) in
  let max_level = ref (-1) in
  let live = ref 0 in
  let accrue level dt =
    if level > !max_level then max_level := level;
    if level >= Array.length !residence then begin
      let a = Array.make (max (level + 1) (2 * Array.length !residence)) 0. in
      Array.blit !residence 0 a 0 (Array.length !residence);
      residence := a
    end;
    !residence.(level) <- !residence.(level) +. dt
  in
  (* Admission emits the water-filling upgrades for the new channel
     before its own [admit] record, so an unknown channel can first
     appear through a level change: create it at that event's
     [from_level] and let the later [admit] find it already live. *)
  let ensure id ~level ~time =
    match Hashtbl.find_opt chans id with
    | Some c -> c
    | None ->
      accrue level 0.;
      let c = { c_level = level; c_since = time; c_steps = [ (time, level) ]; c_open = true } in
      Hashtbl.replace chans id c;
      incr live;
      c
  in
  let set_level id ~from_level ~to_level ~time =
    let c = ensure id ~level:from_level ~time in
    if c.c_open then begin
      accrue c.c_level (time -. c.c_since);
      c.c_level <- to_level;
      c.c_since <- time;
      c.c_steps <- (time, to_level) :: c.c_steps;
      accrue to_level 0.
    end
  in
  let close id ~time =
    match Hashtbl.find_opt chans id with
    | Some c when c.c_open ->
      accrue c.c_level (time -. c.c_since);
      c.c_open <- false;
      decr live
    | _ -> ()
  in
  let counts = Hashtbl.create 32 in
  let rejects = Hashtbl.create 8 in
  let arrivals = ref 0 in
  let terminations = ref 0 in
  let failures = ref 0 in
  let direct_sum = ref 0 in
  let indirect_sum = ref 0 in
  let chain_samples = ref 0 in
  let fails = ref [] in
  let retreat_ts = ref [] in
  let upgrade_ts = ref [] in
  let activation_ts = ref [] in
  let drop_ts = ref [] in
  (* [Span_end] records replay through the profiler's own aggregation. *)
  let prof = Span.create ~keep:0 () in
  let depth = ref 0 in
  let max_depth = ref 0 in
  let snaps = ref [] in
  let hbs = ref [] in
  let reqs : (int, req_cell) Hashtbl.t = Hashtbl.create 256 in
  let req_cell rid =
    match Hashtbl.find_opt reqs rid with
    | Some c -> c
    | None ->
      let c =
        {
          q_verb = "";
          q_ok = false;
          q_total = 0.;
          q_stages = [];
          q_begin = false;
          q_end = false;
          q_ends = 0;
          q_client = None;
        }
      in
      Hashtbl.replace reqs rid c;
      c
  in
  Array.iter
    (fun (time, ev) ->
      bump counts (Trace.kind ev);
      match ev with
      | Trace.Admit { channel; direct; indirect } ->
        let known =
          match Hashtbl.find_opt chans channel with Some c -> c.c_open | None -> false
        in
        let existing = if known then !live - 1 else !live in
        ignore (ensure channel ~level:0 ~time);
        if time > 0. then begin
          incr arrivals;
          if existing > 0 then begin
            direct_sum := !direct_sum + direct;
            indirect_sum := !indirect_sum + indirect;
            chain_samples := !chain_samples + existing
          end
        end
      | Reject { reason } ->
        bump rejects reason;
        if time > 0. then incr arrivals
      | Terminate { channel } ->
        close channel ~time;
        if time > 0. then incr terminations
      | Upgrade { channel; from_level; to_level } ->
        set_level channel ~from_level ~to_level ~time;
        upgrade_ts := time :: !upgrade_ts
      | Retreat { channel; from_level; to_level } ->
        set_level channel ~from_level ~to_level ~time;
        retreat_ts := time :: !retreat_ts
      | Link_fail _ ->
        incr failures;
        fails := time :: !fails
      | Link_repair _ -> ()
      | Backup_activate { channel; _ } ->
        (* The backup becomes the primary at the floor; no level event
           records that restart. *)
        set_level channel ~from_level:0 ~to_level:0 ~time;
        activation_ts := time :: !activation_ts
      | Backup_lost _ -> ()
      | Drop { channel } ->
        close channel ~time;
        drop_ts := time :: !drop_ts
      | Restore { channel; _ } ->
        (* Restoration re-admitted the connection under a fresh id, whose
           [admit] came first; the old id ends here. *)
        close channel ~time
      | Solve _ -> ()
      | Req_begin { rid; verb } ->
        let c = req_cell rid in
        c.q_begin <- true;
        if c.q_verb = "" then c.q_verb <- verb
      | Req_stage { rid; stage; seconds } ->
        let c = req_cell rid in
        c.q_stages <- (stage, seconds) :: c.q_stages
      | Req_end { rid; verb; ok; total_s } ->
        let c = req_cell rid in
        c.q_verb <- verb;
        c.q_ok <- ok;
        c.q_total <- total_s;
        c.q_end <- true;
        c.q_ends <- c.q_ends + 1
      | Req_client { rid; verb; sched_s; latency_s } ->
        let c = req_cell rid in
        c.q_client <- Some (verb, sched_s, latency_s)
      | Phase_begin _ | Phase_end _ | Note _ -> ()
      | Span_begin _ ->
        incr depth;
        if !depth > !max_depth then max_depth := !depth
      | Span_end { name; wall_s; total_s; self_s; minor_words; major_words } ->
        if !depth > 0 then decr depth;
        Span.add prof
          {
            Span.name;
            depth = !depth;
            start_s = wall_s -. total_s;
            total_s;
            self_s;
            minor_words;
            major_words;
          }
      | Snapshot s -> snaps := (time, s) :: !snaps
      | Heartbeat h -> hbs := (time, h) :: !hbs)
    events;
  (* Channels still live at the end of the trace accrue to the horizon. *)
  Hashtbl.iter (fun _ c -> if c.c_open then accrue c.c_level (horizon -. c.c_since)) chans;
  let r =
    let per_time n = if horizon > 0. then float_of_int n /. horizon else 0. in
    let ratio num den = if den > 0 then float_of_int num /. float_of_int den else 0. in
    {
      lambda = per_time !arrivals;
      mu = per_time !terminations;
      gamma = per_time !failures;
      p_f = ratio !direct_sum !chain_samples;
      p_s = ratio !indirect_sum !chain_samples;
      arrivals = !arrivals;
      chain_samples = !chain_samples;
    }
  in
  {
    events;
    horizon;
    chans;
    residence = Array.sub !residence 0 (max 0 (!max_level + 1));
    counts = sorted_counts counts;
    rejects = sorted_counts rejects;
    r;
    fails = List.rev !fails;
    retreat_ts = List.rev !retreat_ts;
    upgrade_ts = List.rev !upgrade_ts;
    activation_ts = List.rev !activation_ts;
    drop_ts = List.rev !drop_ts;
    spans = Span.aggregate prof;
    max_depth = !max_depth;
    snaps = List.rev !snaps;
    hbs = List.rev !hbs;
    reqs;
  }

let events_of_channel ic =
  List.rev
    (Jsonx.fold_lines ic ~init:[] ~f:(fun acc ~line doc ->
         match Trace.of_json doc with
         | Ok te -> te :: acc
         | Error message -> raise (Jsonx.Line_error { line; message })))

let of_file path = of_events (In_channel.with_open_text path events_of_channel)

let load paths =
  let rec go acc = function
    | [] -> Ok (of_events (List.concat (List.rev acc)))
    | path :: rest -> (
      match In_channel.with_open_text path events_of_channel with
      | evs -> go (evs :: acc) rest
      | exception Sys_error msg -> Error msg
      | exception Jsonx.Line_error { line; message } ->
        Error (Printf.sprintf "%s:%d: %s" path line message))
  in
  go [] paths

(* ------------------------------------------------------------------ *)
(* Views                                                               *)

let event_count t = Array.length t.events
let horizon t = t.horizon
let event_counts t = t.counts
let rejections t = t.rejects

let channels t =
  Hashtbl.fold (fun id _ acc -> id :: acc) t.chans [] |> List.sort compare

let timeline t id =
  match Hashtbl.find_opt t.chans id with
  | None -> []
  | Some c -> List.rev c.c_steps

let residency ?(levels = 0) t =
  let n = max levels (Array.length t.residence) in
  let out = Array.make n 0. in
  Array.blit t.residence 0 out 0 (Array.length t.residence);
  let total = Array.fold_left ( +. ) 0. out in
  if total > 0. then Array.map (fun x -> x /. total) out else out

let estimate_rates t = t.r

let failure_windows ?(window = 10.) t =
  let in_window tf ts = List.filter (fun tv -> tv >= tf && tv <= tf +. window) ts in
  List.map
    (fun tf ->
      let acts = in_window tf t.activation_ts in
      {
        fail_time = tf;
        retreats = List.length (in_window tf t.retreat_ts);
        upgrades = List.length (in_window tf t.upgrade_ts);
        activations = List.length acts;
        drops = List.length (in_window tf t.drop_ts);
        first_activation_dt =
          (match acts with [] -> None | _ -> Some (List.fold_left Float.min infinity acts -. tf));
      })
    t.fails

let audit ?levels ?lambda ?mu ?gamma ?p_f ?p_s t =
  let est = t.r in
  let pick opt v = Option.value ~default:v opt in
  let n = max (Option.value ~default:0 levels) (max 1 (Array.length t.residence)) in
  let rates_used =
    {
      est with
      lambda = pick lambda est.lambda;
      mu = pick mu est.mu;
      gamma = pick gamma est.gamma;
      p_f = pick p_f est.p_f;
      p_s = pick p_s est.p_s;
    }
  in
  let p =
    Model.synthetic ~lambda:rates_used.lambda ~mu:rates_used.mu ~gamma:rates_used.gamma
      ~p_f:rates_used.p_f ~p_s:rates_used.p_s ~levels:n
  in
  let analytic = Ctmc.stationary (Model.build_regularized p) in
  let empirical = residency ~levels:n t in
  let linf = ref 0. and l1 = ref 0. in
  Array.iteri
    (fun i e ->
      let d = Float.abs (e -. analytic.(i)) in
      if d > !linf then linf := d;
      l1 := !l1 +. d)
    empirical;
  { levels = n; rates_used; empirical; analytic; linf = !linf; l1 = !l1 }

let top_spans ?limit t =
  match limit with
  | None -> t.spans
  | Some n -> List.filteri (fun i _ -> i < n) t.spans

let max_span_depth t = t.max_depth

(* ------------------------------------------------------------------ *)
(* Telemetry views                                                     *)

let snapshots t = t.snaps
let heartbeats t = t.hbs

(* Event-dispatch rate between successive snapshots of the same stream:
   streams restart their sequence at 0 per run (a concatenated sweep
   file contains several), so only consecutive points with increasing
   seq and time form an interval. *)
let ops_series t =
  let rec go acc = function
    | (ta, (a : Trace.snapshot)) :: ((tb, (b : Trace.snapshot)) :: _ as rest) ->
      let dt = tb -. ta in
      let acc =
        if b.seq > a.seq && dt > 0. then
          (tb, float_of_int (b.events - a.events) /. dt) :: acc
        else acc
      in
      go acc rest
    | _ -> List.rev acc
  in
  go [] t.snaps

let median = function
  | [] -> 0.
  | xs ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    a.(Array.length a / 2)

let stalls ?(factor = 3.) ?expected t =
  if factor <= 0. then invalid_arg "Analysis.stalls: factor must be positive";
  let rec gaps acc = function
    | (_, (a : Trace.heartbeat)) :: ((_, (b : Trace.heartbeat)) :: _ as rest) ->
      let acc =
        if b.seq > a.seq then (b.wall_s, b.wall_s -. a.wall_s) :: acc else acc
      in
      gaps acc rest
    | _ -> List.rev acc
  in
  let gaps = gaps [] t.hbs in
  let expected =
    match expected with Some e -> e | None -> median (List.map snd gaps)
  in
  if expected <= 0. then []
  else List.filter (fun (_, gap) -> gap > factor *. expected) gaps

(* ------------------------------------------------------------------ *)
(* Request anatomy                                                     *)

let requests t =
  Hashtbl.fold (fun rid c acc -> (rid, c) :: acc) t.reqs []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map (fun (rid, c) ->
         {
           rq_rid = rid;
           rq_verb = c.q_verb;
           rq_ok = c.q_ok;
           rq_total_s = c.q_total;
           rq_stages = List.rev c.q_stages;
           rq_has_begin = c.q_begin;
           rq_complete = c.q_end;
           rq_client = c.q_client;
         })

let request_check t =
  Hashtbl.fold (fun rid c acc -> (rid, c) :: acc) t.reqs []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.concat_map (fun (rid, c) ->
         let v = [] in
         let v =
           if c.q_end && not c.q_begin then
             Printf.sprintf "rid %d: req_end without req_begin" rid :: v
           else v
         in
         let v =
           if c.q_ends > 1 then
             Printf.sprintf "rid %d: %d req_end records (rid collision?)" rid
               c.q_ends
             :: v
           else v
         in
         let v =
           List.fold_left
             (fun v (stage, s) ->
               if s < 0. then
                 Printf.sprintf "rid %d: negative %s stage (%g s)" rid stage s
                 :: v
               else v)
             v c.q_stages
         in
         let v =
           if c.q_end && c.q_total < 0. then
             Printf.sprintf "rid %d: negative total (%g s)" rid c.q_total :: v
           else v
         in
         List.rev v)

(* Canonical stage order first ({!Reqtrace.all_stages} is the pipeline
   order), then any stage name the trace invented, by appearance. *)
let stage_order recs =
  let canon = List.map Reqtrace.stage_name Reqtrace.all_stages in
  let extra = ref [] in
  List.iter
    (fun r ->
      List.iter
        (fun (st, _) ->
          if (not (List.mem st canon)) && not (List.mem st !extra) then
            extra := st :: !extra)
        r.rq_stages)
    recs;
  canon @ List.rev !extra

let exact_quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    sorted.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let stage_anatomy t =
  let recs = List.filter (fun r -> r.rq_complete) (requests t) in
  match recs with
  | [] -> []
  | recs ->
    let totals =
      Array.of_list (List.map (fun r -> r.rq_total_s) recs)
    in
    Array.sort Float.compare totals;
    let tail_cut = exact_quantile totals 0.99 in
    let tail = List.filter (fun r -> r.rq_total_s >= tail_cut) recs in
    let tail_total =
      List.fold_left (fun acc r -> acc +. r.rq_total_s) 0. tail
    in
    List.filter_map
      (fun stage ->
        let samples =
          List.filter_map (fun r -> List.assoc_opt stage r.rq_stages) recs
        in
        match samples with
        | [] -> None
        | samples ->
          let a = Array.of_list samples in
          Array.sort Float.compare a;
          let tail_stage =
            List.fold_left
              (fun acc r ->
                acc +. Option.value ~default:0. (List.assoc_opt stage r.rq_stages))
              0. tail
          in
          Some
            {
              st_stage = stage;
              st_count = Array.length a;
              st_total_s = Array.fold_left ( +. ) 0. a;
              st_p50_s = exact_quantile a 0.5;
              st_p95_s = exact_quantile a 0.95;
              st_p99_s = exact_quantile a 0.99;
              st_tail_share =
                (if tail_total > 0. then tail_stage /. tail_total else 0.);
            })
      (stage_order recs)

type attribution = {
  at_joined : int;
  at_client_s : float;
  at_server_s : float;
  at_bound_s : float;
  at_attributed_95 : int;
  at_over : int;
}

(* Client latency minus the server stage sum is network + socket-queue
   time (the residual bucket).  Stages + residual tile the client
   latency exactly unless the stage sum exceeds what the client clocked
   — an over-attributed request, which would mean the decomposition is
   inconsistent — so a request's attributed fraction is
   latency / max(latency, stage sum), 1 when consistent. *)
let attribution t =
  let joined =
    List.filter (fun r -> r.rq_complete && Option.is_some r.rq_client) (requests t)
  in
  let count b = if b then 1 else 0 in
  List.fold_left
    (fun a r ->
      match r.rq_client with
      | Some (_, _, latency) when latency > 0. ->
        let sum = r.rq_total_s in
        {
          a with
          at_client_s = a.at_client_s +. latency;
          at_server_s = a.at_server_s +. Float.min latency sum;
          at_bound_s = a.at_bound_s +. Float.max latency sum;
          at_attributed_95 =
            a.at_attributed_95 + count (latency /. Float.max latency sum >= 0.95);
          at_over = a.at_over + count (sum > latency);
        }
      | _ -> a)
    {
      at_joined = List.length joined;
      at_client_s = 0.;
      at_server_s = 0.;
      at_bound_s = 0.;
      at_attributed_95 = 0;
      at_over = 0;
    }
    joined

(* ------------------------------------------------------------------ *)
(* Perfetto export                                                     *)

(* The Chrome trace-event envelope both exports share: the
   [{"traceEvents": [...]}] document of the entries [emit push] pushes,
   in order, with timestamps in microseconds. *)
let perfetto_doc emit =
  let out = ref [] in
  emit (fun ev -> out := ev :: !out);
  Jsonx.Obj [ ("traceEvents", Jsonx.List (List.rev !out)) ]

(* The ["M"] record naming the process (tid 0) or one of its threads. *)
let meta ~tid name =
  Jsonx.Obj
    [
      ("name", Jsonx.String (if tid = 0 then "process_name" else "thread_name"));
      ("ph", Jsonx.String "M");
      ("pid", Jsonx.Int 1);
      ("tid", Jsonx.Int tid);
      ("args", Jsonx.Obj [ ("name", Jsonx.String name) ]);
    ]

let us x = x *. 1e6

(* Two tracks under one pid: tid 1 carries the profiler spans on their
   wall-time axis, tid 2 carries the simulation (phases as spans, every
   other event as an instant) on simulation time.  The two axes are
   unrelated; the export keeps them on separate tracks precisely so the
   viewer never mixes them.  Timestamps are clamped non-decreasing per
   track so the file loads whatever the trace contains. *)
let to_perfetto t =
  perfetto_doc @@ fun push ->
  push (meta ~tid:0 "drqos trace");
  push (meta ~tid:1 "profiler (wall time)");
  push (meta ~tid:2 "simulation (sim time)");
  let last = [| 0.; 0. |] in
  (* track index 0 = tid 1, 1 = tid 2 *)
  let clamp track ts =
    let ts = if ts < last.(track) then last.(track) else ts in
    last.(track) <- ts;
    ts
  in
  let entry ~name ~ph ~tid ~ts args =
    Jsonx.Obj
      ([
         ("name", Jsonx.String name);
         ("ph", Jsonx.String ph);
         ("pid", Jsonx.Int 1);
         ("tid", Jsonx.Int tid);
         ("ts", Jsonx.Float ts);
       ]
      @ args)
  in
  (* Event fields become Perfetto args; drop the envelope keys. *)
  let args_of ~time ev =
    match Trace.to_json ~time ev with
    | Jsonx.Obj fields ->
      let payload = List.filter (fun (k, _) -> k <> "t" && k <> "ev") fields in
      if payload = [] then [] else [ ("args", Jsonx.Obj payload) ]
    | _ -> []
  in
  Array.iter
    (fun (time, ev) ->
      match ev with
      | Trace.Span_begin { name; wall_s } ->
        push (entry ~name ~ph:"B" ~tid:1 ~ts:(clamp 0 (us wall_s)) [])
      | Span_end { name; wall_s; total_s; self_s; minor_words; major_words } ->
        push
          (entry ~name ~ph:"E" ~tid:1 ~ts:(clamp 0 (us wall_s))
             [
               ( "args",
                 Jsonx.Obj
                   [
                     ("total_s", Jsonx.Float total_s);
                     ("self_s", Jsonx.Float self_s);
                     ("minor_words", Jsonx.Float minor_words);
                     ("major_words", Jsonx.Float major_words);
                   ] );
             ])
      | Phase_begin { name } -> push (entry ~name ~ph:"B" ~tid:2 ~ts:(clamp 1 (us time)) [])
      | Phase_end { name; seconds } ->
        push
          (entry ~name ~ph:"E" ~tid:2 ~ts:(clamp 1 (us time))
             [ ("args", Jsonx.Obj [ ("seconds", Jsonx.Float seconds) ]) ])
      (* Telemetry snapshots render as a Perfetto counter track, so the
         viewer plots live channels as a curve over simulation time. *)
      | Snapshot { live; _ } ->
        push
          (entry ~name:"telemetry" ~ph:"C" ~tid:2 ~ts:(clamp 1 (us time))
             [ ("args", Jsonx.Obj [ ("live", Jsonx.Int live) ]) ])
      (* Everything else renders as an instant event.  Spelled out (not
         [_]) so adding a Trace constructor forces a choice here. *)
      | Admit _ | Reject _ | Terminate _ | Upgrade _ | Retreat _ | Link_fail _
      | Link_repair _ | Backup_activate _ | Backup_lost _ | Drop _ | Restore _
      | Solve _ | Note _ | Heartbeat _ | Req_begin _ | Req_stage _ | Req_end _
      | Req_client _ ->
        push
          (entry ~name:(Trace.kind ev) ~ph:"i" ~tid:2 ~ts:(clamp 1 (us time))
             (("s", Jsonx.String "t") :: args_of ~time ev)))
    t.events

(* Tail-anatomy export: one thread per stage (pipeline order), requests
   laid end-to-end on a synthetic duration axis — request N starts where
   request N-1's total ended, each stage an "X" complete slice on its
   own track at its offset within the request.  Joined requests add the
   network+queue residual (client latency minus server stage sum) on a
   final track, so the viewer shows where each request's client-observed
   time went, stage by stage, without needing the two traces to share a
   clock origin. *)
let requests_to_perfetto t =
  let recs = List.filter (fun r -> r.rq_complete) (requests t) in
  let stages = stage_order recs in
  perfetto_doc @@ fun push ->
  push (meta ~tid:0 "drqos request anatomy");
  List.iteri (fun i st -> push (meta ~tid:(i + 1) ("stage: " ^ st))) stages;
  let residual_tid = List.length stages + 1 in
  push (meta ~tid:residual_tid "network+queue (client residual)");
  let tid_of st =
    let rec go i = function
      | [] -> residual_tid
      | s :: rest -> if s = st then i else go (i + 1) rest
    in
    go 1 stages
  in
  let base = ref 0. in
  List.iter
    (fun r ->
      let name = if r.rq_verb = "" then "request" else r.rq_verb in
      let off = ref 0. in
      List.iter
        (fun (st, s) ->
          let s = Float.max 0. s in
          push
            (Jsonx.Obj
               [
                 ("name", Jsonx.String name);
                 ("ph", Jsonx.String "X");
                 ("pid", Jsonx.Int 1);
                 ("tid", Jsonx.Int (tid_of st));
                 ("ts", Jsonx.Float (us (!base +. !off)));
                 ("dur", Jsonx.Float (us s));
                 ( "args",
                   Jsonx.Obj
                     [ ("rid", Jsonx.Int r.rq_rid); ("ok", Jsonx.Bool r.rq_ok) ]
                 );
               ]);
          off := !off +. s)
        r.rq_stages;
      (match r.rq_client with
      | Some (_, _, latency_s) when latency_s > !off ->
        push
          (Jsonx.Obj
             [
               ("name", Jsonx.String name);
               ("ph", Jsonx.String "X");
               ("pid", Jsonx.Int 1);
               ("tid", Jsonx.Int residual_tid);
               ("ts", Jsonx.Float (us (!base +. !off)));
               ("dur", Jsonx.Float (us (latency_s -. !off)));
               ("args", Jsonx.Obj [ ("rid", Jsonx.Int r.rq_rid) ]);
             ])
      | Some _ | None -> ());
      let span =
        match r.rq_client with
        | Some (_, _, latency_s) -> Float.max latency_s !off
        | None -> !off
      in
      base := !base +. Float.max span 1e-9)
    recs
