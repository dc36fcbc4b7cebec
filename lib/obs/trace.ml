(* The telemetry payloads share the labels [seq] and [d_events], so they
   are declared before [event] rather than joined to it with [and]:
   warning 30 rejects duplicate labels within one recursive type group. *)
type snapshot = {
  seq : int;
  events : int;
  d_events : int;
  live : int;
  live_by_level : int list;
  peak_live : int;
  hot : (int * int) list;
  counters : (string * int) list;
  slo_good : int;
  slo_bad : int;
  slo_burn : float;
}

type heartbeat = {
  seq : int;
  wall_s : float;
  d_events : int;
  ops_per_s : float;
  minor_words : float;
  major_words : float;
  heap_words : int;
}

type event =
  | Admit of { channel : int; direct : int; indirect : int }
  | Reject of { reason : string }
  | Terminate of { channel : int }
  | Upgrade of { channel : int; from_level : int; to_level : int }
  | Retreat of { channel : int; from_level : int; to_level : int }
  | Link_fail of { edge : int }
  | Link_repair of { edge : int }
  | Backup_activate of { channel : int; reprotected : bool }
  | Backup_lost of { channel : int; replaced : bool }
  | Drop of { channel : int }
  | Restore of { channel : int; with_backup : bool }
  | Solve of { what : string; states : int; seconds : float }
  | Phase_begin of { name : string }
  | Phase_end of { name : string; seconds : float }
  | Span_begin of { name : string; wall_s : float }
  | Span_end of {
      name : string;
      wall_s : float;
      total_s : float;
      self_s : float;
      minor_words : float;
      major_words : float;
    }
  | Note of { name : string; fields : (string * Jsonx.t) list }
  | Req_begin of { rid : int; verb : string }
  | Req_stage of { rid : int; stage : string; seconds : float }
  | Req_end of { rid : int; verb : string; ok : bool; total_s : float }
  | Req_client of {
      rid : int;
      verb : string;
      sched_s : float;
      latency_s : float;
    }
  | Snapshot of snapshot
  | Heartbeat of heartbeat

let kind = function
  | Admit _ -> "admit"
  | Reject _ -> "reject"
  | Terminate _ -> "terminate"
  | Upgrade _ -> "upgrade"
  | Retreat _ -> "retreat"
  | Link_fail _ -> "link_fail"
  | Link_repair _ -> "link_repair"
  | Backup_activate _ -> "backup_activate"
  | Backup_lost _ -> "backup_lost"
  | Drop _ -> "drop"
  | Restore _ -> "restore"
  | Solve _ -> "solve"
  | Phase_begin _ -> "phase_begin"
  | Phase_end _ -> "phase_end"
  | Span_begin _ -> "span_begin"
  | Span_end _ -> "span_end"
  | Note _ -> "note"
  | Req_begin _ -> "req_begin"
  | Req_stage _ -> "req_stage"
  | Req_end _ -> "req_end"
  | Req_client _ -> "req_client"
  | Snapshot _ -> "snapshot"
  | Heartbeat _ -> "heartbeat"

let fields = function
  | Admit { channel; direct; indirect } ->
    [
      ("channel", Jsonx.Int channel);
      ("direct", Jsonx.Int direct);
      ("indirect", Jsonx.Int indirect);
    ]
  | Reject { reason } -> [ ("reason", Jsonx.String reason) ]
  | Terminate { channel } -> [ ("channel", Jsonx.Int channel) ]
  | Upgrade { channel; from_level; to_level }
  | Retreat { channel; from_level; to_level } ->
    [
      ("channel", Jsonx.Int channel);
      ("from", Jsonx.Int from_level);
      ("to", Jsonx.Int to_level);
    ]
  | Link_fail { edge } | Link_repair { edge } -> [ ("edge", Jsonx.Int edge) ]
  | Backup_activate { channel; reprotected } ->
    [ ("channel", Jsonx.Int channel); ("reprotected", Jsonx.Bool reprotected) ]
  | Backup_lost { channel; replaced } ->
    [ ("channel", Jsonx.Int channel); ("replaced", Jsonx.Bool replaced) ]
  | Drop { channel } -> [ ("channel", Jsonx.Int channel) ]
  | Restore { channel; with_backup } ->
    [ ("channel", Jsonx.Int channel); ("with_backup", Jsonx.Bool with_backup) ]
  | Solve { what; states; seconds } ->
    [
      ("what", Jsonx.String what);
      ("states", Jsonx.Int states);
      ("seconds", Jsonx.Float seconds);
    ]
  | Phase_begin { name } -> [ ("name", Jsonx.String name) ]
  | Phase_end { name; seconds } ->
    [ ("name", Jsonx.String name); ("seconds", Jsonx.Float seconds) ]
  | Span_begin { name; wall_s } ->
    [ ("name", Jsonx.String name); ("wall_s", Jsonx.Float wall_s) ]
  | Span_end { name; wall_s; total_s; self_s; minor_words; major_words } ->
    [
      ("name", Jsonx.String name);
      ("wall_s", Jsonx.Float wall_s);
      ("total_s", Jsonx.Float total_s);
      ("self_s", Jsonx.Float self_s);
      ("minor_words", Jsonx.Float minor_words);
      ("major_words", Jsonx.Float major_words);
    ]
  | Note { name; fields } -> ("name", Jsonx.String name) :: fields
  | Req_begin { rid; verb } ->
    [ ("rid", Jsonx.Int rid); ("verb", Jsonx.String verb) ]
  | Req_stage { rid; stage; seconds } ->
    [
      ("rid", Jsonx.Int rid);
      ("stage", Jsonx.String stage);
      ("seconds", Jsonx.Float seconds);
    ]
  | Req_end { rid; verb; ok; total_s } ->
    [
      ("rid", Jsonx.Int rid);
      ("verb", Jsonx.String verb);
      ("ok", Jsonx.Bool ok);
      ("total_s", Jsonx.Float total_s);
    ]
  | Req_client { rid; verb; sched_s; latency_s } ->
    [
      ("rid", Jsonx.Int rid);
      ("verb", Jsonx.String verb);
      ("sched_s", Jsonx.Float sched_s);
      ("latency_s", Jsonx.Float latency_s);
    ]
  | Snapshot s ->
    [
      ("seq", Jsonx.Int s.seq);
      ("events", Jsonx.Int s.events);
      ("d_events", Jsonx.Int s.d_events);
      ("live", Jsonx.Int s.live);
      ("levels", Jsonx.List (List.map (fun n -> Jsonx.Int n) s.live_by_level));
      ("peak_live", Jsonx.Int s.peak_live);
      ( "hot",
        Jsonx.List
          (List.map
             (fun (key, cnt) -> Jsonx.List [ Jsonx.Int key; Jsonx.Int cnt ])
             s.hot) );
      ("counters", Jsonx.Obj (List.map (fun (k, v) -> (k, Jsonx.Int v)) s.counters));
      ("slo_good", Jsonx.Int s.slo_good);
      ("slo_bad", Jsonx.Int s.slo_bad);
      ("slo_burn", Jsonx.Float s.slo_burn);
    ]
  | Heartbeat h ->
    [
      ("seq", Jsonx.Int h.seq);
      ("wall_s", Jsonx.Float h.wall_s);
      ("d_events", Jsonx.Int h.d_events);
      ("ops_per_s", Jsonx.Float h.ops_per_s);
      ("minor_words", Jsonx.Float h.minor_words);
      ("major_words", Jsonx.Float h.major_words);
      ("heap_words", Jsonx.Int h.heap_words);
    ]

let to_json ~time ev =
  Jsonx.Obj (("t", Jsonx.Float time) :: ("ev", Jsonx.String (kind ev)) :: fields ev)

(* ------------------------------------------------------------------ *)
(* Parsing (the inverse of [to_json], consumed by lib/analysis)         *)

let of_json doc =
  let ( let* ) r f = Result.bind r f in
  let int name = Jsonx.field name Jsonx.to_int doc in
  let num name = Jsonx.field name Jsonx.to_float doc in
  let str name = Jsonx.field name Jsonx.to_str doc in
  let bool name = Jsonx.field name Jsonx.to_bool doc in
  let* time = num "t" in
  let* k = str "ev" in
  let* ev =
    match k with
    | "admit" ->
      let* channel = int "channel" in
      let* direct = int "direct" in
      let* indirect = int "indirect" in
      Ok (Admit { channel; direct; indirect })
    | "reject" ->
      let* reason = str "reason" in
      Ok (Reject { reason })
    | "terminate" ->
      let* channel = int "channel" in
      Ok (Terminate { channel })
    | "upgrade" | "retreat" ->
      let* channel = int "channel" in
      let* from_level = int "from" in
      let* to_level = int "to" in
      Ok
        (if k = "upgrade" then Upgrade { channel; from_level; to_level }
         else Retreat { channel; from_level; to_level })
    | "link_fail" | "link_repair" ->
      let* edge = int "edge" in
      Ok (if k = "link_fail" then Link_fail { edge } else Link_repair { edge })
    | "backup_activate" ->
      let* channel = int "channel" in
      let* reprotected = bool "reprotected" in
      Ok (Backup_activate { channel; reprotected })
    | "backup_lost" ->
      let* channel = int "channel" in
      let* replaced = bool "replaced" in
      Ok (Backup_lost { channel; replaced })
    | "drop" ->
      let* channel = int "channel" in
      Ok (Drop { channel })
    | "restore" ->
      let* channel = int "channel" in
      let* with_backup = bool "with_backup" in
      Ok (Restore { channel; with_backup })
    | "solve" ->
      let* what = str "what" in
      let* states = int "states" in
      let* seconds = num "seconds" in
      Ok (Solve { what; states; seconds })
    | "phase_begin" ->
      let* name = str "name" in
      Ok (Phase_begin { name })
    | "phase_end" ->
      let* name = str "name" in
      let* seconds = num "seconds" in
      Ok (Phase_end { name; seconds })
    | "span_begin" ->
      let* name = str "name" in
      let* wall_s = num "wall_s" in
      Ok (Span_begin { name; wall_s })
    | "span_end" ->
      let* name = str "name" in
      let* wall_s = num "wall_s" in
      let* total_s = num "total_s" in
      let* self_s = num "self_s" in
      let* minor_words = num "minor_words" in
      let* major_words = num "major_words" in
      Ok (Span_end { name; wall_s; total_s; self_s; minor_words; major_words })
    | "req_begin" ->
      let* rid = int "rid" in
      let* verb = str "verb" in
      Ok (Req_begin { rid; verb })
    | "req_stage" ->
      let* rid = int "rid" in
      let* stage = str "stage" in
      let* seconds = num "seconds" in
      Ok (Req_stage { rid; stage; seconds })
    | "req_end" ->
      let* rid = int "rid" in
      let* verb = str "verb" in
      let* ok = bool "ok" in
      let* total_s = num "total_s" in
      Ok (Req_end { rid; verb; ok; total_s })
    | "req_client" ->
      let* rid = int "rid" in
      let* verb = str "verb" in
      let* sched_s = num "sched_s" in
      let* latency_s = num "latency_s" in
      Ok (Req_client { rid; verb; sched_s; latency_s })
    | "snapshot" ->
      let pair v =
        match Jsonx.to_list Jsonx.to_int v with Some [ x; y ] -> Some (x, y) | _ -> None
      in
      let counter_obj = function
        | Jsonx.Obj kvs ->
          Jsonx.to_list Jsonx.to_int (Jsonx.List (List.map snd kvs))
          |> Option.map (List.combine (List.map fst kvs))
        | _ -> None
      in
      let* seq = int "seq" in
      let* events = int "events" in
      let* d_events = int "d_events" in
      let* live = int "live" in
      let* live_by_level = Jsonx.field "levels" (Jsonx.to_list Jsonx.to_int) doc in
      let* peak_live = int "peak_live" in
      let* hot = Jsonx.field "hot" (Jsonx.to_list pair) doc in
      let* counters = Jsonx.field "counters" counter_obj doc in
      (* SLO fields arrived with request tracing (DESIGN.md §15); they
         default to zero so pre-tracing recorded streams still replay. *)
      let opt_or default read name =
        match Jsonx.member name doc with
        | None -> Ok default
        | Some _ -> read name
      in
      let* slo_good = opt_or 0 int "slo_good" in
      let* slo_bad = opt_or 0 int "slo_bad" in
      let* slo_burn = opt_or 0. num "slo_burn" in
      Ok
        (Snapshot
           {
             seq;
             events;
             d_events;
             live;
             live_by_level;
             peak_live;
             hot;
             counters;
             slo_good;
             slo_bad;
             slo_burn;
           })
    | "heartbeat" ->
      let* seq = int "seq" in
      let* wall_s = num "wall_s" in
      let* d_events = int "d_events" in
      let* ops_per_s = num "ops_per_s" in
      let* minor_words = num "minor_words" in
      let* major_words = num "major_words" in
      let* heap_words = int "heap_words" in
      Ok
        (Heartbeat
           { seq; wall_s; d_events; ops_per_s; minor_words; major_words; heap_words })
    | "note" ->
      let* name = str "name" in
      let fields =
        match doc with
        | Jsonx.Obj fs ->
          List.filter (fun (key, _) -> key <> "t" && key <> "ev" && key <> "name") fs
        | _ -> []
      in
      Ok (Note { name; fields })
    | other -> Error (Printf.sprintf "unknown event kind %S" other)
  in
  Ok (time, ev)

(* One sample per constructor.  Extend this list together with the type:
   the round-trip test in test_obs.ml iterates it, and [of_json] must
   parse every sample back field-by-field, so a constructor added
   without serialisation (or without a sample) fails CI. *)
let all_samples =
  [
    Admit { channel = 3; direct = 2; indirect = 5 };
    Reject { reason = "no_primary_route" };
    Terminate { channel = 3 };
    Upgrade { channel = 1; from_level = 0; to_level = 4 };
    Retreat { channel = 2; from_level = 7; to_level = 0 };
    Link_fail { edge = 17 };
    Link_repair { edge = 17 };
    Backup_activate { channel = 4; reprotected = false };
    Backup_lost { channel = 4; replaced = true };
    Drop { channel = 9 };
    Restore { channel = 9; with_backup = true };
    Solve { what = "ctmc.stationary"; states = 9; seconds = 0.125 };
    Phase_begin { name = "measure" };
    Phase_end { name = "measure"; seconds = 1.5 };
    Span_begin { name = "engine.run"; wall_s = 0.25 };
    Span_end
      {
        name = "engine.run";
        wall_s = 0.75;
        total_s = 0.5;
        self_s = 0.375;
        minor_words = 1024.;
        major_words = 128.;
      };
    Note { name = "custom"; fields = [ ("k", Jsonx.Int 7) ] };
    Req_begin { rid = 42; verb = "admit" };
    Req_stage { rid = 42; stage = "service"; seconds = 0.0025 };
    Req_end { rid = 42; verb = "admit"; ok = true; total_s = 0.004 };
    Req_client { rid = 42; verb = "admit"; sched_s = 1.25; latency_s = 0.006 };
    Snapshot
      {
        seq = 2;
        events = 1200;
        d_events = 300;
        live = 41;
        live_by_level = [ 5; 0; 36 ];
        peak_live = 44;
        hot = [ (17, 120); (3, 99) ];
        counters = [ ("drcomm.admits", 40); ("engine.events", 300) ];
        slo_good = 38;
        slo_bad = 2;
        slo_burn = 0.05;
      };
    Heartbeat
      {
        seq = 1;
        wall_s = 2.5;
        d_events = 5000;
        ops_per_s = 2000.;
        minor_words = 1.5e6;
        major_words = 4096.;
        heap_words = 262144;
      };
  ]

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)

type sink = { emit : float -> event -> unit; close : unit -> unit }

let null_sink = { emit = (fun _ _ -> ()); close = (fun () -> ()) }

let jsonl_sink oc =
  {
    emit =
      (fun time ev ->
        Jsonx.output oc (to_json ~time ev);
        output_char oc '\n');
    close = (fun () -> close_out oc);
  }

let console_sink oc =
  {
    emit =
      (fun time ev ->
        let detail =
          fields ev
          |> List.map (fun (k, v) ->
                 let s =
                   match v with
                   | Jsonx.String s -> s
                   | other -> Jsonx.to_string other
                 in
                 Printf.sprintf "%s=%s" k s)
          |> String.concat " "
        in
        Printf.fprintf oc "[%12.4f] %-16s %s\n" time (kind ev) detail);
    close = (fun () -> flush oc);
  }

(* ------------------------------------------------------------------ *)
(* Tracer                                                              *)

type t = { on : bool; sink : sink; mutable closed : bool }

let disabled = { on = false; sink = null_sink; closed = false }

let create sink = { on = true; sink; closed = false }

let enabled t = t.on

let emit t ~time ev = if t.on then t.sink.emit time ev

(* Idempotent: the CLI and bench harness guard sinks with both
   [Fun.protect] and [at_exit], so a normal path closes twice. *)
let close t =
  if not t.closed then begin
    t.closed <- true;
    t.sink.close ()
  end
