type ctx = { rid : int; t_sched : float }

type stage = Queue | Parse | Service | Redistribute | Write

let all_stages = [ Queue; Parse; Service; Redistribute; Write ]

let stage_name = function
  | Queue -> "queue"
  | Parse -> "parse"
  | Service -> "service"
  | Redistribute -> "redistribute"
  | Write -> "write"

let stage_index = function
  | Queue -> 0
  | Parse -> 1
  | Service -> 2
  | Redistribute -> 3
  | Write -> 4

let timer_name st = "req." ^ stage_name st

type exemplar = {
  ex_rid : int;
  ex_verb : string;
  ex_ok : bool;
  ex_total_s : float;
  ex_stages : (stage * float) list;
}

let exemplar_note ex =
  Trace.Note
    {
      name = "slow_request";
      fields =
        [
          ("rid", Jsonx.Int ex.ex_rid);
          ("verb", Jsonx.String ex.ex_verb);
          ("ok", Jsonx.Bool ex.ex_ok);
          ("total_s", Jsonx.Float ex.ex_total_s);
        ]
        @ List.map
            (fun (st, s) -> (stage_name st, Jsonx.Float s))
            ex.ex_stages;
    }

type t = {
  obs : Obs.t;
  stage_timers : Metrics.timer array; (* indexed by stage_index *)
  total_timer : Metrics.timer;
  slo : float option;
  on_exemplar : exemplar -> unit;
  mutable good : int;
  mutable bad : int;
}

let create ?slo ?(on_exemplar = fun _ -> ()) obs =
  (match slo with
  | Some s when s <= 0. -> invalid_arg "Reqtrace.create: slo must be positive"
  | _ -> ());
  {
    obs;
    stage_timers =
      Array.of_list
        (List.map (fun st -> Obs.timer obs (timer_name st)) all_stages);
    total_timer = Obs.timer obs "req.total";
    slo;
    on_exemplar;
    good = 0;
    bad = 0;
  }

let slo_counts t = (t.good, t.bad)

(* One completed request: feed the mergeable per-stage log-bucket
   timers, the SLO counters, and — when tracing — the [Req_begin]/
   [Req_stage]*/[Req_end] trio, emitted together at completion so one
   request's records never interleave with another connection's. *)
let observe t ~rid ~verb ~ok ~stages ~total_s =
  List.iter
    (fun (st, s) -> Metrics.observe t.stage_timers.(stage_index st) s)
    stages;
  Metrics.observe t.total_timer total_s;
  if Obs.tracing t.obs then begin
    Obs.event t.obs (Trace.Req_begin { rid; verb });
    List.iter
      (fun (st, s) ->
        Obs.event t.obs
          (Trace.Req_stage { rid; stage = stage_name st; seconds = s }))
      stages;
    Obs.event t.obs (Trace.Req_end { rid; verb; ok; total_s })
  end;
  match t.slo with
  | None -> ()
  | Some slo ->
    if total_s <= slo then t.good <- t.good + 1
    else begin
      t.bad <- t.bad + 1;
      t.on_exemplar
        {
          ex_rid = rid;
          ex_verb = verb;
          ex_ok = ok;
          ex_total_s = total_s;
          ex_stages = stages;
        }
    end
