type request =
  | Admit of { src : int; dst : int; qos : Qos.t }
  | Teardown of { channel : int }
  | Change_qos of { channel : int; qos : Qos.t }
  | Fail of { edge : int }
  | Repair of { edge : int }
  | Set_auto of bool
  | Redistribute
  | Stats
  | Snapshot
  | Metrics
  | Subscribe of [ `Trace | `Heartbeat ]
  | Ping
  | Shutdown

type recovery_wire = {
  rw_channel : int;
  rw_outcome : [ `Switched | `Dropped | `Restored | `Backup_lost ];
  rw_reprotected : bool;
}

type response =
  | Admitted of { channel : int; level : int }
  | Admit_rejected of { reason : string }
  | Torn_down of { channel : int }
  | Qos_changed of { channel : int; accepted : bool }
  | Edge_failed of { edge : int; fresh : bool; recoveries : recovery_wire list }
  | Edge_repaired of { edge : int; was_failed : bool }
  | Auto_set of { on : bool }
  | Redistributed
  | Stats_reply of {
      live : int;
      total_reserved : int;
      average_kbps : float;
      dropped : int;
      failed_edges : int;
      requests : int;
    }
  | Snapshot_reply of Jsonx.t
  | Metrics_reply of Jsonx.t
  | Subscribed of { stream : string }
  | Pong
  | Shutting_down
  | Error_reply of { message : string }

(* The broker's level histogram is sized to this; a wire spec with more
   elastic levels is rejected at the codec. *)
let max_levels = 64

(* ------------------------------------------------------------------ *)
(* JSON helpers                                                        *)

let qos_to_json (q : Qos.t) =
  Jsonx.Obj
    [
      ("b_min", Jsonx.Int q.Qos.b_min);
      ("b_max", Jsonx.Int q.Qos.b_max);
      ("increment", Jsonx.Int q.Qos.increment);
      ("utility", Jsonx.Float q.Qos.utility);
    ]

let ( let* ) r f = match r with Ok x -> f x | Error _ as e -> e

let qos_of_json doc =
  let* q = Jsonx.field "qos" Option.some doc in
  let* b_min = Jsonx.field "b_min" Jsonx.to_int q in
  let* b_max = Jsonx.field "b_max" Jsonx.to_int q in
  let* increment = Jsonx.field "increment" Jsonx.to_int q in
  let* utility =
    if Jsonx.member "utility" q = None then Ok 1.0
    else Jsonx.field "utility" Jsonx.to_float q
  in
  match Qos.make ~utility ~b_min ~b_max ~increment () with
  | qos when Qos.levels qos > max_levels ->
    Error
      (Printf.sprintf "qos has %d levels; the broker accepts at most %d"
         (Qos.levels qos) max_levels)
  | qos -> Ok qos
  | exception Invalid_argument msg -> Error ("invalid qos: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)

let request_verb = function
  | Admit _ -> "admit"
  | Teardown _ -> "teardown"
  | Change_qos _ -> "chqos"
  | Fail _ -> "fail"
  | Repair _ -> "repair"
  | Set_auto _ -> "auto"
  | Redistribute -> "redistribute"
  | Stats -> "stats"
  | Snapshot -> "snapshot"
  | Metrics -> "metrics"
  | Subscribe _ -> "subscribe"
  | Ping -> "ping"
  | Shutdown -> "shutdown"

let request_to_json ?trace ~id req =
  let fields =
    match req with
    | Admit { src; dst; qos } ->
      [ ("src", Jsonx.Int src); ("dst", Jsonx.Int dst); ("qos", qos_to_json qos) ]
    | Teardown { channel } -> [ ("channel", Jsonx.Int channel) ]
    | Change_qos { channel; qos } ->
      [ ("channel", Jsonx.Int channel); ("qos", qos_to_json qos) ]
    | Fail { edge } | Repair { edge } -> [ ("edge", Jsonx.Int edge) ]
    | Set_auto on -> [ ("on", Jsonx.Bool on) ]
    | Subscribe `Trace -> [ ("stream", Jsonx.String "trace") ]
    | Subscribe `Heartbeat -> [ ("stream", Jsonx.String "heartbeat") ]
    | Redistribute | Stats | Snapshot | Metrics | Ping | Shutdown -> []
  in
  let fields =
    match trace with
    | None -> fields
    | Some { Reqtrace.rid; t_sched } ->
      fields
      @ [
          ( "trace",
            Jsonx.Obj
              [ ("rid", Jsonx.Int rid); ("t_sched", Jsonx.Float t_sched) ] );
        ]
  in
  Jsonx.Obj
    (("id", Jsonx.Int id) :: ("req", Jsonx.String (request_verb req)) :: fields)

(* Separate from {!request_of_json} so the request codec's signature
   (and every exhaustive test over it) is untouched: old clients simply
   never send the field, old servers ignore it. *)
let trace_ctx_of_json doc =
  match Jsonx.member "trace" doc with
  | None -> None
  | Some tr -> (
    match
      ( Option.bind (Jsonx.member "rid" tr) Jsonx.to_int,
        Option.bind (Jsonx.member "t_sched" tr) Jsonx.to_float )
    with
    | Some rid, Some t_sched when rid >= 0 -> Some { Reqtrace.rid; t_sched }
    | _ -> None)

let request_of_json doc =
  let* id = Jsonx.field "id" Jsonx.to_int doc in
  let* verb = Jsonx.field "req" Jsonx.to_str doc in
  let* req =
    match verb with
    | "admit" ->
      let* src = Jsonx.field "src" Jsonx.to_int doc in
      let* dst = Jsonx.field "dst" Jsonx.to_int doc in
      let* qos = qos_of_json doc in
      Ok (Admit { src; dst; qos })
    | "teardown" ->
      let* channel = Jsonx.field "channel" Jsonx.to_int doc in
      Ok (Teardown { channel })
    | "chqos" ->
      let* channel = Jsonx.field "channel" Jsonx.to_int doc in
      let* qos = qos_of_json doc in
      Ok (Change_qos { channel; qos })
    | "fail" ->
      let* edge = Jsonx.field "edge" Jsonx.to_int doc in
      Ok (Fail { edge })
    | "repair" ->
      let* edge = Jsonx.field "edge" Jsonx.to_int doc in
      Ok (Repair { edge })
    | "auto" ->
      let* on = Jsonx.field "on" Jsonx.to_bool doc in
      Ok (Set_auto on)
    | "redistribute" -> Ok Redistribute
    | "stats" -> Ok Stats
    | "snapshot" -> Ok Snapshot
    | "metrics" -> Ok Metrics
    | "subscribe" -> (
      let* stream = Jsonx.field "stream" Jsonx.to_str doc in
      match stream with
      | "trace" -> Ok (Subscribe `Trace)
      | "heartbeat" -> Ok (Subscribe `Heartbeat)
      | s -> Error (Printf.sprintf "unknown stream %S" s))
    | "ping" -> Ok Ping
    | "shutdown" -> Ok Shutdown
    | v -> Error (Printf.sprintf "unknown request %S" v)
  in
  Ok (id, req)

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)

let outcome_to_string = function
  | `Switched -> "switched_to_backup"
  | `Dropped -> "dropped"
  | `Restored -> "restored"
  | `Backup_lost -> "backup_lost"

let outcome_of_string = function
  | "switched_to_backup" -> Ok `Switched
  | "dropped" -> Ok `Dropped
  | "restored" -> Ok `Restored
  | "backup_lost" -> Ok `Backup_lost
  | s -> Error (Printf.sprintf "unknown recovery outcome %S" s)

let recovery_to_json r =
  Jsonx.Obj
    [
      ("channel", Jsonx.Int r.rw_channel);
      ("outcome", Jsonx.String (outcome_to_string r.rw_outcome));
      ("reprotected", Jsonx.Bool r.rw_reprotected);
    ]

let recovery_of_json doc =
  let* rw_channel = Jsonx.field "channel" Jsonx.to_int doc in
  let* outcome = Jsonx.field "outcome" Jsonx.to_str doc in
  let* rw_outcome = outcome_of_string outcome in
  let* rw_reprotected = Jsonx.field "reprotected" Jsonx.to_bool doc in
  Ok { rw_channel; rw_outcome; rw_reprotected }

let response_kind = function
  | Admitted _ -> "admitted"
  | Admit_rejected _ -> "rejected"
  | Torn_down _ -> "torn_down"
  | Qos_changed _ -> "qos_changed"
  | Edge_failed _ -> "edge_failed"
  | Edge_repaired _ -> "edge_repaired"
  | Auto_set _ -> "auto"
  | Redistributed -> "redistributed"
  | Stats_reply _ -> "stats"
  | Snapshot_reply _ -> "snapshot"
  | Metrics_reply _ -> "metrics"
  | Subscribed _ -> "subscribed"
  | Pong -> "pong"
  | Shutting_down -> "shutting_down"
  | Error_reply _ -> "error"

let response_to_json ~id resp =
  match resp with
  | Error_reply { message } ->
    Jsonx.Obj
      [
        ("id", Jsonx.Int id);
        ("ok", Jsonx.Bool false);
        ("error", Jsonx.String message);
      ]
  | _ ->
    let fields =
      match resp with
      | Admitted { channel; level } ->
        [ ("channel", Jsonx.Int channel); ("level", Jsonx.Int level) ]
      | Admit_rejected { reason } -> [ ("reason", Jsonx.String reason) ]
      | Torn_down { channel } -> [ ("channel", Jsonx.Int channel) ]
      | Qos_changed { channel; accepted } ->
        [ ("channel", Jsonx.Int channel); ("accepted", Jsonx.Bool accepted) ]
      | Edge_failed { edge; fresh; recoveries } ->
        [
          ("edge", Jsonx.Int edge);
          ("fresh", Jsonx.Bool fresh);
          ("recoveries", Jsonx.List (List.map recovery_to_json recoveries));
        ]
      | Edge_repaired { edge; was_failed } ->
        [ ("edge", Jsonx.Int edge); ("was_failed", Jsonx.Bool was_failed) ]
      | Auto_set { on } -> [ ("on", Jsonx.Bool on) ]
      | Stats_reply { live; total_reserved; average_kbps; dropped; failed_edges; requests }
        ->
        [
          ("live", Jsonx.Int live);
          ("total_reserved_kbps", Jsonx.Int total_reserved);
          ("average_kbps", Jsonx.Float average_kbps);
          ("dropped", Jsonx.Int dropped);
          ("failed_edges", Jsonx.Int failed_edges);
          ("requests", Jsonx.Int requests);
        ]
      | Snapshot_reply doc | Metrics_reply doc -> [ ("data", doc) ]
      | Subscribed { stream } -> [ ("stream", Jsonx.String stream) ]
      | Redistributed | Pong | Shutting_down -> []
      | Error_reply _ -> []
    in
    Jsonx.Obj
      (("id", Jsonx.Int id)
      :: ("ok", Jsonx.Bool true)
      :: ("re", Jsonx.String (response_kind resp))
      :: fields)

let response_of_json doc =
  let* id = Jsonx.field "id" Jsonx.to_int doc in
  let* ok = Jsonx.field "ok" Jsonx.to_bool doc in
  if not ok then
    let* message = Jsonx.field "error" Jsonx.to_str doc in
    Ok (id, Error_reply { message })
  else
    let* kind = Jsonx.field "re" Jsonx.to_str doc in
    let* resp =
      match kind with
      | "admitted" ->
        let* channel = Jsonx.field "channel" Jsonx.to_int doc in
        let* level = Jsonx.field "level" Jsonx.to_int doc in
        Ok (Admitted { channel; level })
      | "rejected" ->
        let* reason = Jsonx.field "reason" Jsonx.to_str doc in
        Ok (Admit_rejected { reason })
      | "torn_down" ->
        let* channel = Jsonx.field "channel" Jsonx.to_int doc in
        Ok (Torn_down { channel })
      | "qos_changed" ->
        let* channel = Jsonx.field "channel" Jsonx.to_int doc in
        let* accepted = Jsonx.field "accepted" Jsonx.to_bool doc in
        Ok (Qos_changed { channel; accepted })
      | "edge_failed" ->
        let* edge = Jsonx.field "edge" Jsonx.to_int doc in
        let* fresh = Jsonx.field "fresh" Jsonx.to_bool doc in
        let* recoveries =
          Jsonx.field "recoveries"
            (Jsonx.to_list (fun r -> Result.to_option (recovery_of_json r)))
            doc
        in
        Ok (Edge_failed { edge; fresh; recoveries })
      | "edge_repaired" ->
        let* edge = Jsonx.field "edge" Jsonx.to_int doc in
        let* was_failed = Jsonx.field "was_failed" Jsonx.to_bool doc in
        Ok (Edge_repaired { edge; was_failed })
      | "auto" ->
        let* on = Jsonx.field "on" Jsonx.to_bool doc in
        Ok (Auto_set { on })
      | "redistributed" -> Ok Redistributed
      | "stats" ->
        let* live = Jsonx.field "live" Jsonx.to_int doc in
        let* total_reserved = Jsonx.field "total_reserved_kbps" Jsonx.to_int doc in
        let* average_kbps =
          if Jsonx.member "average_kbps" doc = None then Ok 0.
          else Jsonx.field "average_kbps" Jsonx.to_float doc
        in
        let* dropped = Jsonx.field "dropped" Jsonx.to_int doc in
        let* failed_edges = Jsonx.field "failed_edges" Jsonx.to_int doc in
        let* requests = Jsonx.field "requests" Jsonx.to_int doc in
        Ok
          (Stats_reply
             { live; total_reserved; average_kbps; dropped; failed_edges; requests })
      | "snapshot" ->
        let* d = Jsonx.field "data" Option.some doc in
        Ok (Snapshot_reply d)
      | "metrics" ->
        let* d = Jsonx.field "data" Option.some doc in
        Ok (Metrics_reply d)
      | "subscribed" ->
        let* stream = Jsonx.field "stream" Jsonx.to_str doc in
        Ok (Subscribed { stream })
      | "pong" -> Ok Pong
      | "shutting_down" -> Ok Shutting_down
      | k -> Error (Printf.sprintf "unknown response kind %S" k)
    in
    Ok (id, resp)

let is_push doc =
  Jsonx.member "id" doc = None && Jsonx.member "ev" doc <> None

(* ------------------------------------------------------------------ *)
(* Fuzz-op bridge                                                      *)

let request_of_op ~nodes ~edges ~live ~failed op =
  Option.map
    (function
      | Op.Admit { src; dst; qos } -> Admit { src; dst; qos = Fuzz.qos_palette.(qos) }
      | Op.Terminate channel -> Teardown { channel }
      | Op.Change_qos (channel, q) -> Change_qos { channel; qos = Fuzz.qos_palette.(q) }
      | Op.Fail edge -> Fail { edge }
      | Op.Repair edge -> Repair { edge }
      | Op.Set_auto b -> Set_auto b
      | Op.Redistribute_all -> Redistribute)
    (Fuzz.reduce ~nodes ~edges ~live ~failed op)

let palette_index qos =
  let n = Array.length Fuzz.qos_palette in
  let rec go i =
    if i >= n then None
    else if Fuzz.qos_palette.(i) = qos then Some i
    else go (i + 1)
  in
  go 0

let op_of_request ~nodes = function
  | Admit { src; dst; qos } ->
    if nodes <= 1 || src < 0 || src >= nodes || dst < 0 || dst >= nodes
       || src = dst
    then None
    else
      (* Invert the dst skew: the executor computes
         [(src + 1 + (d mod (nodes - 1))) mod nodes], and for
         [d = (dst - src - 1) mod nodes] (in [0, nodes - 2] whenever
         [dst <> src]) the inner [mod] is the identity. *)
      let d = ((dst - src - 1) mod nodes + nodes) mod nodes in
      Option.map (fun q -> Op.Admit { src; dst = d; qos = q }) (palette_index qos)
  | Teardown { channel } -> Some (Op.Terminate channel)
  | Change_qos { channel; qos } ->
    Option.map (fun q -> Op.Change_qos (channel, q)) (palette_index qos)
  | Fail { edge } -> Some (Op.Fail edge)
  | Repair { edge } -> Some (Op.Repair edge)
  | Set_auto b -> Some (Op.Set_auto b)
  | Redistribute -> Some Op.Redistribute_all
  | Stats | Snapshot | Metrics | Subscribe _ | Ping | Shutdown -> None
