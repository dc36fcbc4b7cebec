type t = {
  service : Drcomm.t;
  net : Net_state.t;
  obs : Obs.t;
  (* wire id (Channel_id.to_int) -> live handle.  Entries leave on
     teardown and when a failure drops the connection. *)
  channels : (int, Drcomm.channel_id) Hashtbl.t;
  mutable requests : int;
  req_counter : Metrics.counter;
  err_counter : Metrics.counter;
  snap : Snapshot.t;
  (* The emitter's sink keeps the last snapshot document it was handed:
     the [snapshot] reply. *)
  snap_doc : Jsonx.t option ref;
  (* The server's request tracer owns the SLO counts; the broker only
     forwards them into its snapshot source.  Default: no SLO. *)
  mutable slo_fn : unit -> int * int;
}

let snapshot_source t =
  {
    Snapshot.sim_time = (fun () -> float_of_int t.requests);
    events = (fun () -> t.requests);
    live_by_level =
      (fun () ->
        Drcomm.level_histogram t.service ~max_levels:Serve_proto.max_levels);
    hot = (fun () -> Drcomm.hot_links t.service ~k:5);
    counters = (fun () -> Metrics.counter_values (Obs.metrics t.obs));
    slo = (fun () -> t.slo_fn ());
  }

let create ?config ?(obs = Obs.null) net =
  let service = Drcomm.create ?config ~obs net in
  let snap_doc = ref None in
  let keep_doc time ev = snap_doc := Some (Trace.to_json ~time ev) in
  let t =
    {
      service;
      net;
      obs;
      channels = Hashtbl.create 1024;
      requests = 0;
      req_counter = Obs.counter obs "serve.requests";
      err_counter = Obs.counter obs "serve.errors";
      snap = Snapshot.create ~sink:{ Trace.emit = keep_doc; close = ignore } ();
      snap_doc;
      slo_fn = (fun () -> (0, 0));
    }
  in
  (* Trace timestamps and snapshot sim_time advance with the request
     stream: byte-reproducible for equal request sequences, unlike a
     wall clock. *)
  Obs.set_clock obs (fun () -> float_of_int t.requests);
  (* Request tracing wants the redistribution slice of each dispatch;
     two clock reads per churn event are noise next to socket I/O. *)
  Drcomm.set_time_redistribution service true;
  Snapshot.start t.snap (snapshot_source t);
  t

let service t = t.service
let requests t = t.requests

let live_channels t =
  List.sort compare
    (List.map Drcomm.Channel_id.to_int (Drcomm.active_channels t.service))

let failed_edges t = List.sort compare (Net_state.failed_edges t.net)

let set_slo_source t fn = t.slo_fn <- fn

let node_count t = Graph.node_count (Net_state.graph t.net)
let edge_count t = Graph.edge_count (Net_state.graph t.net)

let error fmt = Printf.ksprintf (fun message -> Serve_proto.Error_reply { message }) fmt

let lookup t channel k =
  match Hashtbl.find_opt t.channels channel with
  | Some id when Drcomm.mem t.service id -> k id
  | Some _ | None -> error "unknown channel %d" channel

let reject_reason = function
  | Drcomm.No_primary_route -> "no_primary_route"
  | Drcomm.No_backup_route -> "no_backup_route"

let apply t (req : Serve_proto.request) : Serve_proto.response =
  match req with
  | Serve_proto.Admit { src; dst; qos } ->
    let n = node_count t in
    if src < 0 || src >= n || dst < 0 || dst >= n then
      error "node out of range [0, %d): src=%d dst=%d" n src dst
    else if src = dst then error "src = dst (%d)" src
    else (
      match
        Drcomm.admit ~want_indirect:false ~want_report:false t.service ~src ~dst
          ~qos
      with
      | Drcomm.Admitted (id, _) ->
        let channel = Drcomm.Channel_id.to_int id in
        Hashtbl.replace t.channels channel id;
        Serve_proto.Admitted { channel; level = Drcomm.level t.service id }
      | Drcomm.Rejected reason ->
        Serve_proto.Admit_rejected { reason = reject_reason reason })
  | Serve_proto.Teardown { channel } ->
    lookup t channel (fun id ->
        ignore (Drcomm.terminate ~report:false t.service id);
        Hashtbl.remove t.channels channel;
        Serve_proto.Torn_down { channel })
  | Serve_proto.Change_qos { channel; qos } ->
    lookup t channel (fun id ->
        let accepted =
          match Drcomm.change_qos t.service id qos with
          | `Changed -> true
          | `Rejected -> false
        in
        Serve_proto.Qos_changed { channel; accepted })
  | Serve_proto.Fail { edge } ->
    let ec = edge_count t in
    if edge < 0 || edge >= ec then error "edge out of range [0, %d): %d" ec edge
    else begin
      let fresh = not (Net_state.edge_failed t.net edge) in
      let r = Drcomm.fail_edge t.service edge in
      let recoveries =
        List.map
          (fun { Drcomm.victim; outcome } ->
            let channel = Drcomm.Channel_id.to_int victim in
            let rw_outcome, rw_reprotected =
              match outcome with
              | `Switched_to_backup b -> (`Switched, b)
              | `Dropped -> (`Dropped, false)
              | `Restored b -> (`Restored, b)
              | `Backup_lost b -> (`Backup_lost, b)
            in
            (* A victim the service no longer carries leaves the wire
               table too (drops, and restorations that re-admitted the
               connection under a fresh handle). *)
            if not (Drcomm.mem t.service victim) then
              Hashtbl.remove t.channels channel;
            { Serve_proto.rw_channel = channel; rw_outcome; rw_reprotected })
          r.Drcomm.recoveries
      in
      Serve_proto.Edge_failed { edge; fresh; recoveries }
    end
  | Serve_proto.Repair { edge } ->
    let ec = edge_count t in
    if edge < 0 || edge >= ec then error "edge out of range [0, %d): %d" ec edge
    else begin
      let was_failed = Net_state.edge_failed t.net edge in
      Drcomm.repair_edge t.service edge;
      Serve_proto.Edge_repaired { edge; was_failed }
    end
  | Serve_proto.Set_auto on ->
    let was = Drcomm.auto_redistribute t.service in
    Drcomm.set_auto_redistribute t.service on;
    (* Same contract as the fuzzer's replay: switching redistribution
       back on re-establishes the water-filling fixed point, so a fuzz
       script replayed over the wire walks the same state trajectory. *)
    if on && not was then Drcomm.redistribute_all t.service;
    Serve_proto.Auto_set { on }
  | Serve_proto.Redistribute ->
    Drcomm.redistribute_all t.service;
    Serve_proto.Redistributed
  | Serve_proto.Stats ->
    Serve_proto.Stats_reply
      {
        live = Drcomm.count t.service;
        total_reserved = Drcomm.total_reserved t.service;
        average_kbps = Drcomm.average_bandwidth t.service;
        dropped = Drcomm.dropped_connections t.service;
        failed_edges = Net_state.failed_count t.net;
        requests = t.requests;
      }
  | Serve_proto.Snapshot -> (
    t.snap_doc := None;
    Snapshot.tick t.snap;
    match !(t.snap_doc) with
    | Some doc -> Serve_proto.Snapshot_reply doc
    | None -> error "snapshot emitter produced no snapshot")
  | Serve_proto.Metrics -> Serve_proto.Metrics_reply (Obs.metrics_json t.obs)
  | Serve_proto.Ping -> Serve_proto.Pong
  | Serve_proto.Subscribe _ -> error "subscribe is a connection-level request"
  | Serve_proto.Shutdown -> error "shutdown is a connection-level request"

let dispatch t req =
  t.requests <- t.requests + 1;
  Metrics.incr t.req_counter;
  let resp =
    (* The service validates aggressively ([Invalid_argument],
       [Not_found], invariant [Failure]); a daemon must turn all of
       those into error replies, not die mid-connection. *)
    match apply t req with
    | resp -> resp
    | exception Invalid_argument msg -> error "invalid request: %s" msg
    | exception Not_found -> error "unknown channel"
    | exception Failure msg -> error "request failed: %s" msg
  in
  (match resp with
  | Serve_proto.Error_reply _ -> Metrics.incr t.err_counter
  | _ -> ());
  resp

(* Dispatch plus the stage split request tracing needs: total dispatch
   time, the redistribution slice inside it (differenced off the
   service's armed accumulator), and the remainder as pure service
   time.  Clamped — the accumulator and the outer clock are read at
   slightly different instants. *)
let dispatch_timed t req =
  let r0 = Drcomm.redistribution_seconds t.service in
  let t0 = Clock.now () in
  let resp = dispatch t req in
  let total = Clock.now () -. t0 in
  let redist_s =
    Float.max 0. (Float.min total (Drcomm.redistribution_seconds t.service -. r0))
  in
  (resp, Float.max 0. (total -. redist_s), redist_s)
