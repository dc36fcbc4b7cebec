type address = [ `Unix of string | `Tcp of string * int ]

(* One client connection: partial-line input buffer, the pending output
   queue, and the stream subscriptions this connection asked for. *)
type conn = {
  fd : Unix.file_descr;  (* non-blocking from accept onwards *)
  inbuf : Buffer.t;
  (* Framed lines waiting for the socket: the dispatch path only ever
     enqueues here; the select loop performs the actual writes when the
     fd is ready.  [out_off] is the already-written prefix of the queue
     head, [out_bytes] the total backlog. *)
  outq : string Queue.t;
  mutable out_off : int;
  mutable out_bytes : int;
  max_pending : int;
  peer : string;
  mutable want_trace : bool;
  mutable want_heartbeat : bool;
  mutable alive : bool;
  (* False once the connection was refused for an over-long line:
     nothing more is read, and the loop closes it once the refusal is
     flushed. *)
  mutable reading : bool;
  (* When [select] marked this fd readable: the start of the queue
     stage.  Lines drained later out of the same chunk correctly charge
     the earlier lines' processing time to their queue wait. *)
  mutable ready_at : float;
}

(* The longest partial line a connection may hold.  An unterminated
   stream past it is refused rather than buffered without bound. *)
let max_line_bytes = 1 lsl 20

(* [select] cannot watch an fd at or above FD_SETSIZE (1024).  The cap
   on live connections leaves room below it for the daemon's own fds:
   the standard streams, the listener, the trace file. *)
let max_connections = 1000

let listen_backlog = 64

type state = {
  listen_fd : Unix.file_descr;
  broker : Serve_broker.t;
  reqtrace : Reqtrace.t;
  c_reaped : Metrics.counter;
  c_refused : Metrics.counter;
  c_undecodable : Metrics.counter;
  c_trace_lines : Metrics.counter;
  max_pending : int;  (* per-connection output backlog cap, bytes *)
  mutable anon_rids : int; (* server-assigned rids for untraced requests *)
  mutable conns : conn list;
  mutable running : bool;
  log : string -> unit;
}

let unlink_quietly path =
  match Unix.unlink path with
  | () -> ()
  | exception Unix.Unix_error (_, _, _) -> ()

let bind_listener (addr : address) =
  match addr with
  | `Unix path ->
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    unlink_quietly path;
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd listen_backlog;
    fd
  | `Tcp (host, port) ->
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    let ip =
      if host = "localhost" then Unix.inet_addr_loopback
      else Unix.inet_addr_of_string host
    in
    Unix.bind fd (Unix.ADDR_INET (ip, port));
    Unix.listen fd listen_backlog;
    fd

(* Queue one framed line, newline included, for [conn].  The dispatch
   path never touches the socket — the select loop owns the writes — so
   one stuck peer can stall only its own stream, never the daemon.  A
   subscriber whose backlog exceeds [max_pending] bytes is cut loose
   instead of holding the daemon's memory hostage; the loop reaps it. *)
let send conn data =
  if conn.alive then begin
    Queue.add data conn.outq;
    conn.out_bytes <- conn.out_bytes + String.length data;
    if conn.out_bytes > conn.max_pending then conn.alive <- false
  end

let send_json conn doc = send conn (Jsonx.to_string doc ^ "\n")

let pending conn = not (Queue.is_empty conn.outq)

(* Write as much queued output as the socket accepts right now.  The fd
   is non-blocking: a full socket buffer ends the drain until select
   reports the fd writable again.  A peer that vanished mid-write
   (EPIPE with SIGPIPE ignored, reset, …) just marks the connection
   dead. *)
let try_flush conn =
  let rec go () =
    match Queue.peek_opt conn.outq with
    | None -> ()
    | Some data -> (
      let len = String.length data - conn.out_off in
      match Unix.write_substring conn.fd data conn.out_off len with
      | n ->
        conn.out_bytes <- conn.out_bytes - n;
        if n = len then begin
          ignore (Queue.pop conn.outq);
          conn.out_off <- 0;
          go ()
        end
        else conn.out_off <- conn.out_off + n
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        ()
      | exception Unix.Unix_error (_, _, _) -> conn.alive <- false)
  in
  if conn.alive then go ()

(* Bounded final drain, for shutdown: give queued replies (the
   Shutting_down acknowledgement in particular) a moment to reach their
   peers before the fd closes.  Bounded, so a stuck peer cannot wedge
   shutdown. *)
let drain_conn ?(timeout = 1.0) conn =
  let deadline = Clock.now () +. timeout in
  let rec go () =
    if conn.alive && pending conn && Clock.now () < deadline then begin
      (match Unix.select [] [ conn.fd ] [] 0.05 with
      | _, _ :: _, _ -> try_flush conn
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      go ()
    end
  in
  go ()

(* One trace or heartbeat event, for the trace file [oc] when given and
   every live connection [wants] selects.  The line is serialized only
   when it has such a reader, and then once: the file and every queue
   share the one framed string.  [serve.trace_lines] counts the lines
   built. *)
let broadcast t ?oc wants time ev =
  let reader c = c.alive && wants c in
  if Option.is_some oc || List.exists reader t.conns then begin
    Metrics.incr t.c_trace_lines;
    let line = Jsonx.to_string (Trace.to_json ~time ev) ^ "\n" in
    Option.iter (fun oc -> output_string oc line) oc;
    List.iter (fun c -> if reader c then send c line) t.conns
  end

let close_conn t conn =
  if conn.alive then conn.alive <- false;
  (match Unix.close conn.fd with
  | () -> ()
  | exception Unix.Unix_error (_, _, _) -> ());
  t.log (Printf.sprintf "serve: %s disconnected" conn.peer)

(* Subscribe and shutdown are connection-level — everything else goes
   through the broker. *)
let connection_response t conn (req : Serve_proto.request) =
  match req with
  | Serve_proto.Subscribe stream ->
    let name =
      match stream with
      | `Trace ->
        conn.want_trace <- true;
        "trace"
      | `Heartbeat ->
        conn.want_heartbeat <- true;
        "heartbeat"
    in
    Some (Serve_proto.Subscribed { stream = name })
  | Serve_proto.Shutdown ->
    t.running <- false;
    Some Serve_proto.Shutting_down
  | Serve_proto.Admit _ | Serve_proto.Teardown _ | Serve_proto.Change_qos _
  | Serve_proto.Fail _ | Serve_proto.Repair _ | Serve_proto.Set_auto _
  | Serve_proto.Redistribute | Serve_proto.Stats | Serve_proto.Snapshot
  | Serve_proto.Metrics | Serve_proto.Ping ->
    None

let record_request t ~ctx ~verb ~ok ~queue_s ~parse_s ~service_s
    ~redist_s ~write_s =
  let rid =
    match ctx with
    | Some { Reqtrace.rid; _ } -> rid
    | None ->
      (* Untraced requests get server-assigned rids in the negative
         namespace, so they never collide with client-assigned ones. *)
      t.anon_rids <- t.anon_rids + 1;
      -t.anon_rids
  in
  let stages =
    [
      (Reqtrace.Queue, queue_s);
      (Reqtrace.Parse, parse_s);
      (Reqtrace.Service, service_s);
      (Reqtrace.Redistribute, redist_s);
      (Reqtrace.Write, write_s);
    ]
  in
  let total_s = queue_s +. parse_s +. service_s +. redist_s +. write_s in
  Reqtrace.observe t.reqtrace ~rid ~verb ~ok ~stages ~total_s

(* One request line, decomposed into the five-stage anatomy on the
   monotonic clock: queue (readable -> here), parse, service (broker
   dispatch minus redistribution), redistribute, write (reply framing
   and enqueue — the socket write itself belongs to the select loop).
   Undecodable lines get the full treatment too — the protocol reserves
   reply id 0 for them, and they are charged to the [undecodable]
   pseudo-verb so a misbehaving client shows up in the anatomy. *)
let handle_line t conn line =
  if String.trim line <> "" then begin
    let t_start = Clock.now () in
    let queue_s = Float.max 0. (t_start -. conn.ready_at) in
    let decoded =
      match Jsonx.of_string line with
      | exception Jsonx.Parse_error msg -> Error ("parse error: " ^ msg)
      | doc -> (
        match Serve_proto.request_of_json doc with
        | Error msg -> Error msg
        | Ok (id, req) -> Ok (id, req, Serve_proto.trace_ctx_of_json doc))
    in
    let parse_s = Float.max 0. (Clock.now () -. t_start) in
    match decoded with
    | Error message ->
      Metrics.incr t.c_undecodable;
      let t_w0 = Clock.now () in
      send_json conn
        (Serve_proto.response_to_json ~id:0 (Serve_proto.Error_reply { message }));
      let write_s = Float.max 0. (Clock.now () -. t_w0) in
      record_request t ~ctx:None ~verb:"undecodable" ~ok:false ~queue_s
        ~parse_s ~service_s:0. ~redist_s:0. ~write_s
    | Ok (id, req, ctx) ->
      let resp, service_s, redist_s =
        match connection_response t conn req with
        | Some resp -> (resp, 0., 0.)
        | None -> Serve_broker.dispatch_timed t.broker req
      in
      let ok =
        match resp with Serve_proto.Error_reply _ -> false | _ -> true
      in
      let t_w0 = Clock.now () in
      send_json conn (Serve_proto.response_to_json ~id resp);
      let write_s = Float.max 0. (Clock.now () -. t_w0) in
      record_request t ~ctx ~verb:(Serve_proto.request_verb req) ~ok
        ~queue_s ~parse_s ~service_s ~redist_s ~write_s
  end

(* A partial line past [max_line_bytes]: one id-0 error reply naming
   the cap, charged to [serve.undecodable]; then the connection stops
   reading and closes once the reply is flushed. *)
let refuse_line t conn =
  Buffer.reset conn.inbuf;
  conn.reading <- false;
  conn.want_trace <- false;
  conn.want_heartbeat <- false;
  Metrics.incr t.c_undecodable;
  let message =
    Printf.sprintf "line longer than %d bytes; closing the connection" max_line_bytes
  in
  send_json conn
    (Serve_proto.response_to_json ~id:0 (Serve_proto.Error_reply { message }));
  t.log (Printf.sprintf "serve: %s refused: %s" conn.peer message)

(* Frame the [n] bytes just read: each newline completes the partial
   line held in [inbuf].  Only a completed line is copied out, so a
   long line costs linear time, and the partial line is capped. *)
let drain_lines t conn chunk n =
  let start = ref 0 in
  let i = ref 0 in
  while !i < n && t.running do
    if Bytes.get chunk !i = '\n' then begin
      Buffer.add_subbytes conn.inbuf chunk !start (!i - !start);
      let line = Buffer.contents conn.inbuf in
      Buffer.clear conn.inbuf;
      start := !i + 1;
      handle_line t conn line
    end;
    incr i
  done;
  Buffer.add_subbytes conn.inbuf chunk !start (n - !start);
  if Buffer.length conn.inbuf > max_line_bytes then refuse_line t conn

let read_chunk t conn scratch =
  match Unix.read conn.fd scratch 0 (Bytes.length scratch) with
  | 0 -> conn.alive <- false
  | n -> drain_lines t conn scratch n
  | exception
      Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    ()
  | exception Unix.Unix_error (_, _, _) -> conn.alive <- false

let peer_name fd =
  match Unix.getpeername fd with
  | Unix.ADDR_UNIX _ -> "unix client"
  | Unix.ADDR_INET (ip, port) ->
    Printf.sprintf "%s:%d" (Unix.string_of_inet_addr ip) port
  | exception Unix.Unix_error (_, _, _) -> "client"

(* A connection past [max_connections]: one id-0 error reply naming the
   cap, then closed at once.  A fresh socket's send buffer is empty, so
   the short non-blocking write goes out whole. *)
let refuse_conn t fd =
  Metrics.incr t.c_refused;
  let message =
    Printf.sprintf "connection limit of %d reached; closing the connection"
      max_connections
  in
  let line =
    Jsonx.to_string
      (Serve_proto.response_to_json ~id:0 (Serve_proto.Error_reply { message }))
    ^ "\n"
  in
  (try
     Unix.set_nonblock fd;
     ignore (Unix.write_substring fd line 0 (String.length line))
   with Unix.Unix_error (_, _, _) -> ());
  t.log (Printf.sprintf "serve: %s refused: %s" (peer_name fd) message);
  match Unix.close fd with
  | () -> ()
  | exception Unix.Unix_error (_, _, _) -> ()

let accept_conn t =
  match Unix.accept t.listen_fd with
  | fd, _ when List.compare_length_with t.conns max_connections >= 0 ->
    refuse_conn t fd
  | fd, _ ->
    Unix.set_nonblock fd;
    let conn =
      {
        fd;
        inbuf = Buffer.create 256;
        outq = Queue.create ();
        out_off = 0;
        out_bytes = 0;
        max_pending = t.max_pending;
        peer = peer_name fd;
        want_trace = false;
        want_heartbeat = false;
        alive = true;
        reading = true;
        ready_at = Clock.now ();
      }
    in
    t.conns <- conn :: t.conns;
    t.log (Printf.sprintf "serve: accepted %s" conn.peer)
  | exception
      Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    ()

let run ?config ?(wall_every = 1.0) ?slo ?trace_file ?slow_dir
    ?(max_pending_bytes = 4 * 1024 * 1024) ?(log = ignore) (addr : address) net
    =
  if max_pending_bytes <= 0 then
    invalid_arg "Serve_server.run: max_pending_bytes <= 0";
  if wall_every <= 0. then invalid_arg "Serve_server.run: wall_every <= 0";
  (* A subscriber that disappears mid-broadcast must not kill the
     daemon with SIGPIPE; [send] handles the EPIPE instead. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  (* Output paths first: a bad slow dir or trace file must fail before
     the listener exists, or the socket file and its fd would leak. *)
  (match slow_dir with
  | None -> ()
  | Some dir -> (
    match Unix.mkdir dir 0o755 with
    | () -> ()
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> ()));
  let trace_oc = Option.map open_out trace_file in
  let listen_fd =
    match bind_listener addr with
    | fd -> fd
    | exception e ->
      Option.iter close_out trace_oc;
      raise e
  in
  (* The server owns its observability context: the tracer's sink
     broadcasts events to subscribed connections as they happen (and
     tees to [trace_file] when given), the metrics registry backs the
     [metrics] request.  No event precedes [t]: creating the broker
     traces nothing. *)
  let t_ref = ref None in
  let trace_sink =
    {
      Trace.emit =
        (fun time ev ->
          Option.iter
            (fun t -> broadcast t ?oc:trace_oc (fun c -> c.want_trace) time ev)
            !t_ref);
      close = (fun () -> Option.iter close_out trace_oc);
    }
  in
  (* A flight ring rides along when slow-request dumps are wanted: each
     exemplar dump then carries the events preceding the slow request,
     not just its own breakdown. *)
  let slow = Option.map (fun dir -> (dir, Flight.create ())) slow_dir in
  let sink =
    match slow with Some (_, ring) -> Flight.sink ring trace_sink | None -> trace_sink
  in
  let obs = Obs.create ~metrics:(Metrics.create ()) ~trace:(Trace.create sink) () in
  let broker = Serve_broker.create ?config ~obs net in
  (* Slow-request exemplars: the breakdown lands in the trace as a
     [slow_request] note; the first few also dump the flight ring so
     the events leading up to the miss are preserved. *)
  let slow_dumped = ref 0 in
  let on_exemplar ex =
    Obs.event obs (Reqtrace.exemplar_note ex);
    match slow with
    | Some (dir, ring) when !slow_dumped < 8 ->
      incr slow_dumped;
      let path =
        Filename.concat dir
          (Printf.sprintf "slow_%d.jsonl" (abs ex.Reqtrace.ex_rid))
      in
      Flight.dump_to_file ring path
    | Some _ | None -> ()
  in
  let reqtrace = Reqtrace.create ?slo ~on_exemplar obs in
  Serve_broker.set_slo_source broker (fun () -> Reqtrace.slo_counts reqtrace);
  let t =
    {
      listen_fd;
      broker;
      reqtrace;
      c_reaped = Obs.counter obs "serve.reaped";
      c_refused = Obs.counter obs "serve.refused";
      c_undecodable = Obs.counter obs "serve.undecodable";
      c_trace_lines = Obs.counter obs "serve.trace_lines";
      max_pending = max_pending_bytes;
      anon_rids = 0;
      conns = [];
      running = true;
      log;
    }
  in
  t_ref := Some t;
  (* Wall heartbeats: the Snapshot emitter pushes Trace.Heartbeat lines
     to subscribed connections on a monotonic cadence. *)
  let hb =
    Snapshot.create ~wall_every
      ~sink:{ Trace.emit = broadcast t (fun c -> c.want_heartbeat); close = ignore }
      ()
  in
  Snapshot.start hb (Serve_broker.snapshot_source broker);
  (match addr with
  | `Unix path -> log (Printf.sprintf "serve: listening on %s" path)
  | `Tcp (host, port) -> log (Printf.sprintf "serve: listening on %s:%d" host port));
  let scratch = Bytes.create 65536 in
  let hb_last = ref (Clock.now ()) in
  while t.running do
    let now = Clock.now () in
    if now -. !hb_last >= wall_every then begin
      Snapshot.wall_tick hb;
      hb_last := now
    end;
    let timeout = Float.max 0.01 (wall_every -. (now -. !hb_last)) in
    let fds =
      listen_fd
      :: List.filter_map (fun c -> if c.reading then Some c.fd else None) t.conns
    in
    (* Only fds with a backlog enter the write set: an always-writable
       idle socket would turn every select into a busy spin. *)
    let wfds =
      List.filter_map
        (fun c -> if c.alive && pending c then Some c.fd else None)
        t.conns
    in
    (match Unix.select fds wfds [] timeout with
    | readable, writable, _ ->
      List.iter
        (fun conn ->
          if conn.alive && List.memq conn.fd writable then try_flush conn)
        t.conns;
      if List.mem listen_fd readable then accept_conn t;
      let became_ready = Clock.now () in
      List.iter
        (fun conn ->
          if t.running && conn.alive && List.memq conn.fd readable then begin
            conn.ready_at <- became_ready;
            read_chunk t conn scratch
          end)
        t.conns;
      (* Replies generated this iteration go out now when the socket has
         room; anything left waits for write-readiness above.  A refused
         connection closes once its reply is out. *)
      List.iter
        (fun conn ->
          if conn.alive && pending conn then try_flush conn;
          if not (conn.reading || pending conn) then conn.alive <- false)
        t.conns
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    let dead, live = List.partition (fun c -> not c.alive) t.conns in
    t.conns <- live;
    List.iter
      (fun c ->
        Metrics.incr t.c_reaped;
        close_conn t c)
      dead
  done;
  List.iter
    (fun c ->
      drain_conn c;
      close_conn t c)
    t.conns;
  t.conns <- [];
  (match Unix.close listen_fd with
  | () -> ()
  | exception Unix.Unix_error (_, _, _) -> ());
  (match addr with `Unix path -> unlink_quietly path | `Tcp _ -> ());
  (* Flush the trace tee (the tracer's close is idempotent). *)
  Obs.close obs;
  log (Printf.sprintf "serve: shut down after %d requests"
         (Serve_broker.requests broker));
  Serve_broker.requests broker
