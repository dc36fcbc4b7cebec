(** The QoS-broker daemon: a single-threaded event loop framing
    {!Serve_broker} over a stream socket.

    One process, one {!Drcomm} service, many clients.  Requests are
    JSONL lines ({!Serve_proto}); the loop multiplexes connections with
    [select], so a request is dispatched atomically with respect to
    every other — clients never observe a half-applied operation.

    Connection-level requests are handled here rather than in the
    broker: [subscribe] flags the connection to receive pushed trace
    events and/or wall heartbeats (broadcast as they happen, interleaved
    between replies); [shutdown] answers [shutting_down], then closes
    every connection and returns from {!run}.

    All sockets are non-blocking and every reply or broadcast line is
    queued per connection; the select loop writes queues out as fds
    become writable.  The dispatch path therefore never blocks on a
    peer — a subscriber that stops reading stalls only its own stream,
    and is reaped once its backlog passes [max_pending_bytes].  Input is
    bounded too: a connection whose unterminated line passes 1 MiB gets
    one id-0 error reply naming the cap (counted in
    [serve.undecodable]), is read no further, and closes once the reply
    is flushed.  So is the connection count: a connection accepted while
    {!max_connections} are live gets one id-0 error reply naming that
    cap and is closed at once (counted in [serve.refused]).

    The server builds its own observability context: a live metrics
    registry (served by the [metrics] request) and a tracer whose sink
    broadcasts to subscribed connections.  Wall heartbeats ride the
    {!Snapshot} emitter on a monotonic {!Clock} cadence.  A trace or
    heartbeat line is serialized only when it has a reader (the trace
    file or a live connection subscribed to its stream) and then once,
    however many read it; [serve.trace_lines] counts the lines built. *)

type address = [ `Unix of string | `Tcp of string * int ]
(** [`Unix path] is unlinked (if stale) before binding and again on
    shutdown.  [`Tcp (host, port)] binds with [SO_REUSEADDR]; both
    listen with a backlog of 64. *)

val max_connections : int
(** The live-connection cap, 1000: [select] cannot watch an fd at or
    above [FD_SETSIZE] (1024), and the cap leaves room below it for the
    daemon's own fds. *)

val run :
  ?config:Drcomm.Config.t ->
  ?wall_every:float ->
  ?slo:float ->
  ?trace_file:string ->
  ?slow_dir:string ->
  ?max_pending_bytes:int ->
  ?log:(string -> unit) ->
  address ->
  Net_state.t ->
  int
(** Serve until a client sends [shutdown]; returns the number of
    requests dispatched.  [wall_every] (default 1.0 s, monotonic) is the
    heartbeat cadence for subscribed connections.  [max_pending_bytes]
    (default 4 MiB, must be positive) caps one connection's queued
    output; a slower-than-its-stream subscriber is disconnected at the
    cap rather than allowed to grow the queue without bound.  [log]
    (default silent) receives one human-readable line per lifecycle
    event — binds, accepts, disconnects; the server never writes to
    stdout itself.  Raises [Unix.Unix_error] when the socket cannot be
    bound.

    {b Request tracing} (DESIGN.md §15).  Every request — decodable or
    not — is decomposed into queue/parse/service/redistribute/write
    stage durations on the monotonic clock and fed to a {!Reqtrace}
    recorder: per-stage [req.*] timers in the metrics registry and
    [Req_begin]/[Req_stage]/[Req_end] trace events for subscribers.
    [trace_file] tees the full trace stream to a JSONL file (closed on
    shutdown).  [slo] (seconds) arms
    SLO counting — good/bad totals and a rolling burn rate ride the
    snapshot heartbeats — and emits a [slow_request] note per miss;
    with [slow_dir] (created if missing) the first few misses also dump
    a flight-recorder ring of the events preceding them to
    [slow_<rid>.jsonl] files there. *)
