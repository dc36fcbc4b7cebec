(** Socket-free request dispatch for the QoS-broker daemon.

    A broker owns one {!Drcomm} service and keeps no table of its own:
    the wire speaks [Channel_id.to_int] integers, which the service
    resolves ({!Drcomm.channel_of_id}).  {!dispatch} maps every
    {!Serve_proto.request} the codec can produce onto the service —
    connection-level requests ([subscribe], [shutdown]) come back as
    [Error_reply]; the server intercepts them before dispatch.

    Pure with respect to I/O: {!Serve_server} frames it over a socket,
    the tests drive it directly. *)

type t

val create : ?config:Drcomm.Config.t -> ?obs:Obs.t -> Net_state.t -> t
(** [obs] (default {!Obs.null}) receives the service's
    instrumentation; give it a live metrics registry to make the
    [metrics] request meaningful and a live tracer to stream events to
    subscribers. *)

val service : t -> Drcomm.t

val requests : t -> int
(** Requests dispatched so far (all kinds).  Doubles as the broker's
    event axis: trace timestamps and snapshot [sim_time] read it. *)

val dispatch : t -> Serve_proto.request -> Serve_proto.response
(** Apply one request.  Never raises on wire-expressible failures —
    unknown channels, out-of-range nodes/edges and rejected admissions
    come back as [Error_reply] / [Admit_rejected] / [accepted = false]. *)

val dispatch_timed :
  t -> Serve_proto.request -> Serve_proto.response * float * float
(** {!dispatch} plus the stage split for request tracing:
    [(response, service_s, redistribute_s)] where [redistribute_s] is
    the water-filling slice of the dispatch (differenced off the
    service's redistribution accumulator) and [service_s] the
    remainder.  Both non-negative; their sum is the dispatch's wall
    time on the monotonic clock. *)

val set_slo_source : t -> (unit -> int * int) -> unit
(** Point the snapshot source's [slo] accessor at the server's request
    tracer ({!Reqtrace.slo_counts}); defaults to [(0, 0)]. *)

val live_channels : t -> int list
(** Sorted wire ids of the live connections (for {!Serve_proto.request_of_op}). *)

val failed_edges : t -> int list
(** Sorted failed edge ids (for {!Serve_proto.request_of_op}). *)

val snapshot_source : t -> Snapshot.source
(** Accessors for a {!Snapshot} emitter over broker state: [sim_time]
    and [events] count dispatched requests, levels come from the
    service's maintained histogram, counters from the obs registry. *)
