type t = {
  metrics : Metrics.t;
  trace : Trace.t;
  spans : Span.t;
  mutable clock : unit -> float;
}

let zero_clock () = 0.

let create ?(metrics = Metrics.disabled) ?(trace = Trace.disabled)
    ?(spans = Span.disabled) () =
  { metrics; trace; spans; clock = zero_clock }

let null = create ()

let metrics t = t.metrics
let spans t = t.spans

let enabled t =
  Metrics.enabled t.metrics || Trace.enabled t.trace || Span.enabled t.spans

let tracing t = Trace.enabled t.trace
let profiling t = Span.enabled t.spans

let set_clock t f = if t != null then t.clock <- f
let now t = t.clock ()

let fork t =
  let metrics =
    if Metrics.enabled t.metrics then Metrics.create () else Metrics.disabled
  in
  let spans = if Span.enabled t.spans then Span.create () else Span.disabled in
  create ~metrics ~spans ()

let absorb ~into worker =
  if worker != into then begin
    Metrics.merge_into ~into:into.metrics worker.metrics;
    Span.merge_into ~into:into.spans worker.spans
  end

let counter t name = Metrics.counter t.metrics name
let gauge t name = Metrics.gauge t.metrics name
let timer t name = Metrics.timer t.metrics name

let event t ev = if Trace.enabled t.trace then Trace.emit t.trace ~time:(t.clock ()) ev

(* Spans are timed (metrics timer [phase.<name>]), profiled
   (hierarchical {!Span} record when a profiler is attached) and traced.
   With a profiler the trace carries [Span_begin]/[Span_end] (wall time,
   self time, GC deltas); without one it falls back to the flat
   [Phase_begin]/[Phase_end] pair at the simulation clock. *)
let span t name f =
  if not (enabled t) then f ()
  else begin
    let frame = Span.enter t.spans name in
    (match frame with
    | Some fr -> event t (Trace.Span_begin { name; wall_s = Span.frame_start fr })
    | None -> event t (Trace.Phase_begin { name }));
    let t0 = Clock.now () in
    let finally () =
      let dt = Clock.elapsed_since t0 in
      Metrics.observe (Metrics.timer t.metrics ("phase." ^ name)) dt;
      match frame with
      | Some fr -> (
        match Span.exit t.spans fr with
        | Some r ->
          event t
            (Trace.Span_end
               {
                 name;
                 wall_s = r.Span.start_s +. r.Span.total_s;
                 total_s = r.Span.total_s;
                 self_s = r.Span.self_s;
                 minor_words = r.Span.minor_words;
                 major_words = r.Span.major_words;
               })
        | None -> ())
      | None -> event t (Trace.Phase_end { name; seconds = dt })
    in
    Fun.protect ~finally f
  end

let metrics_json t = Metrics.snapshot t.metrics

let close t = Trace.close t.trace

(* [Trace.close] is idempotent, so the at_exit hook is safe alongside
   an explicit close on the normal path; it exists for the abnormal
   ones — an uncaught exception or a mid-run [exit] must not lose the
   buffered JSONL tail. *)
let close_at_exit t = at_exit (fun () -> close t)
