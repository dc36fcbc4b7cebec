type t = {
  queue : (t -> unit) Event_queue.t;
  mutable clock : float;
  obs : Obs.t;
  ev_dispatched : Metrics.counter;
  (* Metrics-independent dispatch count: telemetry needs it even when
     the metrics registry is off, and it must not double when several
     engines share a registry. *)
  mutable dispatched : int;
  mutable hb_every : float;
  mutable hb_next : float;
  mutable hb_fn : (t -> unit) option;
  mutable whb_every : float;
  mutable whb_last : float;
  mutable whb_fn : (t -> unit) option;
}

let create ?capacity ?(obs = Obs.null) () =
  {
    queue = Event_queue.create ?capacity ();
    clock = 0.;
    obs;
    ev_dispatched = Obs.counter obs "engine.events";
    dispatched = 0;
    hb_every = 0.;
    hb_next = infinity;
    hb_fn = None;
    whb_every = 0.;
    whb_last = 0.;
    whb_fn = None;
  }

let now t = t.clock

let dispatched t = t.dispatched

let schedule_at t ~time f =
  if time < t.clock then invalid_arg "Engine.schedule_at: time in the past";
  Event_queue.add t.queue ~time f

let schedule t ~delay f =
  if delay < 0. then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~time:(t.clock +. delay) f

let on_heartbeat t ~every f =
  if every <= 0. then invalid_arg "Engine.on_heartbeat: every must be positive";
  t.hb_every <- every;
  t.hb_next <- t.clock +. every;
  t.hb_fn <- Some f

let on_wall_heartbeat t ~every_s f =
  if every_s <= 0. then invalid_arg "Engine.on_wall_heartbeat: every_s must be positive";
  t.whb_every <- every_s;
  t.whb_last <- Clock.now ();
  t.whb_fn <- Some f

let step t =
  match Event_queue.pop t.queue with
  | None -> false
  | Some (time, f) ->
    t.clock <- time;
    t.dispatched <- t.dispatched + 1;
    Metrics.incr t.ev_dispatched;
    f t;
    true

let run ?(until = infinity) t =
  Obs.span t.obs "engine.run" @@ fun () ->
  let handled = ref 0 in
  let continue = ref true in
  while !continue do
    match Event_queue.peek_time t.queue with
    | None -> continue := false
    | Some time when time > until ->
      t.clock <- until;
      continue := false
    | Some time ->
      (* Fire every simulation-time heartbeat boundary the next event
         would cross, before dispatching it: the callback observes the
         state as of the boundary instant, and the cadence is a pure
         function of the event stream — deterministic whatever the
         wall-clock pacing. *)
      (match t.hb_fn with
      | Some fn ->
        while t.hb_next <= time && t.hb_next <= until do
          t.clock <- t.hb_next;
          fn t;
          t.hb_next <- t.hb_next +. t.hb_every
        done
      | None -> ());
      ignore (step t);
      incr handled;
      (* Wall heartbeats poll the clock only every 64 events to keep the
         clock-read cost off the per-event path. *)
      (match t.whb_fn with
      | Some fn when t.dispatched land 63 = 0 ->
        let now_s = Clock.now () in
        if now_s -. t.whb_last >= t.whb_every then begin
          t.whb_last <- now_s;
          fn t
        end
      | _ -> ())
  done;
  (* Close the interval even if we drained the queue first: the clock
     advances to [until], and any heartbeat boundaries on the way fire
     first — stopping at [until] must not silently swallow beats the
     interval contains. *)
  if Float.is_finite until then begin
    (match t.hb_fn with
    | Some fn ->
      while t.hb_next <= until do
        t.clock <- t.hb_next;
        fn t;
        t.hb_next <- t.hb_next +. t.hb_every
      done
    | None -> ());
    if t.clock < until then t.clock <- until
  end;
  !handled
