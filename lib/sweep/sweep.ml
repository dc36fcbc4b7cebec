let recommended_jobs () = Domain.recommended_domain_count ()

(* The one worker-pool protocol: [workers] domains each run
   [body w wobs guard] on a private fork [wobs] of [obs], wrapping each
   failure-isolated unit of work as [guard slot f].  After every domain
   joins, the forks are merged back into [obs] and the failure of the
   lowest slot is re-raised with its backtrace.  Each slot is written by
   one domain only, and [Domain.join] orders those writes before our
   reads. *)
let pool ~obs ~slots workers body =
  let errors = Array.make slots None in
  let guard slot f =
    match f () with
    | () -> ()
    | exception e -> errors.(slot) <- Some (e, Printexc.get_raw_backtrace ())
  in
  let spawn w =
    Domain.spawn (fun () ->
        let wobs = Obs.fork obs in
        body w wobs guard;
        wobs)
  in
  let forks = Array.map Domain.join (Array.init workers spawn) in
  Array.iter (fun wobs -> Obs.absorb ~into:obs wobs) forks;
  Array.iter
    (function Some (e, bt) -> Printexc.raise_with_backtrace e bt | None -> ())
    errors

let map ?jobs ?(obs = Obs.null) f points =
  let jobs = match jobs with Some j -> j | None -> recommended_jobs () in
  if jobs < 1 then invalid_arg "Sweep.map: jobs must be >= 1";
  let items = Array.of_list points in
  let n = Array.length items in
  let workers = min jobs n in
  if workers <= 1 then List.map (f obs) points
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    (* Each worker pulls the next unclaimed index, so a failing point is
       its own slot and the worker moves on to the next one. *)
    pool ~obs ~slots:n workers (fun _ wobs guard ->
        let rec loop () =
          let i = Atomic.fetch_and_add next 1 in
          if i < n then begin
            guard i (fun () -> results.(i) <- Some (f wobs items.(i)));
            loop ()
          end
        in
        loop ());
    Array.to_list
      (Array.map (function Some r -> r | None -> assert false) results)
  end

type open_loop_report = {
  sent : int;
  wall_s : float;
  achieved_rps : float;
  max_lag_s : float;
}

let open_loop ?jobs ?(obs = Obs.null) ?(timer = "open_loop.latency")
    ?(on_complete = fun _ _ -> ()) ~arrivals ~worker ?(finish = fun _ -> ())
    f =
  let jobs = match jobs with Some j -> j | None -> recommended_jobs () in
  if jobs < 1 then invalid_arg "Sweep.open_loop: jobs must be >= 1";
  let n = Array.length arrivals in
  if n = 0 then { sent = 0; wall_s = 0.; achieved_rps = 0.; max_lag_s = 0. }
  else begin
    let workers = min jobs n in
    let lags = Array.make workers 0. in
    (* One schedule origin for every domain: operation [i] is due at
       [t0 + arrivals.(i)] on the shared monotonic clock. *)
    let t0 = Clock.now () in
    (* Worker [w] owns indices [w, w + workers, ...]: a deterministic
       split, and index order within a slice is due-time order because
       [arrivals] is non-decreasing. *)
    let run w wobs =
      let tm = Obs.timer wobs timer in
      let state = worker w in
      Fun.protect
        ~finally:(fun () -> finish state)
        (fun () ->
          let i = ref w in
          while !i < n do
            let due = arrivals.(!i) in
            let rec wait () =
              let now = Clock.now () -. t0 in
              if now < due then begin
                Unix.sleepf (due -. now);
                wait ()
              end
            in
            wait ();
            let lag = Clock.now () -. t0 -. due in
            if lag > lags.(w) then lags.(w) <- lag;
            f wobs state !i;
            (* Open-loop latency: completion minus the *scheduled* due
               time, so backlog behind a slow target is charged to the
               operations that queued, not hidden by a slipped start. *)
            let latency = Clock.now () -. t0 -. due in
            Metrics.observe tm latency;
            on_complete !i latency;
            i := !i + workers
          done)
    in
    if workers = 1 then run 0 obs
    else
      pool ~obs ~slots:workers workers (fun w wobs guard ->
          guard w (fun () -> run w wobs));
    let wall_s = Clock.now () -. t0 in
    {
      sent = n;
      wall_s;
      achieved_rps = (if wall_s > 0. then float_of_int n /. wall_s else 0.);
      max_lag_s = Array.fold_left Float.max 0. lags;
    }
  end
