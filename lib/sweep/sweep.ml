let recommended_jobs () = Domain.recommended_domain_count ()

let map ?jobs ?(obs = Obs.null) f points =
  let jobs = match jobs with Some j -> j | None -> recommended_jobs () in
  if jobs < 1 then invalid_arg "Sweep.map: jobs must be >= 1";
  let items = Array.of_list points in
  let n = Array.length items in
  let workers = min jobs n in
  if workers <= 1 then List.map (f obs) points
  else begin
    let results = Array.make n None in
    let errors = Array.make n None in
    let next = Atomic.make 0 in
    (* Each worker pulls the next unclaimed index; every cell is written
       by exactly one domain, and [Domain.join] orders those writes
       before our reads. *)
    let worker () =
      let wobs = Obs.fork obs in
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          (match f wobs items.(i) with
          | r -> results.(i) <- Some r
          | exception e -> errors.(i) <- Some (e, Printexc.get_raw_backtrace ()));
          loop ()
        end
      in
      loop ();
      wobs
    in
    let domains = Array.init workers (fun _ -> Domain.spawn worker) in
    let forks = Array.map Domain.join domains in
    Array.iter (fun w -> Obs.absorb ~into:obs w) forks;
    Array.iter
      (function
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> ())
      errors;
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
    let errors = Array.make workers None in
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
    else begin
      let spawn w =
        Domain.spawn (fun () ->
            let wobs = Obs.fork obs in
            (match run w wobs with
            | () -> ()
            | exception e ->
              errors.(w) <- Some (e, Printexc.get_raw_backtrace ()));
            wobs)
      in
      let domains = Array.init workers spawn in
      let forks = Array.map Domain.join domains in
      Array.iter (fun wobs -> Obs.absorb ~into:obs wobs) forks;
      Array.iter
        (function
          | Some (e, bt) -> Printexc.raise_with_backtrace e bt
          | None -> ())
        errors
    end;
    let wall_s = Clock.now () -. t0 in
    {
      sent = n;
      wall_s;
      achieved_rps = (if wall_s > 0. then float_of_int n /. wall_s else 0.);
      max_lag_s = Array.fold_left Float.max 0. lags;
    }
  end
