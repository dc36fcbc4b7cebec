(* Tests for the discrete-event substrate and statistics. *)

let approx = Alcotest.float 1e-9

(* --- Event queue --- *)

let test_queue_time_order () =
  let q = Event_queue.create () in
  Event_queue.add q ~time:3. "c";
  Event_queue.add q ~time:1. "a";
  Event_queue.add q ~time:2. "b";
  let pop () = Option.get (Event_queue.pop q) in
  Alcotest.(check (pair (float 0.) string)) "first" (1., "a") (pop ());
  Alcotest.(check (pair (float 0.) string)) "second" (2., "b") (pop ());
  Alcotest.(check (pair (float 0.) string)) "third" (3., "c") (pop ());
  Alcotest.(check bool) "drained" true (Event_queue.pop q = None)

let test_queue_fifo_on_ties () =
  let q = Event_queue.create () in
  Event_queue.add q ~time:1. "first";
  Event_queue.add q ~time:1. "second";
  Event_queue.add q ~time:1. "third";
  let order = List.init 3 (fun _ -> snd (Option.get (Event_queue.pop q))) in
  Alcotest.(check (list string)) "insertion order" [ "first"; "second"; "third" ] order

let test_queue_peek () =
  let q = Event_queue.create () in
  Alcotest.(check (option (float 0.))) "empty" None (Event_queue.peek_time q);
  Event_queue.add q ~time:5. "x";
  Alcotest.(check (option (float 0.))) "peek" (Some 5.) (Event_queue.peek_time q);
  Alcotest.(check int) "peek leaves the event queued" 1 (Event_queue.size q)

let test_queue_non_finite_time () =
  let q = Event_queue.create () in
  Alcotest.check_raises "nan" (Invalid_argument "Event_queue.add: non-finite time")
    (fun () -> Event_queue.add q ~time:Float.nan "x")

(* A pre-sized heap must still grow once its capacity is exceeded. *)
let test_queue_capacity_growth () =
  let q = Event_queue.create ~capacity:4 () in
  for i = 100 downto 1 do
    Event_queue.add q ~time:(float_of_int i) i
  done;
  Alcotest.(check int) "all queued" 100 (Event_queue.size q);
  let order = List.init 100 (fun _ -> snd (Option.get (Event_queue.pop q))) in
  Alcotest.(check (list int)) "time order" (List.init 100 succ) order;
  Alcotest.(check int) "drained" 0 (Event_queue.size q)

(* Ties stay first-in first-out even when pops interleave with adds. *)
let test_queue_interleaved_ties () =
  let q = Event_queue.create () in
  Event_queue.add q ~time:1. "a";
  Event_queue.add q ~time:2. "b";
  Alcotest.(check (pair (float 0.) string)) "first pop" (1., "a")
    (Option.get (Event_queue.pop q));
  Event_queue.add q ~time:2. "c";
  Event_queue.add q ~time:0.5 "d";
  Alcotest.(check int) "three live" 3 (Event_queue.size q);
  let order = List.init 3 (fun _ -> snd (Option.get (Event_queue.pop q))) in
  Alcotest.(check (list string)) "earliest, then ties in order" [ "d"; "b"; "c" ] order;
  Alcotest.(check (option (float 0.))) "empty" None (Event_queue.peek_time q)

let test_queue_many_random () =
  let q = Event_queue.create () in
  let rng = Prng.create 5 in
  let times = List.init 1000 (fun _ -> Prng.float rng 100.) in
  List.iter (fun t -> Event_queue.add q ~time:t ()) times;
  let rec drain last acc =
    match Event_queue.pop q with
    | None -> acc
    | Some (t, ()) ->
      Alcotest.(check bool) "monotone" true (t >= last);
      drain t (acc + 1)
  in
  Alcotest.(check int) "all popped" 1000 (drain neg_infinity 0)

(* --- Engine --- *)

let test_engine_runs_in_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:2. (fun _ -> log := "b" :: !log);
  Engine.schedule e ~delay:1. (fun _ -> log := "a" :: !log);
  ignore (Engine.run e);
  Alcotest.(check (list string)) "order" [ "b"; "a" ] !log;
  Alcotest.check approx "clock at last event" 2. (Engine.now e)

let test_engine_nested_scheduling () =
  let e = Engine.create () in
  let fired = ref 0. in
  Engine.schedule e ~delay:1. (fun e ->
      Engine.schedule e ~delay:1.5 (fun e -> fired := Engine.now e));
  ignore (Engine.run e);
  Alcotest.check approx "nested time" 2.5 !fired

let test_engine_until () =
  let e = Engine.create () in
  let count = ref 0 in
  let rec tick engine =
    incr count;
    Engine.schedule engine ~delay:1. tick
  in
  Engine.schedule e ~delay:1. tick;
  let handled = Engine.run ~until:5.5 e in
  Alcotest.(check int) "five events" 5 handled;
  Alcotest.check approx "clock clamped to until" 5.5 (Engine.now e);
  Alcotest.(check bool) "next still pending" true (Engine.step e);
  Alcotest.(check int) "it was the sixth" 6 (Engine.dispatched e)

let test_engine_past_rejected () =
  let e = Engine.create () in
  Engine.schedule_at e ~time:10. (fun _ -> ());
  ignore (Engine.run e);
  Alcotest.check_raises "past" (Invalid_argument "Engine.schedule_at: time in the past")
    (fun () -> Engine.schedule_at e ~time:9. (fun _ -> ()))

let test_engine_step () =
  let e = Engine.create () in
  Alcotest.(check bool) "empty step" false (Engine.step e);
  Engine.schedule e ~delay:1. (fun _ -> ());
  Alcotest.(check bool) "one step" true (Engine.step e)

(* --- heartbeats --- *)

let test_engine_heartbeat_boundaries () =
  (* Events at t = 3, 7, 12, 25; heartbeats every 10.  The boundary at
     10 fires before the t = 12 event, at 20 before the t = 25 event,
     each with the clock set to the boundary instant — so the beat
     sequence is a pure function of the event stream. *)
  let e = Engine.create () in
  let beats = ref [] in
  let seen = ref [] in
  List.iter
    (fun time ->
      Engine.schedule_at e ~time (fun e -> seen := Engine.now e :: !seen))
    [ 3.; 7.; 12.; 25. ];
  Engine.on_heartbeat e ~every:10. (fun e ->
      beats := (Engine.now e, Engine.dispatched e) :: !beats);
  ignore (Engine.run e);
  Alcotest.(check (list (pair (float 1e-9) int)))
    "beats at boundaries, before the crossing event"
    [ (10., 2); (20., 3) ]
    (List.rev !beats);
  Alcotest.(check (list (float 1e-9)))
    "events undisturbed" [ 3.; 7.; 12.; 25. ] (List.rev !seen);
  Alcotest.(check int) "dispatched counts engine-side" 4 (Engine.dispatched e)

let test_engine_heartbeat_deterministic () =
  (* Same schedule, same beats — twice. *)
  let run () =
    let e = Engine.create () in
    let beats = ref [] in
    for i = 1 to 50 do
      Engine.schedule_at e ~time:(float_of_int i *. 1.7) (fun _ -> ())
    done;
    Engine.on_heartbeat e ~every:7. (fun e ->
        beats := (Engine.now e, Engine.dispatched e) :: !beats);
    ignore (Engine.run e);
    List.rev !beats
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "beat streams identical" true (a = b);
  Alcotest.(check bool) "beats happened" true (a <> [])

let test_engine_heartbeat_respects_until () =
  let e = Engine.create () in
  let beats = ref 0 in
  Engine.schedule_at e ~time:100. (fun _ -> ());
  Engine.on_heartbeat e ~every:10. (fun _ -> incr beats);
  ignore (Engine.run ~until:35. e);
  (* Boundaries 10, 20, 30 lie within [0, 35]; 40+ must not fire even
     though an event sits at t = 100. *)
  Alcotest.(check int) "only boundaries <= until fire" 3 !beats

let test_engine_heartbeat_validates () =
  let e = Engine.create () in
  Alcotest.(check bool) "every <= 0 rejected" true
    (match Engine.on_heartbeat e ~every:0. (fun _ -> ()) with
    | exception Invalid_argument _ -> true
    | () -> false);
  Alcotest.(check bool) "wall every <= 0 rejected" true
    (match Engine.on_wall_heartbeat e ~every_s:(-1.) (fun _ -> ()) with
    | exception Invalid_argument _ -> true
    | () -> false)

let test_engine_wall_heartbeat_fires () =
  (* A zero-interval wall heartbeat fires at every 64-event poll. *)
  let e = Engine.create () in
  let beats = ref 0 in
  for i = 1 to 200 do
    Engine.schedule_at e ~time:(float_of_int i) (fun _ -> ())
  done;
  Engine.on_wall_heartbeat e ~every_s:1e-9 (fun _ -> incr beats);
  ignore (Engine.run e);
  Alcotest.(check int) "one beat per 64-event poll" (200 / 64) !beats

(* --- Welford --- *)

let test_welford_known () =
  let w = Stats.Welford.create () in
  List.iter (Stats.Welford.add w) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  Alcotest.(check int) "count" 8 (Stats.Welford.count w);
  Alcotest.check approx "mean" 5. (Stats.Welford.mean w);
  Alcotest.check approx "sample variance" (32. /. 7.) (Stats.Welford.variance w);
  Alcotest.check approx "min" 2. (Stats.Welford.min_value w);
  Alcotest.check approx "max" 9. (Stats.Welford.max_value w)

let test_welford_empty () =
  let w = Stats.Welford.create () in
  Alcotest.check approx "mean 0" 0. (Stats.Welford.mean w);
  Alcotest.check approx "variance 0" 0. (Stats.Welford.variance w)

let test_welford_ci () =
  let w = Stats.Welford.create () in
  for i = 1 to 100 do
    Stats.Welford.add w (float_of_int (i mod 10))
  done;
  let lo, hi = Stats.Welford.confidence_interval w in
  let mean = Stats.Welford.mean w in
  Alcotest.(check bool) "contains mean" true (lo <= mean && mean <= hi);
  Alcotest.(check bool) "non-degenerate" true (hi > lo)

let test_welford_merge () =
  let all = Stats.Welford.create () in
  let a = Stats.Welford.create () and b = Stats.Welford.create () in
  let rng = Prng.create 9 in
  for i = 1 to 1000 do
    let x = Prng.float rng 10. in
    Stats.Welford.add all x;
    Stats.Welford.add (if i <= 400 then a else b) x
  done;
  let merged = Stats.Welford.merge a b in
  Alcotest.check (Alcotest.float 1e-7) "mean" (Stats.Welford.mean all)
    (Stats.Welford.mean merged);
  Alcotest.check (Alcotest.float 1e-6) "variance" (Stats.Welford.variance all)
    (Stats.Welford.variance merged);
  Alcotest.(check int) "count" 1000 (Stats.Welford.count merged)

(* Properties *)

let qcheck_welford_matches_naive =
  QCheck.Test.make ~name:"welford matches direct mean/variance" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 2 60) (float_range (-100.) 100.))
    (fun xs ->
      let w = Stats.Welford.create () in
      List.iter (Stats.Welford.add w) xs;
      let n = float_of_int (List.length xs) in
      let mean = List.fold_left ( +. ) 0. xs /. n in
      let var =
        List.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.)) 0. xs /. (n -. 1.)
      in
      Float.abs (Stats.Welford.mean w -. mean) < 1e-6
      && Float.abs (Stats.Welford.variance w -. var) < 1e-5)

let qcheck_event_queue_sorts =
  QCheck.Test.make ~name:"event queue pops in sorted order" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 0 100) (float_range 0. 1000.))
    (fun times ->
      let q = Event_queue.create () in
      List.iter (fun t -> Event_queue.add q ~time:t ()) times;
      let rec drain acc =
        match Event_queue.pop q with
        | None -> List.rev acc
        | Some (t, ()) -> drain (t :: acc)
      in
      drain [] = List.sort compare times)

(* Adds and pops interleave, and times come from four values, so ties
   are frequent.  After every step [pop], [peek_time] and [size] must
   agree with a reference list sorted by (time, insertion index). *)
let qcheck_event_queue_interleaved =
  let op =
    QCheck.Gen.(frequency [ (3, map Option.some (int_bound 3)); (2, return None) ])
  in
  let show = function Some k -> Printf.sprintf "add %d" k | None -> "pop" in
  QCheck.Test.make ~name:"event queue agrees with a sorted list under interleaving"
    ~count:300
    (QCheck.make ~print:QCheck.Print.(list show) QCheck.Gen.(list_size (int_range 0 120) op))
    (fun ops ->
      let q = Event_queue.create () in
      let by_time_then_index (t1, i1) (t2, i2) =
        match Float.compare t1 t2 with 0 -> Int.compare i1 i2 | c -> c
      in
      let reference = ref [] and added = ref 0 in
      List.for_all
        (fun step ->
          let agrees =
            match step with
            | Some k ->
              let entry = (float_of_int k, !added) in
              incr added;
              Event_queue.add q ~time:(fst entry) (snd entry);
              reference := List.merge by_time_then_index !reference [ entry ];
              true
            | None -> (
              match (Event_queue.pop q, !reference) with
              | None, [] -> true
              | Some got, want :: rest ->
                reference := rest;
                by_time_then_index got want = 0
              | Some _, [] | None, _ :: _ -> false)
          in
          agrees
          && Event_queue.size q = List.length !reference
          && Option.equal Float.equal (Event_queue.peek_time q)
               (Option.map fst (List.nth_opt !reference 0)))
        ops)

let () =
  Alcotest.run "sim"
    [
      ( "event-queue",
        [
          Alcotest.test_case "time order" `Quick test_queue_time_order;
          Alcotest.test_case "fifo ties" `Quick test_queue_fifo_on_ties;
          Alcotest.test_case "peek" `Quick test_queue_peek;
          Alcotest.test_case "non-finite time" `Quick test_queue_non_finite_time;
          Alcotest.test_case "capacity growth" `Quick test_queue_capacity_growth;
          Alcotest.test_case "interleaved ties" `Quick test_queue_interleaved_ties;
          Alcotest.test_case "1000 random events" `Quick test_queue_many_random;
        ] );
      ( "engine",
        [
          Alcotest.test_case "runs in order" `Quick test_engine_runs_in_order;
          Alcotest.test_case "nested scheduling" `Quick test_engine_nested_scheduling;
          Alcotest.test_case "until" `Quick test_engine_until;
          Alcotest.test_case "past rejected" `Quick test_engine_past_rejected;
          Alcotest.test_case "step" `Quick test_engine_step;
        ] );
      ( "heartbeat",
        [
          Alcotest.test_case "fires at boundaries before dispatch" `Quick
            test_engine_heartbeat_boundaries;
          Alcotest.test_case "deterministic cadence" `Quick
            test_engine_heartbeat_deterministic;
          Alcotest.test_case "boundaries fire up to until" `Quick
            test_engine_heartbeat_respects_until;
          Alcotest.test_case "validates intervals" `Quick
            test_engine_heartbeat_validates;
          Alcotest.test_case "wall heartbeat fires on polls" `Quick
            test_engine_wall_heartbeat_fires;
        ] );
      ( "welford",
        [
          Alcotest.test_case "known values" `Quick test_welford_known;
          Alcotest.test_case "empty" `Quick test_welford_empty;
          Alcotest.test_case "confidence interval" `Quick test_welford_ci;
          Alcotest.test_case "merge" `Quick test_welford_merge;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_welford_matches_naive;
            qcheck_event_queue_sorts;
            qcheck_event_queue_interleaved;
          ] );
    ]
