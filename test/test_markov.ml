(* Tests for CTMC/DTMC solvers against closed-form oracles. *)

let approx = Alcotest.float 1e-9
let loose = Alcotest.float 1e-6

let test_two_state_stationary () =
  let c = Ctmc.create 2 in
  Ctmc.add_rate c ~src:0 ~dst:1 1.;
  Ctmc.add_rate c ~src:1 ~dst:0 3.;
  let pi = Ctmc.stationary c in
  Alcotest.check approx "pi0" 0.75 pi.(0);
  Alcotest.check approx "pi1" 0.25 pi.(1)

let test_rates_accumulate () =
  let c = Ctmc.create 2 in
  Ctmc.add_rate c ~src:0 ~dst:1 1.;
  Ctmc.add_rate c ~src:0 ~dst:1 2.;
  Alcotest.check approx "accumulated" 3. (Ctmc.rate c ~src:0 ~dst:1)

let test_self_rate_rejected () =
  let c = Ctmc.create 2 in
  Alcotest.check_raises "self" (Invalid_argument "Ctmc.add_rate: src = dst") (fun () ->
      Ctmc.add_rate c ~src:1 ~dst:1 1.)

let test_negative_rate_rejected () =
  let c = Ctmc.create 2 in
  Alcotest.check_raises "negative" (Invalid_argument "Ctmc.add_rate: negative rate")
    (fun () -> Ctmc.add_rate c ~src:0 ~dst:1 (-1.))

let test_generator_rows_sum_to_zero () =
  let c = Ctmc.create 3 in
  Ctmc.add_rate c ~src:0 ~dst:1 2.;
  Ctmc.add_rate c ~src:1 ~dst:2 1.;
  Ctmc.add_rate c ~src:2 ~dst:0 4.;
  Ctmc.add_rate c ~src:0 ~dst:2 0.5;
  let sums = Matrix.row_sums (Ctmc.generator c) in
  Array.iter (fun s -> Alcotest.check approx "row sum" 0. s) sums

let test_reducible_raises () =
  let c = Ctmc.create 3 in
  Ctmc.add_rate c ~src:0 ~dst:1 1.;
  (* state 2 unreachable and absorbing-ish: chain reducible *)
  Alcotest.check_raises "reducible" Linsolve.Singular (fun () ->
      ignore (Ctmc.stationary c))

let test_mean_reward () =
  let c = Ctmc.create 2 in
  Ctmc.add_rate c ~src:0 ~dst:1 1.;
  Ctmc.add_rate c ~src:1 ~dst:0 1.;
  Alcotest.check approx "mean of levels" 0.5
    (Ctmc.mean_reward c float_of_int);
  Alcotest.check approx "mean of bandwidths" 150.
    (Ctmc.mean_reward c (fun i -> if i = 0 then 100. else 200.))

(* --- Birth-death oracles --- *)

(* Closed-form stationary vector of the birth-death chain on levels
   [0 .. length birth]: [birth.(k)] is the rate [k -> k+1], [death.(k)]
   the rate [k+1 -> k], and [pi_i] is proportional to
   [prod_{k<i} birth_k / death_k]. *)
let bd_stationary ~birth ~death =
  let unnorm = Array.make (Array.length birth + 1) 1. in
  Array.iteri (fun k b -> unnorm.(k + 1) <- unnorm.(k) *. b /. death.(k)) birth;
  let total = Array.fold_left ( +. ) 0. unnorm in
  Array.map (fun x -> x /. total) unnorm

let bd_ctmc ~birth ~death =
  let c = Ctmc.create (Array.length birth + 1) in
  Array.iteri (fun k r -> Ctmc.add_rate c ~src:k ~dst:(k + 1) r) birth;
  Array.iteri (fun k r -> Ctmc.add_rate c ~src:(k + 1) ~dst:k r) death;
  c

let test_birth_death_matches_ctmc () =
  let birth = [| 1.; 2.; 0.5 |] and death = [| 3.; 1.; 2. |] in
  let closed = bd_stationary ~birth ~death in
  let solved = Ctmc.stationary (bd_ctmc ~birth ~death) in
  Array.iteri (fun i p -> Alcotest.check loose "same" p solved.(i)) closed

(* Textbook queues solved by [Ctmc.stationary] on their birth-death
   chains. *)

let test_mm1k_known () =
  (* M/M/1/2 with lambda = mu: uniform over 3 levels. *)
  let pi = Ctmc.stationary (bd_ctmc ~birth:[| 1.; 1. |] ~death:[| 1.; 1. |]) in
  Array.iter (fun p -> Alcotest.check approx "uniform" (1. /. 3.) p) pi

let test_mm1k_light_load () =
  (* rho = 0.1: pi_i proportional to rho^i. *)
  let pi = Ctmc.stationary (bd_ctmc ~birth:[| 0.1; 0.1 |] ~death:[| 1.; 1. |]) in
  Alcotest.check loose "ratio 1" 0.1 (pi.(1) /. pi.(0));
  Alcotest.check loose "ratio 2" 0.1 (pi.(2) /. pi.(1))

let test_mean_level () =
  (* Up rates 2, 1 and down rates 1, 2 give pi = (1/4, 1/2, 1/4): mean
     level 1, the reward sum behind Model's average bandwidth. *)
  let c = bd_ctmc ~birth:[| 2.; 1. |] ~death:[| 1.; 2. |] in
  Alcotest.check approx "mean" 1. (Ctmc.mean_reward c float_of_int)

(* --- Erlang loss system --- *)

(* M/M/c/c with offered load [a] and unit mean holding time: arrivals at
   rate [a], departures at rate [k] from level [k].  The stationary mass
   of the full level [c] is the Erlang-B blocking probability. *)
let mmcc ~servers ~offered_load =
  bd_ctmc
    ~birth:(Array.make servers offered_load)
    ~death:(Array.init servers (fun k -> float_of_int (k + 1)))

let blocking ~servers ~offered_load =
  (Ctmc.stationary (mmcc ~servers ~offered_load)).(servers)

let test_erlang_one_server () =
  (* B(1, a) = a / (1 + a). *)
  Alcotest.check approx "a=1" 0.5 (blocking ~servers:1 ~offered_load:1.);
  Alcotest.check approx "a=3" 0.75 (blocking ~servers:1 ~offered_load:3.)

let test_erlang_known () =
  (* B(2, 1) = (1/2) / (1 + 1 + 1/2) = 0.2; B(3, 2) = (4/3) / (19/3). *)
  Alcotest.check approx "B(2,1)" 0.2 (blocking ~servers:2 ~offered_load:1.);
  Alcotest.check approx "B(3,2)" (4. /. 19.) (blocking ~servers:3 ~offered_load:2.)

let test_erlang_monotone () =
  let b c = blocking ~servers:c ~offered_load:8. in
  Alcotest.(check bool) "more servers, less blocking" true (b 4 > b 8 && b 8 > b 16);
  let load a = blocking ~servers:8 ~offered_load:a in
  Alcotest.(check bool) "more load, more blocking" true (load 2. < load 8. && load 8. < load 20.)

let test_erlang_occupancy () =
  (* Truncated Poisson: pi_k proportional to a^k / k!. *)
  let a = 2.5 and c = 5 in
  let rec fact k = if k = 0 then 1. else float_of_int k *. fact (k - 1) in
  let w = Array.init (c + 1) (fun k -> (a ** float_of_int k) /. fact k) in
  let total = Array.fold_left ( +. ) 0. w in
  let solved = Ctmc.stationary (mmcc ~servers:c ~offered_load:a) in
  Array.iteri (fun k wk -> Alcotest.check loose "occupancy" (wk /. total) solved.(k)) w

(* --- DTMC --- *)

let test_dtmc_validate_rejects () =
  Alcotest.check_raises "bad row" (Invalid_argument "Dtmc.validate: row 0 sums to 0.8")
    (fun () -> Dtmc.validate (Matrix.of_arrays [| [| 0.8 |] |]))

(* Gillespie cross-check: simulate the chain's trajectory with the
   stochastic simulation algorithm (exponential holding times, jump by
   embedded probabilities) and compare the time-weighted state occupancy
   against the solved stationary vector — validates Ctmc, Prng and the
   statistics stack together. *)
let test_gillespie_matches_stationary () =
  let c = Ctmc.create 4 in
  Ctmc.add_rate c ~src:0 ~dst:1 2.;
  Ctmc.add_rate c ~src:1 ~dst:2 1.5;
  Ctmc.add_rate c ~src:2 ~dst:3 1.;
  Ctmc.add_rate c ~src:3 ~dst:0 2.5;
  Ctmc.add_rate c ~src:1 ~dst:0 0.5;
  Ctmc.add_rate c ~src:2 ~dst:0 0.25;
  let pi = Ctmc.stationary c in
  let rng = Prng.create 99 in
  let occupancy = Array.make 4 0. in
  let state = ref 0 in
  let total = ref 0. in
  for _ = 1 to 200_000 do
    let exit_rate =
      List.fold_left (fun acc j -> acc +. Ctmc.rate c ~src:!state ~dst:j) 0.
        (List.filter (fun j -> j <> !state) [ 0; 1; 2; 3 ])
    in
    let dwell = Prng.exponential rng exit_rate in
    occupancy.(!state) <- occupancy.(!state) +. dwell;
    total := !total +. dwell;
    (* Jump proportionally to the outgoing rates. *)
    let u = ref (Prng.float rng exit_rate) in
    let next = ref !state in
    List.iter
      (fun j ->
        if j <> !state && !next = !state then begin
          let r = Ctmc.rate c ~src:!state ~dst:j in
          if !u < r then next := j else u := !u -. r
        end)
      [ 0; 1; 2; 3 ];
    state := !next
  done;
  Array.iteri
    (fun i p ->
      let empirical = occupancy.(i) /. !total in
      Alcotest.(check bool)
        (Printf.sprintf "state %d: %.4f vs %.4f" i p empirical)
        true
        (Float.abs (p -. empirical) < 0.01))
    pi

(* Property: for random irreducible birth-death chains, the generic CTMC
   solver agrees with the closed form. *)
let qcheck_bd_oracle =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 7 in
      let* birth = array_size (return n) (float_range 0.1 5.) in
      let* death = array_size (return n) (float_range 0.1 5.) in
      return (birth, death))
  in
  QCheck.Test.make ~name:"ctmc solver matches birth-death closed form" ~count:200
    (QCheck.make gen)
    (fun (birth, death) ->
      let closed = bd_stationary ~birth ~death in
      let solved = Ctmc.stationary (bd_ctmc ~birth ~death) in
      Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-8) closed solved)

(* Property: on dense chains the stationary vector solves [pi Q = 0]
   and sums to 1 — checked through [Q^T pi = 0], independently of the
   solver's own normalisation-row substitution. *)
let qcheck_stationary_solves_generator =
  let gen =
    QCheck.Gen.(
      let* n = int_range 2 6 in
      let* rates = array_size (return (n * n)) (float_range 0.05 3.) in
      return (n, rates))
  in
  QCheck.Test.make ~name:"stationary solves πQ = 0" ~count:100
    (QCheck.make gen)
    (fun (n, rates) ->
      let c = Ctmc.create n in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if i <> j then Ctmc.add_rate c ~src:i ~dst:j rates.((i * n) + j)
        done
      done;
      let pi = Ctmc.stationary c in
      Linsolve.residual (Matrix.transpose (Ctmc.generator c)) pi (Array.make n 0.) < 1e-9
      && Float.abs (Array.fold_left ( +. ) 0. pi -. 1.) <= 1e-12)

let () =
  Alcotest.run "markov"
    [
      ( "ctmc",
        [
          Alcotest.test_case "two-state stationary" `Quick test_two_state_stationary;
          Alcotest.test_case "rates accumulate" `Quick test_rates_accumulate;
          Alcotest.test_case "self rate rejected" `Quick test_self_rate_rejected;
          Alcotest.test_case "negative rate rejected" `Quick test_negative_rate_rejected;
          Alcotest.test_case "generator rows" `Quick test_generator_rows_sum_to_zero;
          Alcotest.test_case "reducible raises" `Quick test_reducible_raises;
          Alcotest.test_case "mean reward" `Quick test_mean_reward;
        ] );
      ( "gillespie",
        [
          Alcotest.test_case "SSA matches stationary" `Quick
            test_gillespie_matches_stationary;
        ] );
      ( "birth-death",
        [
          Alcotest.test_case "matches ctmc" `Quick test_birth_death_matches_ctmc;
          Alcotest.test_case "mm1k symmetric" `Quick test_mm1k_known;
          Alcotest.test_case "mm1k light load" `Quick test_mm1k_light_load;
          Alcotest.test_case "mean level" `Quick test_mean_level;
        ] );
      ( "erlang",
        [
          Alcotest.test_case "one server" `Quick test_erlang_one_server;
          Alcotest.test_case "known values" `Quick test_erlang_known;
          Alcotest.test_case "monotone" `Quick test_erlang_monotone;
          Alcotest.test_case "occupancy oracle" `Quick test_erlang_occupancy;
        ] );
      ( "dtmc",
        [
          Alcotest.test_case "validation" `Quick test_dtmc_validate_rejects;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ qcheck_bd_oracle; qcheck_stationary_solves_generator ] );
    ]
