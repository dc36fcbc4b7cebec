(* Exact nearest-rank quantiles over raw samples. *)

let of_list xs =
  let s = Samples.create () in
  List.iter (Samples.add s) xs;
  s

let q name xs p expected =
  Alcotest.(check (float 0.)) name expected (Samples.quantile (of_list xs) p)

let range a b = List.init (b - a + 1) (fun i -> float_of_int (a + i))

let test_ranks () =
  q "median of three" [ 3.; 1.; 2. ] 0.5 2.;
  q "median of four is the lower middle" [ 4.; 1.; 3.; 2. ] 0.5 2.;
  q "q = 0 is the minimum" [ 5.; 2.; 9. ] 0. 2.;
  q "q = 1 is the maximum" [ 5.; 2.; 9. ] 1. 9.;
  q "one sample" [ 7. ] 0.99 7.;
  q "p99 of 100" (range 1 100) 0.99 99.;
  q "p99 of 1000" (range 1 1000) 0.99 990.;
  q "p50 of 1000" (range 1 1000) 0.5 500.

(* 0.07 *. 100. is 7.000000000000001 in floating point; the rank must
   still be 7. *)
let test_rounding () =
  q "p7 of 100" (range 1 100) 0.07 7.;
  q "p29 of 100" (range 1 100) 0.29 29.;
  q "p57 of 100" (range 1 100) 0.57 57.

let test_failures () =
  let xs = [ 1.; 2.; 3. ] in
  let s = of_list xs in
  Samples.add_failed s;
  Alcotest.(check int) "count includes the failure" 4 (Samples.count s);
  Alcotest.(check int) "one failed" 1 (Samples.failed s);
  Alcotest.(check (float 0.)) "p50 unaffected" 2. (Samples.quantile s 0.5);
  Alcotest.(check bool) "p99 is infinite" true (Samples.quantile s 0.99 = infinity);
  Alcotest.(check bool) "sum is infinite" true (Samples.sum s = infinity)

let test_growth () =
  let s = Samples.create () in
  for i = 5000 downto 1 do
    Samples.add s (float_of_int i)
  done;
  Alcotest.(check int) "count" 5000 (Samples.count s);
  Alcotest.(check (float 0.)) "p99" 4950. (Samples.quantile s 0.99);
  Alcotest.(check (float 1e-9)) "mean" 2500.5 (Samples.mean s);
  Alcotest.(check (float 0.)) "sorted copy" 1. (Samples.sorted s).(0)

let test_errors () =
  Alcotest.check_raises "empty" (Invalid_argument "Samples.quantile: no samples")
    (fun () -> ignore (Samples.quantile (Samples.create ()) 0.5));
  Alcotest.check_raises "q > 1" (Invalid_argument "Samples.quantile: q outside [0, 1]")
    (fun () -> ignore (Samples.quantile (of_list [ 1. ]) 1.5));
  Alcotest.(check (float 0.)) "mean of nothing" 0. (Samples.mean (Samples.create ()))

let () =
  Alcotest.run "benchmark samples"
    [
      ( "quantile",
        [
          Alcotest.test_case "nearest rank" `Quick test_ranks;
          Alcotest.test_case "float rounding" `Quick test_rounding;
          Alcotest.test_case "failed ops are infinite" `Quick test_failures;
          Alcotest.test_case "growth" `Quick test_growth;
          Alcotest.test_case "errors" `Quick test_errors;
        ] );
    ]
