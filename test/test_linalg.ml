(* Tests for dense matrices and the direct solver. *)

let matf = Alcotest.float 1e-9

let test_create_zero () =
  let m = Matrix.create 3 4 in
  Alcotest.(check int) "rows" 3 (Matrix.rows m);
  Alcotest.(check int) "cols" 4 (Matrix.cols m);
  for i = 0 to 2 do
    for j = 0 to 3 do
      Alcotest.check matf "zero" 0. (Matrix.get m i j)
    done
  done

let test_set_get () =
  let m = Matrix.create 2 2 in
  Matrix.set m 0 1 3.5;
  Matrix.add_to m 0 1 1.5;
  Alcotest.check matf "set+add" 5. (Matrix.get m 0 1);
  Alcotest.check matf "untouched" 0. (Matrix.get m 1 0)

let test_out_of_range () =
  let m = Matrix.create 2 2 in
  Alcotest.check_raises "get out of range"
    (Invalid_argument "Matrix: index (2, 0) out of 2x2") (fun () ->
      ignore (Matrix.get m 2 0))

let test_identity () =
  let m = Matrix.identity 3 in
  for i = 0 to 2 do
    for j = 0 to 2 do
      Alcotest.check matf "delta" (if i = j then 1. else 0.) (Matrix.get m i j)
    done
  done

let test_of_arrays_ragged () =
  Alcotest.check_raises "ragged" (Invalid_argument "Matrix.of_arrays: ragged rows")
    (fun () -> ignore (Matrix.of_arrays [| [| 1. |]; [| 1.; 2. |] |]))

let test_roundtrip () =
  let a = [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  Alcotest.(check (array (array (float 0.)))) "roundtrip" a
    (Matrix.to_arrays (Matrix.of_arrays a))

let test_transpose () =
  let m = Matrix.of_arrays [| [| 1.; 2.; 3. |]; [| 4.; 5.; 6. |] |] in
  let mt = Matrix.transpose m in
  Alcotest.(check int) "rows" 3 (Matrix.rows mt);
  Alcotest.check matf "(0,1)" 4. (Matrix.get mt 0 1);
  Alcotest.(check bool) "involution" true (Matrix.equal m (Matrix.transpose mt))

let test_mul_vec () =
  let a = Matrix.of_arrays [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  Alcotest.(check (array matf)) "m v" [| 5.; 11. |] (Matrix.mul_vec a [| 1.; 2. |]);
  (* The row-vector product v m is m^T v, the form the pi Q = 0 check uses. *)
  Alcotest.(check (array matf)) "v m = m^T v" [| 7.; 10. |]
    (Matrix.mul_vec (Matrix.transpose a) [| 1.; 2. |])

let test_row_sums () =
  let a = Matrix.of_arrays [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  Alcotest.(check (array matf)) "row sums" [| 3.; 7. |] (Matrix.row_sums a)

let test_max_abs () =
  let a = Matrix.of_arrays [| [| 1.; -9. |]; [| 3.; 4. |] |] in
  Alcotest.check matf "max abs" 9. (Matrix.max_abs a)

(* --- Linsolve --- *)

let test_gaussian_2x2 () =
  let a = Matrix.of_arrays [| [| 2.; 1. |]; [| 1.; 3. |] |] in
  let x = Linsolve.gaussian a [| 3.; 5. |] in
  Alcotest.check (Alcotest.float 1e-12) "x0" 0.8 x.(0);
  Alcotest.check (Alcotest.float 1e-12) "x1" 1.4 x.(1)

let test_gaussian_needs_pivoting () =
  (* Leading zero forces a row swap. *)
  let a = Matrix.of_arrays [| [| 0.; 1. |]; [| 1.; 0. |] |] in
  let x = Linsolve.gaussian a [| 2.; 3. |] in
  Alcotest.(check (array matf)) "swap solved" [| 3.; 2. |] x

let test_gaussian_singular () =
  let a = Matrix.of_arrays [| [| 1.; 2. |]; [| 2.; 4. |] |] in
  Alcotest.check_raises "singular" Linsolve.Singular (fun () ->
      ignore (Linsolve.gaussian a [| 1.; 2. |]))

let test_gaussian_does_not_mutate () =
  let a = Matrix.of_arrays [| [| 2.; 1. |]; [| 1.; 3. |] |] in
  let b = [| 3.; 5. |] in
  ignore (Linsolve.gaussian a b);
  Alcotest.check matf "a intact" 2. (Matrix.get a 0 0);
  Alcotest.check matf "b intact" 3. b.(0)

let test_nullvector_two_state () =
  (* Generator of a 2-state chain with rates 1 (0->1) and 3 (1->0):
     pi = (3/4, 1/4). *)
  let q = Matrix.of_arrays [| [| -1.; 1. |]; [| 3.; -3. |] |] in
  let pi = Linsolve.solve_left_nullvector q in
  Alcotest.check (Alcotest.float 1e-12) "pi0" 0.75 pi.(0);
  Alcotest.check (Alcotest.float 1e-12) "pi1" 0.25 pi.(1)

let test_nullvector_sums_to_one () =
  let q =
    Matrix.of_arrays
      [| [| -2.; 1.; 1. |]; [| 1.; -1.; 0. |]; [| 0.5; 0.5; -1. |] |]
  in
  let pi = Linsolve.solve_left_nullvector q in
  Alcotest.check (Alcotest.float 1e-12) "normalised" 1. (Array.fold_left ( +. ) 0. pi);
  Array.iter (fun p -> Alcotest.(check bool) "non-negative" true (p >= 0.)) pi

let test_nullvector_reducible () =
  (* Two absorbing states: no unique stationary vector. *)
  let q = Matrix.of_arrays [| [| 0.; 0. |]; [| 0.; 0. |] |] in
  Alcotest.check_raises "reducible" Linsolve.Singular (fun () ->
      ignore (Linsolve.solve_left_nullvector q))

let test_nullvector_two_component_generator () =
  (* A generator whose chain splits into two irreducible components
     ({0,1} and {2,3}): every convex mix of the component stationaries
     solves pi Q = 0, so there is no unique answer and the solver must
     refuse rather than silently pick one.  (Regression: a reducible
     generator built from a disconnected topology reached the solver
     through the model pipeline.) *)
  let q =
    Matrix.of_arrays
      [|
        [| -1.; 1.; 0.; 0. |];
        [| 1.; -1.; 0.; 0. |];
        [| 0.; 0.; -2.; 2. |];
        [| 0.; 0.; 2.; -2. |];
      |]
  in
  Alcotest.check_raises "two components" Linsolve.Singular (fun () ->
      ignore (Linsolve.solve_left_nullvector q))

let test_residual () =
  let a = Matrix.of_arrays [| [| 2.; 1. |]; [| 1.; 3. |] |] in
  let b = [| 3.; 5. |] in
  let x = Linsolve.gaussian a b in
  Alcotest.(check bool) "small residual" true (Linsolve.residual a x b < 1e-12);
  Alcotest.(check bool) "wrong solution has residual" true
    (Linsolve.residual a [| 1.; 1. |] b > 0.1)

(* Random diagonally-dominant systems are well-conditioned: the solver
   must return small residuals on all of them. *)
let qcheck_solve_diag_dominant =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 8 in
      let* entries = array_size (return (n * n)) (float_range (-1.) 1.) in
      let* b = array_size (return n) (float_range (-10.) 10.) in
      return (n, entries, b))
  in
  QCheck.Test.make ~name:"gaussian solves diagonally-dominant systems" ~count:200
    (QCheck.make gen)
    (fun (n, entries, b) ->
      let a = Matrix.create n n in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          Matrix.set a i j entries.((i * n) + j)
        done;
        Matrix.set a i i (float_of_int n +. 1.)
      done;
      let x = Linsolve.gaussian a b in
      Linsolve.residual a x b < 1e-8)

let qcheck_transpose_involution =
  let gen =
    QCheck.Gen.(
      let* r = int_range 1 6 in
      let* c = int_range 1 6 in
      let* entries = array_size (return (r * c)) (float_range (-5.) 5.) in
      return (r, c, entries))
  in
  QCheck.Test.make ~name:"transpose involution" ~count:200 (QCheck.make gen)
    (fun (r, c, entries) ->
      let m = Matrix.create r c in
      for i = 0 to r - 1 do
        for j = 0 to c - 1 do
          Matrix.set m i j entries.((i * c) + j)
        done
      done;
      Matrix.equal m (Matrix.transpose (Matrix.transpose m)))

let () =
  Alcotest.run "linalg"
    [
      ( "matrix",
        [
          Alcotest.test_case "create zero" `Quick test_create_zero;
          Alcotest.test_case "set/get/add_to" `Quick test_set_get;
          Alcotest.test_case "bounds" `Quick test_out_of_range;
          Alcotest.test_case "identity" `Quick test_identity;
          Alcotest.test_case "ragged rejected" `Quick test_of_arrays_ragged;
          Alcotest.test_case "arrays roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "transpose" `Quick test_transpose;
          Alcotest.test_case "mul_vec / vec_mul" `Quick test_mul_vec;
          Alcotest.test_case "row sums" `Quick test_row_sums;
          Alcotest.test_case "max abs" `Quick test_max_abs;
        ] );
      ( "linsolve",
        [
          Alcotest.test_case "2x2" `Quick test_gaussian_2x2;
          Alcotest.test_case "pivoting" `Quick test_gaussian_needs_pivoting;
          Alcotest.test_case "singular" `Quick test_gaussian_singular;
          Alcotest.test_case "inputs not mutated" `Quick test_gaussian_does_not_mutate;
          Alcotest.test_case "two-state stationary" `Quick test_nullvector_two_state;
          Alcotest.test_case "stationary normalised" `Quick test_nullvector_sums_to_one;
          Alcotest.test_case "reducible chain" `Quick test_nullvector_reducible;
          Alcotest.test_case "two-component generator" `Quick
            test_nullvector_two_component_generator;
          Alcotest.test_case "residual" `Quick test_residual;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ qcheck_solve_diag_dominant; qcheck_transpose_involution ] );
    ]
