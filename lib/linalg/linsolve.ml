exception Singular

let pivot_eps = 1e-13

let approx_eq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

(* In-place elimination on a working copy; returns the solution. *)
let gaussian a b =
  let n = Matrix.rows a in
  if Matrix.cols a <> n then invalid_arg "Linsolve.gaussian: matrix not square";
  if Array.length b <> n then invalid_arg "Linsolve.gaussian: size mismatch";
  let m = Matrix.copy a in
  let x = Array.copy b in
  for col = 0 to n - 1 do
    (* Partial pivoting: bring the largest remaining entry into the pivot. *)
    let best = ref col in
    for r = col + 1 to n - 1 do
      if Float.abs (Matrix.get m r col) > Float.abs (Matrix.get m !best col)
      then best := r
    done;
    if Float.abs (Matrix.get m !best col) < pivot_eps then raise Singular;
    if !best <> col then begin
      for j = 0 to n - 1 do
        let tmp = Matrix.get m col j in
        Matrix.set m col j (Matrix.get m !best j);
        Matrix.set m !best j tmp
      done;
      let tmp = x.(col) in
      x.(col) <- x.(!best);
      x.(!best) <- tmp
    end;
    let pivot = Matrix.get m col col in
    for r = col + 1 to n - 1 do
      let factor = Matrix.get m r col /. pivot in
      if not (Float.equal factor 0.) then begin
        Matrix.set m r col 0.;
        for j = col + 1 to n - 1 do
          Matrix.add_to m r j (-.factor *. Matrix.get m col j)
        done;
        x.(r) <- x.(r) -. (factor *. x.(col))
      end
    done
  done;
  (* Back substitution. *)
  for i = n - 1 downto 0 do
    let acc = ref x.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (Matrix.get m i j *. x.(j))
    done;
    x.(i) <- !acc /. Matrix.get m i i
  done;
  x

let residual a x b =
  let ax = Matrix.mul_vec a x in
  let worst = ref 0. in
  Array.iteri (fun i v -> worst := Float.max !worst (Float.abs (v -. b.(i)))) ax;
  !worst

let solve_left_nullvector ?(obs = Obs.null) q =
  let n = Matrix.rows q in
  if Matrix.cols q <> n then
    invalid_arg "Linsolve.solve_left_nullvector: matrix not square";
  if n = 0 then invalid_arg "Linsolve.solve_left_nullvector: empty matrix";
  (* pi q = 0  <=>  q^T pi^T = 0.  Replace the last equation with
     sum_i pi_i = 1 to pin the scale. *)
  let a = Matrix.transpose q in
  for j = 0 to n - 1 do
    Matrix.set a (n - 1) j 1.
  done;
  let b = Array.make n 0. in
  b.(n - 1) <- 1.;
  let pi = gaussian a b in
  (* A-posteriori accuracy of the raw solve (one extra mat-vec, only
     when observed): worst constraint violation of [a pi = b]; disabled
     context: one branch per solve. *)
  let metrics = Obs.metrics obs in
  if Metrics.enabled metrics then
    Metrics.set (Metrics.gauge metrics "linalg.nullvector_residual") (residual a pi b);
  (* Tiny negative entries from rounding are clamped, then renormalised. *)
  let pi = Array.map (fun x -> if x < 0. && x > -1e-9 then 0. else x) pi in
  Array.iter (fun x -> if x < 0. then raise Singular) pi;
  let total = Array.fold_left ( +. ) 0. pi in
  if total <= 0. then raise Singular;
  Array.map (fun x -> x /. total) pi
