type t = { rows : int; cols : int; data : float array }

let create rows cols =
  if rows < 0 || cols < 0 then invalid_arg "Matrix.create: negative dimension";
  { rows; cols; data = Array.make (rows * cols) 0. }

let rows m = m.rows
let cols m = m.cols

let idx m i j =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
    invalid_arg
      (Printf.sprintf "Matrix: index (%d, %d) out of %dx%d" i j m.rows m.cols);
  (i * m.cols) + j

let get m i j = m.data.(idx m i j)
let set m i j x = m.data.(idx m i j) <- x
let add_to m i j x = m.data.(idx m i j) <- m.data.(idx m i j) +. x

let identity n =
  let m = create n n in
  for i = 0 to n - 1 do
    set m i i 1.
  done;
  m

let of_arrays a =
  let rows = Array.length a in
  let cols = if rows = 0 then 0 else Array.length a.(0) in
  Array.iter
    (fun row ->
      if Array.length row <> cols then
        invalid_arg "Matrix.of_arrays: ragged rows")
    a;
  let m = create rows cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      set m i j a.(i).(j)
    done
  done;
  m

let to_arrays m =
  Array.init m.rows (fun i -> Array.init m.cols (fun j -> get m i j))

let copy m = { m with data = Array.copy m.data }

let transpose m =
  let r = create m.cols m.rows in
  for i = 0 to m.rows - 1 do
    for j = 0 to m.cols - 1 do
      set r j i (get m i j)
    done
  done;
  r

let mul_vec m v =
  if Array.length v <> m.cols then invalid_arg "Matrix.mul_vec: dimension mismatch";
  Array.init m.rows (fun i ->
      let acc = ref 0. in
      for j = 0 to m.cols - 1 do
        acc := !acc +. (get m i j *. v.(j))
      done;
      !acc)

let row_sums m =
  Array.init m.rows (fun i ->
      let acc = ref 0. in
      for j = 0 to m.cols - 1 do
        acc := !acc +. get m i j
      done;
      !acc)

let max_abs m = Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 0. m.data

let equal a b =
  a.rows = b.rows && a.cols = b.cols
  && Array.for_all2 (fun x y -> Float.abs (x -. y) <= 1e-12) a.data b.data
