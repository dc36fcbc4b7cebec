type t = { mutable data : float array; mutable n : int }

let create () = { data = Array.make 256 0.; n = 0 }

let add t x =
  if t.n = Array.length t.data then begin
    let bigger = Array.make (2 * t.n) 0. in
    Array.blit t.data 0 bigger 0 t.n;
    t.data <- bigger
  end;
  t.data.(t.n) <- x;
  t.n <- t.n + 1

let add_failed t = add t infinity
let count t = t.n

let failed t =
  let k = ref 0 in
  for i = 0 to t.n - 1 do
    if t.data.(i) = infinity then incr k
  done;
  !k

let sum t =
  let s = ref 0. in
  for i = 0 to t.n - 1 do
    s := !s +. t.data.(i)
  done;
  !s

let mean t = if t.n = 0 then 0. else sum t /. float_of_int t.n

let to_array t = Array.sub t.data 0 t.n

let sorted t =
  let a = to_array t in
  Array.sort Float.compare a;
  a

(* Nearest rank: the smallest sample with at least [q] of the sample at
   or below it.  The epsilon keeps products such as 0.07 *. 100. =
   7.000000000000001 from rounding up to the next rank. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then invalid_arg "Samples.quantile: no samples";
  if Float.is_nan q || q < 0. || q > 1. then
    invalid_arg "Samples.quantile: q outside [0, 1]";
  let rank = int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9)) in
  a.(max 0 (min (n - 1) (rank - 1)))

let quantile t q = quantile_sorted (sorted t) q
