module Welford = struct
  type t = {
    mutable n : int;
    mutable mean : float;
    mutable m2 : float;
    mutable lo : float;
    mutable hi : float;
  }

  let create () = { n = 0; mean = 0.; m2 = 0.; lo = infinity; hi = neg_infinity }

  let add t x =
    t.n <- t.n + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.lo then t.lo <- x;
    if x > t.hi then t.hi <- x

  let count t = t.n
  let mean t = if t.n = 0 then 0. else t.mean
  let variance t = if t.n < 2 then 0. else t.m2 /. float_of_int (t.n - 1)
  let stddev t = sqrt (variance t)
  let min_value t = t.lo
  let max_value t = t.hi

  (* The normal quantile of a two-sided 95% interval. *)
  let z = 1.96

  let confidence_interval t =
    if t.n < 2 then (mean t, mean t)
    else begin
      let half = z *. stddev t /. sqrt (float_of_int t.n) in
      (t.mean -. half, t.mean +. half)
    end

  let merge a b =
    if a.n = 0 then { b with n = b.n }
    else if b.n = 0 then { a with n = a.n }
    else begin
      let n = a.n + b.n in
      let delta = b.mean -. a.mean in
      let nf = float_of_int n in
      let mean = a.mean +. (delta *. float_of_int b.n /. nf) in
      let m2 =
        a.m2 +. b.m2
        +. (delta *. delta *. float_of_int a.n *. float_of_int b.n /. nf)
      in
      { n; mean; m2; lo = Float.min a.lo b.lo; hi = Float.max a.hi b.hi }
    end
end
