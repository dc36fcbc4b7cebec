let validate p =
  let n = Matrix.rows p in
  if Matrix.cols p <> n then invalid_arg "Dtmc.validate: matrix not square";
  for i = 0 to n - 1 do
    let row_sum = ref 0. in
    for j = 0 to n - 1 do
      let x = Matrix.get p i j in
      if x < 0. || x > 1. +. 1e-9 then
        invalid_arg (Printf.sprintf "Dtmc.validate: entry (%d, %d) = %g" i j x);
      row_sum := !row_sum +. x
    done;
    if Float.abs (!row_sum -. 1.) > 1e-9 then
      invalid_arg (Printf.sprintf "Dtmc.validate: row %d sums to %g" i !row_sum)
  done
