type counts = { levels : int; table : int array (* levels x levels *) }

let counts_create levels = { levels; table = Array.make (levels * levels) 0 }

let counts_add c ~before ~after =
  if before < 0 || before >= c.levels || after < 0 || after >= c.levels then
    invalid_arg "Estimator: level out of range";
  let k = (before * c.levels) + after in
  c.table.(k) <- c.table.(k) + 1

let counts_row_total c i =
  let acc = ref 0 in
  for j = 0 to c.levels - 1 do
    acc := !acc + c.table.((i * c.levels) + j)
  done;
  !acc

(* Row-stochastic matrix; unobserved rows become identity rows (a channel
   we never saw affected at level i is modelled as staying at i). *)
let counts_matrix c =
  let m = Matrix.create c.levels c.levels in
  for i = 0 to c.levels - 1 do
    let total = counts_row_total c i in
    if total = 0 then Matrix.set m i i 1.
    else
      for j = 0 to c.levels - 1 do
        Matrix.set m i j
          (float_of_int c.table.((i * c.levels) + j) /. float_of_int total)
      done
  done;
  m

type t = {
  levels : int;
  a : counts;
  b : counts;
  t_counts : counts;
  f : counts;
  mutable arrivals : int;
  mutable terminations : int;
  mutable failures : int;
  mutable sum_existing_arr : int;
  mutable sum_direct_arr : int;
  mutable sum_indirect_arr : int;
  mutable sum_existing_term : int;
  mutable sum_direct_term : int;
  mutable adaptations : int;
}

let create ~levels =
  if levels < 1 then invalid_arg "Estimator.create: levels >= 1";
  {
    levels;
    a = counts_create levels;
    b = counts_create levels;
    t_counts = counts_create levels;
    f = counts_create levels;
    arrivals = 0;
    terminations = 0;
    failures = 0;
    sum_existing_arr = 0;
    sum_direct_arr = 0;
    sum_indirect_arr = 0;
    sum_existing_term = 0;
    sum_direct_term = 0;
    adaptations = 0;
  }

let record_transitions counts ~select (report : Drcomm.report) =
  List.iter
    (fun (tr : Drcomm.transition) ->
      if select tr.Drcomm.chained then
        counts_add counts ~before:tr.Drcomm.before ~after:tr.Drcomm.after)
    report.Drcomm.transitions

let record_adaptations t (report : Drcomm.report) =
  List.iter
    (fun (tr : Drcomm.transition) ->
      if tr.Drcomm.before <> tr.Drcomm.after then t.adaptations <- t.adaptations + 1)
    report.Drcomm.transitions

let observe_arrival t (report : Drcomm.report) =
  t.arrivals <- t.arrivals + 1;
  record_adaptations t report;
  t.sum_existing_arr <- t.sum_existing_arr + report.Drcomm.existing;
  t.sum_direct_arr <- t.sum_direct_arr + report.Drcomm.direct_count;
  t.sum_indirect_arr <- t.sum_indirect_arr + report.Drcomm.indirect_count;
  record_transitions t.a ~select:(fun c -> c = `Direct) report;
  record_transitions t.b ~select:(fun c -> c = `Indirect) report

let observe_termination t (report : Drcomm.report) =
  t.terminations <- t.terminations + 1;
  record_adaptations t report;
  t.sum_existing_term <- t.sum_existing_term + report.Drcomm.existing;
  t.sum_direct_term <- t.sum_direct_term + report.Drcomm.direct_count;
  record_transitions t.t_counts ~select:(fun c -> c = `Direct) report

let observe_failure t (report : Drcomm.report) =
  t.failures <- t.failures + 1;
  record_adaptations t report;
  record_transitions t.f ~select:(fun c -> c = `Direct) report

let adaptations t = t.adaptations

let adaptation_rate t =
  let events = t.arrivals + t.terminations + t.failures in
  if events = 0 then 0. else float_of_int t.adaptations /. float_of_int events

let arrivals t = t.arrivals
let failures t = t.failures

let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den

let p_f t = ratio t.sum_direct_arr t.sum_existing_arr
let p_s t = ratio t.sum_indirect_arr t.sum_existing_arr
let p_f_termination t = ratio t.sum_direct_term t.sum_existing_term

let a_matrix t = counts_matrix t.a
let b_matrix t = counts_matrix t.b
let t_matrix t = counts_matrix t.t_counts
let f_matrix t = counts_matrix t.f

let a_row_count t i =
  if i < 0 || i >= t.levels then invalid_arg "Estimator.a_row_count: out of range";
  counts_row_total t.a i

let to_json t =
  Jsonx.Obj
    [
      ("arrivals", Jsonx.Int t.arrivals);
      ("terminations", Jsonx.Int t.terminations);
      ("failures", Jsonx.Int t.failures);
      ("adaptations", Jsonx.Int t.adaptations);
      ("adaptation_rate", Jsonx.Float (adaptation_rate t));
      ("p_f", Jsonx.Float (p_f t));
      ("p_s", Jsonx.Float (p_s t));
      ("p_f_termination", Jsonx.Float (p_f_termination t));
    ]

let pp_summary ppf t =
  Format.fprintf ppf
    "@[<v>estimator: %d arrivals, %d terminations, %d failures@,\
     P_f = %.4f (terminations: %.4f), P_s = %.4f@]"
    t.arrivals t.terminations t.failures (p_f t) (p_f_termination t) (p_s t)
