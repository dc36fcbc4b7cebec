type params = {
  lambda : float;
  mu : float;
  gamma : float;
  p_f : float;
  p_s : float;
  a : Matrix.t;
  b : Matrix.t;
  t_mat : Matrix.t;
}

let params_of_estimator ~lambda ~mu ~gamma est =
  {
    lambda;
    mu;
    gamma;
    p_f = Estimator.p_f est;
    p_s = Estimator.p_s est;
    a = Estimator.a_matrix est;
    b = Estimator.b_matrix est;
    t_mat = Estimator.t_matrix est;
  }

let levels p = Matrix.rows p.a

(* The paper's qualitative transition structure without an estimator: a
   directly-chained arrival retreats the channel to its floor (every A
   row points at column 0), while an indirectly-chained arrival or a
   sharing termination climbs exactly one level (B and T superdiagonal,
   identity at the top).  Shared by the [chain] CLI command and the
   trace-vs-model audit in [lib/analysis]. *)
let synthetic ~lambda ~mu ~gamma ~p_f ~p_s ~levels:n =
  if n < 1 then invalid_arg "Model.synthetic: need at least one level";
  let a = Matrix.create n n in
  let b = Matrix.create n n in
  let t_mat = Matrix.create n n in
  for i = 0 to n - 1 do
    Matrix.set a i 0 1.;
    if i < n - 1 then begin
      Matrix.set b i (i + 1) 1.;
      Matrix.set t_mat i (i + 1) 1.
    end
    else begin
      Matrix.set b i i 1.;
      Matrix.set t_mat i i 1.
    end
  done;
  { lambda; mu; gamma; p_f; p_s; a; b; t_mat }

let validate p =
  let n = levels p in
  if n < 1 then invalid_arg "Model.validate: empty matrix";
  let check_rate name r =
    if r < 0. || not (Float.is_finite r) then
      invalid_arg (Printf.sprintf "Model.validate: bad %s rate %g" name r)
  in
  check_rate "lambda" p.lambda;
  check_rate "mu" p.mu;
  check_rate "gamma" p.gamma;
  let check_prob name x =
    if x < 0. || x > 1. then
      invalid_arg (Printf.sprintf "Model.validate: %s = %g outside [0, 1]" name x)
  in
  check_prob "p_f" p.p_f;
  check_prob "p_s" p.p_s;
  if p.p_f +. p.p_s > 1. +. 1e-9 then
    invalid_arg "Model.validate: p_f + p_s exceeds 1";
  let check_matrix name m =
    if Matrix.rows m <> n || Matrix.cols m <> n then
      invalid_arg (Printf.sprintf "Model.validate: %s has wrong dimensions" name);
    Dtmc.validate m
  in
  check_matrix "A" p.a;
  check_matrix "B" p.b;
  check_matrix "T" p.t_mat

let build p =
  validate p;
  let n = levels p in
  let c = Ctmc.create n in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i > j then begin
        (* Downward: sharing arrival, or backup activation on failure. *)
        let r = p.p_f *. Matrix.get p.a i j *. (p.lambda +. p.gamma) in
        if r > 0. then Ctmc.add_rate c ~src:i ~dst:j r
      end
      else if i < j then begin
        (* Upward: indirectly-chained arrival, or sharing termination. *)
        let r =
          (p.p_s *. Matrix.get p.b i j *. p.lambda)
          +. (p.p_f *. Matrix.get p.t_mat i j *. p.mu)
        in
        if r > 0. then Ctmc.add_rate c ~src:i ~dst:j r
      end
    done
  done;
  c

(* The vanishing rates [build_regularized] adds between adjacent levels. *)
let eps_up = 1e-9
let eps_down = 1e-12

let build_regularized p =
  let c = build p in
  let n = levels p in
  for i = 0 to n - 2 do
    Ctmc.add_rate c ~src:i ~dst:(i + 1) eps_up;
    Ctmc.add_rate c ~src:(i + 1) ~dst:i eps_down
  done;
  c

let bandwidth_reward qos i = float_of_int (Qos.bandwidth_of_level qos i)

let average_bandwidth_regularized ?obs p ~qos =
  if Qos.levels qos <> levels p then
    invalid_arg "Model.average_bandwidth_regularized: QoS levels mismatch";
  Ctmc.mean_reward ?obs (build_regularized p) (bandwidth_reward qos)

let stationary p = Ctmc.stationary (build p)

let average_bandwidth p ~qos =
  if Qos.levels qos <> levels p then
    invalid_arg "Model.average_bandwidth: QoS levels do not match the chain";
  Ctmc.mean_reward (build p) (bandwidth_reward qos)

type knob = [ `Lambda | `Mu | `Gamma | `P_f | `P_s ]

let with_knob p knob value =
  match knob with
  | `Lambda -> { p with lambda = value }
  | `Mu -> { p with mu = value }
  | `Gamma -> { p with gamma = value }
  | `P_f -> { p with p_f = Float.max 0. (Float.min 1. value) }
  | `P_s -> { p with p_s = Float.max 0. (Float.min 1. value) }

let knob_value p = function
  | `Lambda -> p.lambda
  | `Mu -> p.mu
  | `Gamma -> p.gamma
  | `P_f -> p.p_f
  | `P_s -> p.p_s

let sensitivity ?obs p ~qos knob =
  let x = knob_value p knob in
  (* Relative central difference; absolute floor keeps zero-valued knobs
     (e.g. gamma = 0) differentiable one-sidedly within the clamp. *)
  let h = Float.max (Float.abs x *. 1e-4) 1e-9 in
  let lo = Float.max 0. (x -. h) and hi = x +. h in
  let f v = average_bandwidth_regularized ?obs (with_knob p knob v) ~qos in
  (f hi -. f lo) /. (hi -. lo)
