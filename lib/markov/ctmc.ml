type t = { n : int; rates : float array (* row-major, diagonal unused *) }

let create n =
  if n <= 0 then invalid_arg "Ctmc.create: need at least one state";
  { n; rates = Array.make (n * n) 0. }

let check c s name =
  if s < 0 || s >= c.n then
    invalid_arg (Printf.sprintf "Ctmc.%s: state %d out of range [0, %d)" name s c.n)

let add_rate c ~src ~dst r =
  check c src "add_rate";
  check c dst "add_rate";
  if src = dst then invalid_arg "Ctmc.add_rate: src = dst";
  if r < 0. then invalid_arg "Ctmc.add_rate: negative rate";
  c.rates.((src * c.n) + dst) <- c.rates.((src * c.n) + dst) +. r

let rate c ~src ~dst =
  check c src "rate";
  check c dst "rate";
  if src = dst then 0. else c.rates.((src * c.n) + dst)

let exit_rate c s =
  let acc = ref 0. in
  for j = 0 to c.n - 1 do
    if j <> s then acc := !acc +. c.rates.((s * c.n) + j)
  done;
  !acc

let generator c =
  let q = Matrix.create c.n c.n in
  for i = 0 to c.n - 1 do
    for j = 0 to c.n - 1 do
      if i <> j then Matrix.set q i j c.rates.((i * c.n) + j)
    done;
    Matrix.set q i i (-.exit_rate c i)
  done;
  q

let stationary c =
  let obs = Obs.default () in
  if not (Obs.enabled obs) then Linsolve.solve_left_nullvector (generator c)
  else begin
    let t0 = Clock.now () in
    let pi = Linsolve.solve_left_nullvector (generator c) in
    let dt = Clock.elapsed_since t0 in
    Metrics.incr (Obs.counter obs "markov.stationary_solves");
    Metrics.observe (Obs.timer obs "markov.stationary_s") dt;
    Obs.event obs (Trace.Solve { what = "ctmc.stationary"; states = c.n; seconds = dt });
    pi
  end

let mean_reward c reward =
  let pi = stationary c in
  let acc = ref 0. in
  Array.iteri (fun i p -> acc := !acc +. (p *. reward i)) pi;
  !acc
