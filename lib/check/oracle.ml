let failf fmt = Printf.ksprintf failwith fmt

(* ------------------------------------------------------------------ *)
(* γ = 0: Markov chain vs ideal formula                                *)

let gamma0_average ~qos ~lambda =
  let n = Qos.levels qos in
  (* Row-stochastic matrices; with p_f = 0 only the upward (B, T)
     superdiagonals matter. *)
  let stoch_up () =
    let m = Matrix.create n n in
    for i = 0 to n - 2 do
      Matrix.set m i (i + 1) 1.0
    done;
    Matrix.set m (n - 1) (n - 1) 1.0;
    m
  in
  let p =
    {
      Model.lambda;
      mu = lambda;
      gamma = 0.0;
      p_f = 0.0;
      p_s = 0.5;
      a = Matrix.identity n;
      b = stoch_up ();
      t_mat = stoch_up ();
    }
  in
  Model.average_bandwidth_regularized p ~qos

let check_gamma0_agreement qos =
  let bmax = float_of_int qos.Qos.b_max in
  let markov = gamma0_average ~qos ~lambda:1.0 in
  if abs_float (markov -. bmax) > 1e-6 *. bmax then
    failf "gamma=0 chain average %.6f, but without failures every channel must \
           ride at b_max = %.0f"
      markov bmax;
  let ideal =
    Ideal.bandwidth_capped ~qos ~link_bandwidth:1_000_000 ~links:1000 ~channels:1
      ~avg_hops:1.0
  in
  if not (Linsolve.approx_eq ideal bmax) then
    failf "uncontended ideal reference %.6f does not saturate at b_max = %.0f"
      ideal bmax

(* ------------------------------------------------------------------ *)
(* No sharing => ceiling                                               *)

let check_unshared_at_ceiling t =
  if Drcomm.auto_redistribute t then
    let net = Drcomm.net t in
    List.iter
      (fun id ->
        let qos = Drcomm.qos_of t id in
        if Qos.is_elastic qos then
          let alone =
            List.for_all
              (fun dl ->
                let l = Net_state.link net dl in
                Link_state.primary_count l = 1
                && Link_state.capacity l >= qos.Qos.b_max)
              (Drcomm.primary_links t id)
          in
          if alone && Drcomm.level t id < Qos.levels qos - 1 then
            failf "channel %d shares no link and its path has room, yet it sits \
                   at level %d of %d"
              (Drcomm.Channel_id.to_int id)
              (Drcomm.level t id)
              (Qos.levels qos - 1))
      (List.sort Drcomm.Channel_id.compare (Drcomm.active_channels t))

(* ------------------------------------------------------------------ *)
(* fail -> repair -> redistribute round-trip                           *)

type snapshot = {
  channels : (Drcomm.channel_id * int * int) list;
  total : int;
  link_totals : (int * int) array;
}

let snapshot t =
  let net = Drcomm.net t in
  {
    channels =
      List.map
        (fun id -> (id, Drcomm.level t id, Drcomm.reserved_bandwidth t id))
        (List.sort Drcomm.Channel_id.compare (Drcomm.active_channels t));
    total = Drcomm.total_reserved t;
    link_totals =
      Array.init (Net_state.link_count net) (fun dl ->
          let l = Net_state.link net dl in
          (Link_state.primary_total l, Link_state.primary_min_total l));
  }

let check_fail_repair_roundtrip t ~edge =
  let net = Drcomm.net t in
  if Net_state.edge_failed net edge then
    invalid_arg "Oracle.check_fail_repair_roundtrip: edge already failed";
  let crosses id =
    List.exists (fun dl -> Dirlink.edge dl = edge) (Drcomm.primary_links t id)
  in
  if List.exists crosses (Drcomm.active_channels t) then
    invalid_arg "Oracle.check_fail_repair_roundtrip: a primary crosses the edge";
  (* Pin both sides of the comparison to the water-filling fixed point. *)
  Drcomm.redistribute_all t;
  let before = snapshot t in
  let r = Drcomm.fail_edge t edge in
  List.iter
    (fun { Drcomm.victim; outcome } ->
      match outcome with
      | `Backup_lost _ -> ()
      | _ ->
        failf "edge %d carries no primary, yet channel %d reports a primary-path \
               recovery"
          edge
          (Drcomm.Channel_id.to_int victim))
    r.Drcomm.recoveries;
  if Drcomm.total_reserved t <> before.total then
    failf "backup-only failure of edge %d moved total reserved bandwidth %d -> %d"
      edge before.total (Drcomm.total_reserved t);
  Drcomm.repair_edge t edge;
  Drcomm.redistribute_all t;
  let after = snapshot t in
  if after.channels <> before.channels then
    failf "fail/repair round-trip on edge %d did not restore per-channel levels"
      edge;
  if after.total <> before.total then
    failf "fail/repair round-trip on edge %d moved total reserved bandwidth %d -> %d"
      edge before.total after.total;
  if after.link_totals <> before.link_totals then
    failf "fail/repair round-trip on edge %d left different per-link totals" edge
