(* The two phases of a real-time channel, end to end (§2.1.1): off-line
   establishment (admission, elastic reservation, backup) followed by
   run-time message scheduling (token-bucket sources, per-link EDF,
   end-to-end deadlines) — over the same network state.

   We establish a population of DR-connections, then stream packets over
   a few of them at exactly their reserved rates, plus one rogue flow
   that exceeds its reservation, and measure delays and misses.

     dune exec examples/packet_delay.exe *)

let printf = Printf.printf

let () =
  (* Phase 1: establishment. *)
  let graph = Waxman.generate (Prng.create 3) (Waxman.spec ~nodes:40 ~alpha:0.45 ~beta:0.3 ()) in
  let capacity = Bandwidth.mbps 2 in
  let net = Net_state.create ~capacity graph in
  let service = Drcomm.create net in
  let qos = Qos.paper_spec ~increment:50 in
  let rng = Prng.create 8 in
  let ids = ref [] in
  for _ = 1 to 300 do
    let src, dst = Prng.sample_distinct_pair rng (Graph.node_count graph) in
    match Drcomm.admit ~want_indirect:false service ~src ~dst ~qos with
    | Drcomm.Admitted (id, _) -> ids := id :: !ids
    | Drcomm.Rejected _ -> ()
  done;
  printf "established %d DR-connections (avg %.0f Kbps reserved)\n"
    (Drcomm.count service)
    (Drcomm.average_bandwidth service);

  (* Phase 2: run-time.  Stream packets over five connections at their
     reserved rates. *)
  let engine = Engine.create () in
  let sim = Netsim.create ~propagation_delay:0.0005 engine graph ~rate_of:(fun _ -> capacity) in
  let horizon = 5.0 in
  let chosen = List.filteri (fun i _ -> i < 5) !ids in
  let flows =
    List.map
      (fun id ->
        let reserved = Drcomm.reserved_bandwidth service id in
        let spec = Traffic_spec.make ~rate:reserved ~burst_bits:4000 ~packet_bits:2000 () in
        let fid =
          Netsim.add_flow sim
            ~path:(Drcomm.primary_links service id)
            ~spec ~deadline:0.1 ~stop:horizon
        in
        (id, reserved, fid))
      chosen
  in
  (* A rogue source pushing 4x its reservation down the same path as the
     first connection — once unpoliced, once policed at ingress to its
     contract rate. *)
  let rogue_victim, rogue_path, rogue_rate =
    match flows with
    | (id, reserved, _) :: _ -> (id, Drcomm.primary_links service id, reserved)
    | [] -> assert false
  in
  let rogue_unpoliced =
    Netsim.add_flow sim ~path:rogue_path
      ~spec:(Traffic_spec.make ~rate:(4 * rogue_rate) ~burst_bits:16000 ~packet_bits:2000 ())
      ~deadline:0.02 ~stop:horizon
  in
  ignore (Engine.run ~until:(horizon +. 2.) engine);

  let show label fid extra =
    let st = Netsim.stats sim fid in
    printf "%8s %9s %6d %6d %7d %9.2f ms %9.2f ms\n" label extra st.Netsim.sent
      st.Netsim.delivered st.Netsim.missed
      (1000. *. Stats.Welford.mean st.Netsim.delay)
      (1000. *. st.Netsim.worst_delay)
  in
  printf "\n--- with an UNPOLICED rogue (4x its reservation) ---\n";
  printf "%8s %9s %6s %6s %7s %12s %12s\n" "conn" "reserved" "sent" "deliv" "missed"
    "mean delay" "worst";
  List.iter
    (fun (id, reserved, fid) ->
      show
        (string_of_int (Drcomm.Channel_id.to_int id))
        fid
        (Printf.sprintf "%d K" reserved))
    flows;
  show "rogue" rogue_unpoliced "4x";
  printf
    "note how connection %d — sharing the rogue's links — misses alongside it:\n\
     reservations alone do not protect the data plane from a non-conforming\n\
     source; ingress policing does.\n"
    (Drcomm.Channel_id.to_int rogue_victim);

  (* Same experiment, rogue policed to its contracted rate. *)
  let engine2 = Engine.create () in
  let sim2 = Netsim.create ~propagation_delay:0.0005 engine2 graph ~rate_of:(fun _ -> capacity) in
  let flows2 =
    List.map
      (fun (id, reserved, _) ->
        let spec = Traffic_spec.make ~rate:reserved ~burst_bits:4000 ~packet_bits:2000 () in
        ( id,
          reserved,
          Netsim.add_flow sim2 ~path:(Drcomm.primary_links service id) ~spec
            ~deadline:0.1 ~stop:horizon ))
      flows
  in
  (* The policer caps the rogue at its reservation: the token bucket *is*
     the policing device (§2.1.1's traffic contract). *)
  let rogue_policed =
    Netsim.add_flow sim2 ~path:rogue_path
      ~spec:(Traffic_spec.make ~rate:rogue_rate ~burst_bits:4000 ~packet_bits:2000 ())
      ~deadline:0.02 ~stop:horizon
  in
  ignore (Engine.run ~until:(horizon +. 2.) engine2);
  printf "\n--- with the rogue POLICED to its contract ---\n";
  printf "%8s %9s %6s %6s %7s %12s %12s\n" "conn" "reserved" "sent" "deliv" "missed"
    "mean delay" "worst";
  List.iter
    (fun (id, reserved, fid) ->
      let st = Netsim.stats sim2 fid in
      printf "%8d %6d K %6d %6d %7d %9.2f ms %9.2f ms\n"
        (Drcomm.Channel_id.to_int id)
        reserved st.Netsim.sent
        st.Netsim.delivered st.Netsim.missed
        (1000. *. Stats.Welford.mean st.Netsim.delay)
        (1000. *. st.Netsim.worst_delay))
    flows2;
  let st = Netsim.stats sim2 rogue_policed in
  printf "%8s %9s %6d %6d %7d %9.2f ms %9.2f ms\n" "rogue" "policed" st.Netsim.sent
    st.Netsim.delivered st.Netsim.missed
    (1000. *. Stats.Welford.mean st.Netsim.delay)
    (1000. *. st.Netsim.worst_delay);
  printf
    "\npoliced to the contract, everyone — including the rogue's own packets —\n\
     meets deadline: the reservation + token-bucket pair is what makes the\n\
     off-line guarantees hold at run time.\n"
