(* Failure recovery timeline for a reliability-critical service — the
   remote-medical-service scenario of the paper's introduction, driven
   through the discrete-event engine.

   A hospital link (connection 0) and background traffic share the
   network.  We schedule link failures and repairs on the simulation
   clock and log, event by event, what happens to the hospital's
   connection: elastic retreats, backup activation, re-protection.

     dune exec examples/failure_recovery.exe *)

let printf = Printf.printf

let () =
  let graph = Waxman.generate (Prng.create 5) (Waxman.spec ~nodes:40 ~alpha:0.45 ~beta:0.3 ()) in
  let net = Net_state.create ~capacity:(Bandwidth.mbps 5) graph in
  let service = Drcomm.create net in
  let qos = Qos.paper_spec ~increment:50 in

  (* The critical connection. *)
  let hospital =
    match Drcomm.admit service ~src:0 ~dst:20 ~qos with
    | Drcomm.Admitted (id, _) -> id
    | Drcomm.Rejected _ -> failwith "hospital connection rejected"
  in
  (* Background load. *)
  let rng = Prng.create 11 in
  for _ = 1 to 250 do
    let src, dst = Prng.sample_distinct_pair rng (Graph.node_count graph) in
    ignore (Drcomm.admit ~want_indirect:false service ~src ~dst ~qos)
  done;
  printf "t=0.0  hospital connection %d up: %d-hop primary, %s, %d Kbps\n"
    (Drcomm.Channel_id.to_int hospital)
    (List.length (Drcomm.primary_links service hospital))
    (if Drcomm.has_backup service hospital then "protected by backup" else "UNPROTECTED")
    (Drcomm.reserved_bandwidth service hospital);

  let engine = Engine.create () in
  let status t =
    if Drcomm.mem service hospital then
      printf "t=%-4.1f hospital: %d Kbps over %d hops, %s\n" t
        (Drcomm.reserved_bandwidth service hospital)
        (List.length (Drcomm.primary_links service hospital))
        (if Drcomm.has_backup service hospital then "protected" else "unprotected")
    else printf "t=%-4.1f hospital: CONNECTION LOST\n" t
  in

  (* Fail the hospital's first primary link at t=10, repair it at t=40;
     fail another of its (new) primary links at t=60. *)
  let fail_first_primary_edge engine =
    let t = Engine.now engine in
    if Drcomm.mem service hospital then begin
      let e = Dirlink.edge (List.hd (Drcomm.primary_links service hospital)) in
      let a, b = Graph.endpoints graph e in
      printf "t=%-4.1f *** link %d-%d fails (persistent fault: cable cut) ***\n" t a b;
      let report = Drcomm.fail_edge service e in
      List.iter
        (fun r ->
          if Drcomm.Channel_id.equal r.Drcomm.victim hospital then
            match r.Drcomm.outcome with
            | `Switched_to_backup fresh ->
              printf "t=%-4.1f hospital switched to backup channel%s\n" t
                (if fresh then "; new backup established" else "; running unprotected")
            | `Dropped -> printf "t=%-4.1f hospital DROPPED\n" t
            | `Restored _ -> printf "t=%-4.1f hospital restored from scratch\n" t
            | `Backup_lost _ -> ()
          else
            match r.Drcomm.outcome with
            | `Dropped ->
              printf "t=%-4.1f background connection %d dropped\n" t
                (Drcomm.Channel_id.to_int r.Drcomm.victim)
            | _ -> ())
        report.Drcomm.recoveries;
      (* Remember which edge to repair later. *)
      Engine.schedule engine ~delay:30. (fun engine ->
          printf "t=%-4.1f *** link %d-%d repaired ***\n" (Engine.now engine) a b;
          Drcomm.repair_edge service e;
          status (Engine.now engine))
    end;
    status t
  in
  Engine.schedule engine ~delay:10. fail_first_primary_edge;
  Engine.schedule engine ~delay:60. fail_first_primary_edge;
  Engine.schedule engine ~delay:25. (fun e -> status (Engine.now e));
  Engine.schedule engine ~delay:80. (fun e -> status (Engine.now e));
  ignore (Engine.run engine);

  printf "\nfinal state: %d connections, %d dropped during the incident window\n"
    (Drcomm.count service)
    (Drcomm.dropped_connections service);
  Drcomm.check_invariants service
