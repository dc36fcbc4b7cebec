(* Indexed channel sets: primaries and backups live in dense parallel
   arrays (swap-remove on release), with an int-keyed slot table per set
   for O(1) lookup.  Iteration is a flat array walk — no hashtable scans
   on the hot path — and the multiplexed backup pool is a cached maximum
   over the per-edge demand index, recomputed lazily only after an
   unregistration removed demand at the cached maximum. *)

(* The per-edge demand index, which every backup admission test reads
   once per primary edge: the stdlib table's buckets and resize policy,
   with an int hash and equality that make no C call. *)
module Edge_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash e = e land max_int
end)

type t = {
  capacity : Bandwidth.t;
  multiplexing : bool;
  (* Primary reservations, slot-indexed. *)
  mutable p_chan : int array;
  mutable p_res : int array;
  mutable p_floor : int array;
  mutable p_n : int;
  p_slot : (int, int) Hashtbl.t; (* channel -> slot *)
  mutable extras : int; (* slots with reserved > floor *)
  (* Backup registrations, slot-indexed. *)
  mutable b_chan : int array;
  mutable b_floor : int array;
  mutable b_edges : int array array; (* the caller's arrays, shared *)
  mutable b_n : int;
  b_slot : (int, int) Hashtbl.t;
  (* For multiplexing: activation demand per failed undirected edge. *)
  pool_by_edge : int Edge_tbl.t;
  mutable pool_max : int; (* cached max demand, valid unless pool_stale *)
  mutable pool_stale : bool;
  mutable primary_total : Bandwidth.t;
  mutable primary_min_total : Bandwidth.t;
  mutable backup_sum : Bandwidth.t; (* plain sum of registered b_mins *)
}

let create ?(multiplexing = true) ~capacity () =
  if capacity <= 0 then invalid_arg "Link_state.create: capacity must be positive";
  {
    capacity;
    multiplexing;
    p_chan = [||];
    p_res = [||];
    p_floor = [||];
    p_n = 0;
    p_slot = Hashtbl.create 16;
    extras = 0;
    b_chan = [||];
    b_floor = [||];
    b_edges = [||];
    b_n = 0;
    b_slot = Hashtbl.create 16;
    pool_by_edge = Edge_tbl.create 16;
    pool_max = 0;
    pool_stale = false;
    primary_total = 0;
    primary_min_total = 0;
    backup_sum = 0;
  }

let capacity t = t.capacity

let grow_int arr n = Array.init (max 8 (2 * n)) (fun i -> if i < n then arr.(i) else 0)

let backup_pool t =
  if not t.multiplexing then t.backup_sum
  else begin
    if t.pool_stale then begin
      t.pool_max <- Edge_tbl.fold (fun _ demand acc -> max demand acc) t.pool_by_edge 0;
      t.pool_stale <- false
    end;
    t.pool_max
  end

let backup_dedicated_demand t = t.backup_sum

let primary_total t = t.primary_total
let primary_min_total t = t.primary_min_total

let spare t = t.capacity - t.primary_total
let reclaimable_headroom t = t.capacity - t.primary_min_total - backup_pool t

let admissible_primary t ~b_min = b_min <= reclaimable_headroom t

let guarantee_holds t = t.primary_min_total + backup_pool t <= t.capacity

let reserve_primary ?(force = false) t ~channel ~b_min =
  if b_min <= 0 then invalid_arg "Link_state.reserve_primary: non-positive floor";
  if Hashtbl.mem t.p_slot channel then
    invalid_arg "Link_state.reserve_primary: channel already reserved here";
  let admissible =
    if force then t.primary_min_total + b_min <= t.capacity
    else admissible_primary t ~b_min
  in
  if not admissible then
    invalid_arg "Link_state.reserve_primary: floor does not fit";
  if t.primary_total + b_min > t.capacity then
    invalid_arg "Link_state.reserve_primary: reclaim extras first";
  if t.p_n = Array.length t.p_chan then begin
    t.p_chan <- grow_int t.p_chan t.p_n;
    t.p_res <- grow_int t.p_res t.p_n;
    t.p_floor <- grow_int t.p_floor t.p_n
  end;
  let slot = t.p_n in
  t.p_chan.(slot) <- channel;
  t.p_res.(slot) <- b_min;
  t.p_floor.(slot) <- b_min;
  t.p_n <- slot + 1;
  Hashtbl.replace t.p_slot channel slot;
  t.primary_total <- t.primary_total + b_min;
  t.primary_min_total <- t.primary_min_total + b_min

let set_primary t ~channel bw =
  match Hashtbl.find_opt t.p_slot channel with
  | None -> invalid_arg "Link_state.set_primary: unknown channel"
  | Some slot ->
    let floor = t.p_floor.(slot) in
    if bw < floor then invalid_arg "Link_state.set_primary: below floor";
    let old = t.p_res.(slot) in
    let new_total = t.primary_total - old + bw in
    if new_total > t.capacity then
      invalid_arg "Link_state.set_primary: would exceed link capacity";
    t.primary_total <- new_total;
    t.p_res.(slot) <- bw;
    if old > floor && bw = floor then t.extras <- t.extras - 1
    else if old = floor && bw > floor then t.extras <- t.extras + 1

let release_primary t ~channel =
  match Hashtbl.find_opt t.p_slot channel with
  | None -> raise Not_found
  | Some slot ->
    if t.p_res.(slot) > t.p_floor.(slot) then t.extras <- t.extras - 1;
    t.primary_total <- t.primary_total - t.p_res.(slot);
    t.primary_min_total <- t.primary_min_total - t.p_floor.(slot);
    Hashtbl.remove t.p_slot channel;
    let last = t.p_n - 1 in
    if slot < last then begin
      t.p_chan.(slot) <- t.p_chan.(last);
      t.p_res.(slot) <- t.p_res.(last);
      t.p_floor.(slot) <- t.p_floor.(last);
      Hashtbl.replace t.p_slot t.p_chan.(slot) slot
    end;
    t.p_n <- last

let primary_reservation t ~channel =
  Option.map (fun slot -> t.p_res.(slot)) (Hashtbl.find_opt t.p_slot channel)

let primary_channels t =
  let acc = ref [] in
  for slot = t.p_n - 1 downto 0 do
    acc := (t.p_chan.(slot), t.p_res.(slot)) :: !acc
  done;
  !acc

let iter_primary_channels f t =
  for slot = 0 to t.p_n - 1 do
    f t.p_chan.(slot) t.p_res.(slot)
  done

let primary_count t = t.p_n

let extras_count t = t.extras

let iter_extras f t =
  if t.extras > 0 then
    for slot = 0 to t.p_n - 1 do
      if t.p_res.(slot) > t.p_floor.(slot) then f t.p_chan.(slot) t.p_res.(slot)
    done

let backup_demand_for_edge t e =
  match Edge_tbl.find_opt t.pool_by_edge e with Some demand -> demand | None -> 0

let backup_pool_with t ~b_min ~primary_edges =
  if not t.multiplexing then t.backup_sum + b_min
  else begin
    (* New pool = max over edges of (existing demand + b_min if the new
       backup's primary uses that edge). *)
    let pool = ref (backup_pool t) in
    for i = 0 to Array.length primary_edges - 1 do
      let demand = backup_demand_for_edge t primary_edges.(i) + b_min in
      if demand > !pool then pool := demand
    done;
    !pool
  end

(* Every edge's demand is at most the pool, so adding [b_min] on some of
   them raises the pool by at most [b_min]: when that much fits, so does
   the exact answer.  Without multiplexing the first test is exact. *)
let backup_fits t ~b_min ~primary_edges =
  let room = t.capacity - t.primary_min_total in
  backup_pool t + b_min <= room
  || (t.multiplexing && backup_pool_with t ~b_min ~primary_edges <= room)

(* The same bound, for the headroom: it is at least [room - backup_pool
   - b_min], so once that reaches [at_most] the per-edge demands cannot
   change the answer. *)
let backup_headroom t ~b_min ~primary_edges ~at_most =
  let room = t.capacity - t.primary_min_total in
  if room - backup_pool t - b_min >= at_most then at_most
  else
    let headroom = room - backup_pool_with t ~b_min ~primary_edges in
    if headroom < 0 then -1 else Int.min at_most headroom

let register_backup t ~channel ~b_min ~primary_edges =
  if b_min <= 0 then invalid_arg "Link_state.register_backup: non-positive b_min";
  if Array.length primary_edges = 0 then
    invalid_arg "Link_state.register_backup: backup needs a non-empty primary path";
  if Hashtbl.mem t.b_slot channel then
    invalid_arg "Link_state.register_backup: channel already registered here";
  let pool' = backup_pool_with t ~b_min ~primary_edges in
  if t.primary_min_total + pool' > t.capacity then
    invalid_arg "Link_state.register_backup: pool does not fit";
  if t.b_n = Array.length t.b_chan then begin
    t.b_chan <- grow_int t.b_chan t.b_n;
    t.b_floor <- grow_int t.b_floor t.b_n;
    t.b_edges <-
      Array.init (max 8 (2 * t.b_n)) (fun i ->
          if i < t.b_n then t.b_edges.(i) else [||])
  end;
  let slot = t.b_n in
  t.b_chan.(slot) <- channel;
  t.b_floor.(slot) <- b_min;
  t.b_edges.(slot) <- primary_edges;
  t.b_n <- slot + 1;
  Hashtbl.replace t.b_slot channel slot;
  t.backup_sum <- t.backup_sum + b_min;
  for i = 0 to Array.length primary_edges - 1 do
    let e = primary_edges.(i) in
    let demand = backup_demand_for_edge t e + b_min in
    Edge_tbl.replace t.pool_by_edge e demand;
    (* A raise can only move the cached maximum up, stale or not. *)
    if demand > t.pool_max then t.pool_max <- demand
  done

let unregister_backup t ~channel =
  match Hashtbl.find_opt t.b_slot channel with
  | None -> raise Not_found
  | Some slot ->
    let b_min = t.b_floor.(slot) in
    let edges = t.b_edges.(slot) in
    Hashtbl.remove t.b_slot channel;
    let last = t.b_n - 1 in
    if slot < last then begin
      t.b_chan.(slot) <- t.b_chan.(last);
      t.b_floor.(slot) <- t.b_floor.(last);
      t.b_edges.(slot) <- t.b_edges.(last);
      Hashtbl.replace t.b_slot t.b_chan.(slot) slot
    end;
    t.b_edges.(last) <- [||];
    t.b_n <- last;
    t.backup_sum <- t.backup_sum - b_min;
    for i = 0 to Array.length edges - 1 do
      let e = edges.(i) in
      let demand = backup_demand_for_edge t e in
      assert (demand >= b_min);
      let remaining = demand - b_min in
      if remaining = 0 then Edge_tbl.remove t.pool_by_edge e
      else Edge_tbl.replace t.pool_by_edge e remaining;
      (* Shrinking demand at the cached maximum invalidates it; the
         next pool query recomputes. *)
      if (not t.pool_stale) && demand = t.pool_max then t.pool_stale <- true
    done

let has_backup t ~channel = Hashtbl.mem t.b_slot channel

let backup_channels t =
  let acc = ref [] in
  for slot = t.b_n - 1 downto 0 do
    acc := t.b_chan.(slot) :: !acc
  done;
  !acc

let iter_backup_channels f t =
  for slot = 0 to t.b_n - 1 do
    f t.b_chan.(slot)
  done

let backup_count t = t.b_n

let multiplexing t = t.multiplexing

let backup_registration t ~channel =
  Option.map
    (fun slot -> (t.b_floor.(slot), Array.to_list t.b_edges.(slot)))
    (Hashtbl.find_opt t.b_slot channel)

let edge_demands t =
  Edge_tbl.fold (fun e demand acc -> (e, demand) :: acc) t.pool_by_edge []

let check_invariant t =
  let sum_reserved = ref 0 and sum_floor = ref 0 and extras = ref 0 in
  for slot = 0 to t.p_n - 1 do
    sum_reserved := !sum_reserved + t.p_res.(slot);
    sum_floor := !sum_floor + t.p_floor.(slot);
    if t.p_res.(slot) > t.p_floor.(slot) then incr extras;
    if t.p_res.(slot) < t.p_floor.(slot) then
      failwith (Printf.sprintf "Link_state: channel %d below floor" t.p_chan.(slot));
    (match Hashtbl.find_opt t.p_slot t.p_chan.(slot) with
    | Some s when s = slot -> ()
    | _ -> failwith "Link_state: primary slot index out of sync")
  done;
  if !sum_reserved <> t.primary_total then
    failwith "Link_state: primary_total out of sync";
  if !sum_floor <> t.primary_min_total then
    failwith "Link_state: primary_min_total out of sync";
  if !extras <> t.extras then failwith "Link_state: extras count out of sync";
  if Hashtbl.length t.p_slot <> t.p_n then
    failwith "Link_state: primary slot table size out of sync";
  if t.primary_total > t.capacity then failwith "Link_state: link overbooked";
  let sum_backup = ref 0 in
  for slot = 0 to t.b_n - 1 do
    sum_backup := !sum_backup + t.b_floor.(slot);
    match Hashtbl.find_opt t.b_slot t.b_chan.(slot) with
    | Some s when s = slot -> ()
    | _ -> failwith "Link_state: backup slot index out of sync"
  done;
  if !sum_backup <> t.backup_sum then failwith "Link_state: backup_sum out of sync";
  if Hashtbl.length t.b_slot <> t.b_n then
    failwith "Link_state: backup slot table size out of sync";
  (* The per-edge activation-demand index must agree exactly with the
     backup registrations it summarises: every registration contributes
     its floor to each of its primary's edges, and nothing else does. *)
  let recomputed = Edge_tbl.create 16 in
  let recomputed_demand e = Option.value ~default:0 (Edge_tbl.find_opt recomputed e) in
  for slot = 0 to t.b_n - 1 do
    Array.iter
      (fun e -> Edge_tbl.replace recomputed e (recomputed_demand e + t.b_floor.(slot)))
      t.b_edges.(slot)
  done;
  Edge_tbl.iter
    (fun e demand ->
      if recomputed_demand e <> demand then
        failwith (Printf.sprintf "Link_state: stale pool demand on edge %d" e))
    t.pool_by_edge;
  Edge_tbl.iter
    (fun e demand ->
      if backup_demand_for_edge t e <> demand then
        failwith (Printf.sprintf "Link_state: missing pool demand on edge %d" e))
    recomputed;
  (* The cached pool maximum, when trusted, must equal the recomputed
     maximum — the incremental cache is audited against full recompute. *)
  if t.multiplexing && not t.pool_stale then begin
    let true_max = Edge_tbl.fold (fun _ d acc -> max d acc) t.pool_by_edge 0 in
    if t.pool_max <> true_max then
      failwith "Link_state: cached backup pool out of sync"
  end
