(* Indexed channel sets: primaries and backups live in dense parallel
   arrays (swap-remove on release), with an int-keyed slot table per set
   for O(1) lookup.  Iteration is a flat array walk — no hashtable scans
   on the hot path — and the multiplexed backup pool is a cached maximum
   over the per-edge demand index, recomputed lazily only after an
   unregistration removed demand at the cached maximum. *)

(* The per-edge demand index, which every backup admission test reads
   once per primary edge, is open addressing over one int array whose
   length is a power of two.  An entry packs [(edge lsl 32) lor demand]
   and [empty] (-1) marks a free slot.  Probing is linear from slot
   [edge land mask]; an entry whose demand falls to 0 is deleted by
   backward shift, so the array holds only live keys and no tombstones;
   the array doubles at 3/4 load.  Every demand is at most the pool and
   the pool at most the capacity, which [create] keeps below 2^32, and
   [register_backup] keeps edge ids below 2^30, so an entry is a
   non-negative int and its demand never carries into its key. *)
let demand_bits = 32
let demand_mask = (1 lsl demand_bits) - 1
let edge_limit = 1 lsl 30
let empty = -1

type t = {
  capacity : Bandwidth.t;
  multiplexing : bool;
  (* Primary reservations, slot-indexed. *)
  mutable p_chan : int array;
  mutable p_res : int array;
  mutable p_floor : int array;
  mutable p_n : int;
  p_slot : int Id_tbl.t; (* channel -> slot *)
  mutable extras : int; (* slots with reserved > floor *)
  (* Backup registrations, slot-indexed. *)
  mutable b_chan : int array;
  mutable b_floor : int array;
  mutable b_edges : int array array; (* the caller's arrays, shared *)
  mutable b_n : int;
  b_slot : int Id_tbl.t;
  (* For multiplexing: activation demand per failed undirected edge. *)
  mutable demand : int array; (* packed per-edge demand index *)
  mutable demand_n : int; (* occupied slots of [demand] *)
  mutable pool_max : int; (* cached max demand, valid unless pool_stale *)
  mutable pool_stale : bool;
  mutable primary_total : Bandwidth.t;
  mutable primary_min_total : Bandwidth.t;
  mutable backup_sum : Bandwidth.t; (* plain sum of registered b_mins *)
}

let create ?(multiplexing = true) ~capacity () =
  if capacity <= 0 then invalid_arg "Link_state.create: capacity must be positive";
  if capacity > demand_mask then invalid_arg "Link_state.create: capacity of 2^32 or more";
  {
    capacity;
    multiplexing;
    p_chan = [||];
    p_res = [||];
    p_floor = [||];
    p_n = 0;
    p_slot = Id_tbl.create 16;
    extras = 0;
    b_chan = [||];
    b_floor = [||];
    b_edges = [||];
    b_n = 0;
    b_slot = Id_tbl.create 16;
    demand = Array.make 8 empty;
    demand_n = 0;
    pool_max = 0;
    pool_stale = false;
    primary_total = 0;
    primary_min_total = 0;
    backup_sum = 0;
  }

let capacity t = t.capacity

let grow_int arr n = Array.init (max 8 (2 * n)) (fun i -> if i < n then arr.(i) else 0)

(* The slot holding [e]'s entry, or the empty slot ending its probe run. *)
let rec demand_slot tbl mask e i =
  let x = tbl.(i) in
  if x < 0 || x lsr demand_bits = e then i else demand_slot tbl mask e ((i + 1) land mask)

(* The home slot is read inline; the probe loop runs only when another
   edge holds it. *)
let backup_demand_for_edge t e =
  let tbl = t.demand in
  let mask = Array.length tbl - 1 in
  let home = e land mask in
  let x = tbl.(home) in
  let x =
    if x < 0 || x lsr demand_bits = e then x
    else tbl.(demand_slot tbl mask e ((home + 1) land mask))
  in
  if x < 0 then 0 else x land demand_mask

let max_demand tbl =
  Array.fold_left (fun acc x -> if x >= 0 then Int.max acc (x land demand_mask) else acc) 0 tbl

let grow_demand t =
  let tbl = Array.make (2 * Array.length t.demand) empty in
  let mask = Array.length tbl - 1 in
  Array.iter
    (fun x ->
      if x >= 0 then
        let e = x lsr demand_bits in
        tbl.(demand_slot tbl mask e (e land mask)) <- x)
    t.demand;
  t.demand <- tbl

(* Add [b_min] to [e]'s demand and return the new demand. *)
let rec add_demand t e b_min =
  let tbl = t.demand in
  let mask = Array.length tbl - 1 in
  let i = demand_slot tbl mask e (e land mask) in
  let x = tbl.(i) in
  if x >= 0 then begin
    tbl.(i) <- x + b_min;
    (x land demand_mask) + b_min
  end
  else if 4 * (t.demand_n + 1) > 3 * Array.length tbl then begin
    grow_demand t;
    add_demand t e b_min
  end
  else begin
    tbl.(i) <- (e lsl demand_bits) lor b_min;
    t.demand_n <- t.demand_n + 1;
    b_min
  end

(* Empty [hole] by backward shift: each later entry of the probe run
   whose home slot lies cyclically at or before the hole moves into it,
   and its old slot becomes the hole, until the run ends. *)
let rec close_gap tbl mask hole j =
  let j = (j + 1) land mask in
  let x = tbl.(j) in
  if x < 0 then tbl.(hole) <- empty
  else if (j - (x lsr demand_bits)) land mask >= (j - hole) land mask then begin
    tbl.(hole) <- x;
    close_gap tbl mask j j
  end
  else close_gap tbl mask hole j

(* Take [b_min] off [e]'s demand, deleting the entry at 0, and return
   the demand before. *)
let sub_demand t e b_min =
  let tbl = t.demand in
  let mask = Array.length tbl - 1 in
  let i = demand_slot tbl mask e (e land mask) in
  let x = tbl.(i) in
  let demand = if x < 0 then 0 else x land demand_mask in
  assert (demand >= b_min);
  if demand = b_min then begin
    close_gap tbl mask i i;
    t.demand_n <- t.demand_n - 1
  end
  else tbl.(i) <- x - b_min;
  demand

let backup_pool t =
  if not t.multiplexing then t.backup_sum
  else begin
    if t.pool_stale then begin
      t.pool_max <- max_demand t.demand;
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
  if Id_tbl.mem t.p_slot channel then
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
  Id_tbl.replace t.p_slot channel slot;
  t.primary_total <- t.primary_total + b_min;
  t.primary_min_total <- t.primary_min_total + b_min

let set_primary t ~channel bw =
  match Id_tbl.find_opt t.p_slot channel with
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
  match Id_tbl.find_opt t.p_slot channel with
  | None -> raise Not_found
  | Some slot ->
    if t.p_res.(slot) > t.p_floor.(slot) then t.extras <- t.extras - 1;
    t.primary_total <- t.primary_total - t.p_res.(slot);
    t.primary_min_total <- t.primary_min_total - t.p_floor.(slot);
    Id_tbl.remove t.p_slot channel;
    let last = t.p_n - 1 in
    if slot < last then begin
      t.p_chan.(slot) <- t.p_chan.(last);
      t.p_res.(slot) <- t.p_res.(last);
      t.p_floor.(slot) <- t.p_floor.(last);
      Id_tbl.replace t.p_slot t.p_chan.(slot) slot
    end;
    t.p_n <- last

let primary_reservation t ~channel =
  Option.map (fun slot -> t.p_res.(slot)) (Id_tbl.find_opt t.p_slot channel)

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
   them raises the pool by at most [b_min]: the headroom is at least
   [room - backup_pool - b_min], and once that reaches [at_most] the
   per-edge demands cannot change the answer. *)
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
  if Id_tbl.mem t.b_slot channel then
    invalid_arg "Link_state.register_backup: channel already registered here";
  if Array.exists (fun e -> e < 0 || e >= edge_limit) primary_edges then
    invalid_arg "Link_state.register_backup: edge id outside [0, 2^30)";
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
  Id_tbl.replace t.b_slot channel slot;
  t.backup_sum <- t.backup_sum + b_min;
  for i = 0 to Array.length primary_edges - 1 do
    let demand = add_demand t primary_edges.(i) b_min in
    (* A raise can only move the cached maximum up, stale or not. *)
    if demand > t.pool_max then t.pool_max <- demand
  done

let unregister_backup t ~channel =
  match Id_tbl.find_opt t.b_slot channel with
  | None -> raise Not_found
  | Some slot ->
    let b_min = t.b_floor.(slot) in
    let edges = t.b_edges.(slot) in
    Id_tbl.remove t.b_slot channel;
    let last = t.b_n - 1 in
    if slot < last then begin
      t.b_chan.(slot) <- t.b_chan.(last);
      t.b_floor.(slot) <- t.b_floor.(last);
      t.b_edges.(slot) <- t.b_edges.(last);
      Id_tbl.replace t.b_slot t.b_chan.(slot) slot
    end;
    t.b_edges.(last) <- [||];
    t.b_n <- last;
    t.backup_sum <- t.backup_sum - b_min;
    for i = 0 to Array.length edges - 1 do
      let demand = sub_demand t edges.(i) b_min in
      (* Shrinking demand at the cached maximum invalidates it; the
         next pool query recomputes. *)
      if (not t.pool_stale) && demand = t.pool_max then t.pool_stale <- true
    done

let has_backup t ~channel = Id_tbl.mem t.b_slot channel

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

let multiplexing t = t.multiplexing

let backup_registration t ~channel =
  Option.map
    (fun slot -> (t.b_floor.(slot), Array.to_list t.b_edges.(slot)))
    (Id_tbl.find_opt t.b_slot channel)

let edge_demands t =
  Array.fold_left
    (fun acc x -> if x >= 0 then (x lsr demand_bits, x land demand_mask) :: acc else acc)
    [] t.demand

let check_invariant t =
  let sum_reserved = ref 0 and sum_floor = ref 0 and extras = ref 0 in
  for slot = 0 to t.p_n - 1 do
    sum_reserved := !sum_reserved + t.p_res.(slot);
    sum_floor := !sum_floor + t.p_floor.(slot);
    if t.p_res.(slot) > t.p_floor.(slot) then incr extras;
    if t.p_res.(slot) < t.p_floor.(slot) then
      failwith (Printf.sprintf "Link_state: channel %d below floor" t.p_chan.(slot));
    (match Id_tbl.find_opt t.p_slot t.p_chan.(slot) with
    | Some s when s = slot -> ()
    | _ -> failwith "Link_state: primary slot index out of sync")
  done;
  if !sum_reserved <> t.primary_total then
    failwith "Link_state: primary_total out of sync";
  if !sum_floor <> t.primary_min_total then
    failwith "Link_state: primary_min_total out of sync";
  if !extras <> t.extras then failwith "Link_state: extras count out of sync";
  if Id_tbl.length t.p_slot <> t.p_n then
    failwith "Link_state: primary slot table size out of sync";
  if t.primary_total > t.capacity then failwith "Link_state: link overbooked";
  let sum_backup = ref 0 in
  for slot = 0 to t.b_n - 1 do
    sum_backup := !sum_backup + t.b_floor.(slot);
    match Id_tbl.find_opt t.b_slot t.b_chan.(slot) with
    | Some s when s = slot -> ()
    | _ -> failwith "Link_state: backup slot index out of sync"
  done;
  if !sum_backup <> t.backup_sum then failwith "Link_state: backup_sum out of sync";
  if Id_tbl.length t.b_slot <> t.b_n then
    failwith "Link_state: backup slot table size out of sync";
  (* The per-edge activation-demand index must agree exactly with the
     backup registrations it summarises: every registration contributes
     its floor to each of its primary's edges, and nothing else does. *)
  let recomputed = Id_tbl.create 16 in
  let recomputed_demand e = Option.value ~default:0 (Id_tbl.find_opt recomputed e) in
  for slot = 0 to t.b_n - 1 do
    Array.iter
      (fun e -> Id_tbl.replace recomputed e (recomputed_demand e + t.b_floor.(slot)))
      t.b_edges.(slot)
  done;
  List.iter
    (fun (e, demand) ->
      if recomputed_demand e <> demand then
        failwith (Printf.sprintf "Link_state: stale pool demand on edge %d" e))
    (edge_demands t);
  Id_tbl.iter
    (fun e demand ->
      if backup_demand_for_edge t e <> demand then
        failwith (Printf.sprintf "Link_state: missing pool demand on edge %d" e))
    recomputed;
  (* The table itself: no entry keeps a zero demand, each is the first
     entry with its key on the probe run from its home slot, with no
     empty slot on the way, and the live count is the occupied slots. *)
  let tbl = t.demand in
  let mask = Array.length tbl - 1 in
  let occupied = ref 0 in
  Array.iteri
    (fun j x ->
      if x >= 0 then begin
        incr occupied;
        let e = x lsr demand_bits in
        if x land demand_mask = 0 then
          failwith (Printf.sprintf "Link_state: zero pool demand kept on edge %d" e);
        let i = ref (e land mask) in
        while !i <> j do
          let y = tbl.(!i) in
          if y < 0 then
            failwith (Printf.sprintf "Link_state: pool demand on edge %d unreachable" e);
          if y lsr demand_bits = e then
            failwith (Printf.sprintf "Link_state: pool demand on edge %d twice" e);
          i := (!i + 1) land mask
        done
      end)
    tbl;
  if !occupied <> t.demand_n then failwith "Link_state: pool demand count out of sync";
  (* The cached pool maximum, when trusted, must equal the recomputed
     maximum — the incremental cache is audited against full recompute. *)
  if t.multiplexing && (not t.pool_stale) && t.pool_max <> max_demand tbl then
    failwith "Link_state: cached backup pool out of sync"
