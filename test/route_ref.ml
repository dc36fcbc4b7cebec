(* Reference route searches for differential tests: plain allocating
   transcriptions of bounded flooding (§3.1) over fresh arrays and
   prepend-built frontier lists, and of Dijkstra settling the whole
   graph with a boxed heap.  [Flooding] and [Paths.dijkstra] must return
   exactly the paths these return. *)

module Heap = struct
  type t = { mutable size : int; mutable arr : (float * int) array }

  let create () = { size = 0; arr = Array.make 64 (0., -1) }
  let is_empty h = h.size = 0

  let swap h i j =
    let tmp = h.arr.(i) in
    h.arr.(i) <- h.arr.(j);
    h.arr.(j) <- tmp

  let push h key v =
    if h.size = Array.length h.arr then begin
      let bigger = Array.make (2 * h.size) (0., -1) in
      Array.blit h.arr 0 bigger 0 h.size;
      h.arr <- bigger
    end;
    h.arr.(h.size) <- (key, v);
    let i = ref h.size in
    h.size <- h.size + 1;
    while !i > 0 && fst h.arr.((!i - 1) / 2) > fst h.arr.(!i) do
      swap h !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done

  let pop h =
    let top = h.arr.(0) in
    h.size <- h.size - 1;
    h.arr.(0) <- h.arr.(h.size);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < h.size && fst h.arr.(l) < fst h.arr.(!smallest) then smallest := l;
      if r < h.size && fst h.arr.(r) < fst h.arr.(!smallest) then smallest := r;
      if !smallest = !i then continue := false
      else begin
        swap h !i !smallest;
        i := !smallest
      end
    done;
    top
end

let rebuild_path via src dst =
  let rec walk v nodes edges =
    if v = src then { Paths.nodes = src :: nodes; edges }
    else
      let u, e = via.(v) in
      walk u (v :: nodes) (e :: edges)
  in
  walk dst [] []

let dijkstra ~weight ?(usable = fun _ -> true) g src dst =
  let n = Graph.node_count g in
  let dist = Array.make n infinity in
  let via = Array.make n (-1, -1) in
  let settled = Array.make n false in
  let heap = Heap.create () in
  dist.(src) <- 0.;
  Heap.push heap 0. src;
  while not (Heap.is_empty heap) do
    let d, u = Heap.pop heap in
    if (not settled.(u)) && d <= dist.(u) then begin
      settled.(u) <- true;
      List.iter
        (fun (v, e) ->
          if usable e && not settled.(v) then begin
            let w = weight e in
            if w < 0. then invalid_arg "Route_ref.dijkstra: negative weight";
            let alt = d +. w in
            if alt < dist.(v) then begin
              dist.(v) <- alt;
              via.(v) <- (u, e);
              Heap.push heap alt v
            end
          end)
        (Graph.neighbors g u)
    end
  done;
  if Float.equal dist.(dst) infinity then None
  else Some (rebuild_path via src dst, dist.(dst))

let search_best net (req : Flooding.request) ~allowance =
  let g = Net_state.graph net in
  let n = Graph.node_count g in
  let dist = Array.make n max_int in
  let best_allow = Array.make n min_int in
  let via = Array.make n (-1, -1) in
  dist.(req.src) <- 0;
  best_allow.(req.src) <- max_int;
  let frontier = ref [ req.src ] in
  let depth = ref 0 in
  while !frontier <> [] && !depth < req.hop_bound && dist.(req.dst) = max_int do
    let next = ref [] in
    List.iter
      (fun u ->
        List.iter
          (fun (v, e) ->
            if Net_state.usable_edge net e && dist.(v) >= !depth + 1 then begin
              let dl = Dirlink.of_edge g ~edge:e ~src:u in
              let a = allowance dl in
              if a >= 0 then begin
                let bottleneck = min best_allow.(u) a in
                if
                  dist.(v) > !depth + 1
                  || (dist.(v) = !depth + 1 && bottleneck > best_allow.(v))
                then begin
                  if dist.(v) > !depth + 1 then next := v :: !next;
                  dist.(v) <- !depth + 1;
                  best_allow.(v) <- bottleneck;
                  via.(v) <- (u, e)
                end
              end
            end)
          (Graph.neighbors g u))
      !frontier;
    frontier := !next;
    incr depth
  done;
  if dist.(req.dst) = max_int then None else Some (rebuild_path via req.src req.dst)

let primary_route net (req : Flooding.request) =
  let allowance dl =
    let l = Net_state.link net dl in
    if Link_state.admissible_primary l ~b_min:req.floor then
      Link_state.reclaimable_headroom l
    else -1
  in
  search_best net req ~allowance

(* The pool after adding the backup, from its definition (DESIGN §5):
   with multiplexing, the worst single failure over the primary's edges
   (each already-recorded demand is at most the current pool); without,
   the plain sum of floors. *)
let backup_allowance net ~floor ~primary_edges dl =
  let l = Net_state.link net dl in
  let pool' =
    if Link_state.multiplexing l then
      List.fold_left
        (fun acc e -> max acc (floor + Link_state.backup_demand_for_edge l e))
        (Link_state.backup_pool l) primary_edges
    else Link_state.backup_dedicated_demand l + floor
  in
  let headroom = Link_state.capacity l - Link_state.primary_min_total l - pool' in
  if headroom >= 0 then headroom else -1

(* How many calls fell through to the maximally-disjoint fallback, so a
   differential test can show it covered that branch. *)
let fallbacks = ref 0

let backup_route ?(banned_edges = []) net (req : Flooding.request) ~primary_edges =
  let base_allowance = backup_allowance net ~floor:req.floor ~primary_edges in
  let allowance dl =
    if List.mem (Dirlink.edge dl) banned_edges then -1 else base_allowance dl
  in
  let disjoint_allowance dl =
    if List.mem (Dirlink.edge dl) primary_edges then -1 else allowance dl
  in
  match search_best net req ~allowance:disjoint_allowance with
  | Some _ as found -> found
  | None -> (
    incr fallbacks;
    let g = Net_state.graph net in
    let penalty = float_of_int (Graph.node_count g * Graph.node_count g) in
    let weight e = if List.mem e primary_edges then penalty +. 1. else 1. in
    let usable e =
      Net_state.usable_edge net e
      && (not (List.mem e banned_edges))
      && allowance (2 * e) >= 0
      && allowance ((2 * e) + 1) >= 0
    in
    match dijkstra ~weight ~usable g req.src req.dst with
    | None -> None
    | Some (path, _) ->
      let protects =
        List.exists (fun e -> not (List.mem e path.Paths.edges)) primary_edges
      in
      if Paths.hop_count path > req.hop_bound || not protects then None else Some path)
