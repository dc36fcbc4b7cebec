type request = { src : int; dst : int; floor : Bandwidth.t; hop_bound : int }

let request ?(hop_bound = 16) ~src ~dst ~floor () =
  if src = dst then invalid_arg "Flooding.request: src = dst";
  if floor <= 0 then invalid_arg "Flooding.request: floor must be positive";
  if hop_bound < 1 then invalid_arg "Flooding.request: hop_bound >= 1";
  { src; dst; floor; hop_bound }

(* Hop-bounded BFS over directed links, on the network's scratch.
   [allowance ~at_most dl] returns the bandwidth this directed link
   could still give the request, capped at [at_most] (the bottleneck of
   the path reaching it), or -1 when the link cannot admit it at all.
   An allowance is pure, and for [at_most >= 0] whether it admits
   (returns >= 0) or refuses does not depend on [at_most]: both
   allowances below refuse exactly when the link's own headroom is too
   small.  Among routes of equal (minimal) hop count the one with the
   larger bottleneck allowance wins — that is the copy the destination
   would have confirmed.

   The search walks the scratch's copy of the adjacency, and each level
   first relaxes only its links into the destination, in the full
   pass's order and with the same test; when that reaches the
   destination the level ends there.  That is exact: the destination's
   allowance and via end as the full pass would leave them, since no
   other link writes the destination, and the links a level skips
   write only nodes at its own depth, none of them on the destination's
   via chain, from which the route is rebuilt.  When the destination
   pass reaches nothing, the full pass runs and its links into the
   destination refuse again, the allowance being pure. *)
let search_best net req ~allowance =
  let s = Net_state.scratch net in
  let gen = Paths.next_gen s in
  let dst = req.dst in
  s.reached.(req.src) <- gen;
  s.hops.(req.src) <- 0;
  s.allow.(req.src) <- max_int;
  s.frontier.(0) <- req.src;
  (* The destination's neighbours, each with its edge into it. *)
  for k = s.adj_off.(dst) to s.adj_off.(dst + 1) - 1 do
    let v = s.adj_node.(k) in
    s.into_dst.(v) <- gen;
    s.into_dst_edge.(v) <- s.adj_edge.(k)
  done;
  let level = ref s.frontier and next = ref s.next in
  let level_n = ref 1 and next_n = ref 0 in
  (* Relax the link from [u] to [v] over edge [e] into hop distance [d].
     [Graph.endpoints] lists the lower node first, so the directed link
     is [2e] when [u < v] ([Dirlink.of_step]). *)
  let relax u v e d =
    (* An unreached node reads as max_int hops. *)
    let hv = if s.reached.(v) = gen then s.hops.(v) else max_int in
    if hv >= d && Net_state.usable_edge net e then begin
      let dl = if u < v then 2 * e else (2 * e) + 1 in
      let bottleneck = allowance ~at_most:s.allow.(u) dl in
      if bottleneck >= 0 then begin
        (* [hv] is [d] here, or unreached. *)
        if hv > d || bottleneck > s.allow.(v) then begin
          if hv > d then begin
            !next.(!next_n) <- v;
            incr next_n
          end;
          s.reached.(v) <- gen;
          s.hops.(v) <- d;
          s.allow.(v) <- bottleneck;
          s.via_node.(v) <- u;
          s.via_edge.(v) <- e
        end
      end
    end
  in
  let depth = ref 0 in
  while !level_n > 0 && !depth < req.hop_bound && s.reached.(dst) <> gen do
    (* Relax the whole level before moving on, so every same-depth copy
       competes on allowance.  A strict [>] keeps the first of equal
       allowances, so the walk order decides those ties: discovery
       order, last to first, and each node's neighbours in adjacency
       order.  Route choice depends on it, and the tests compare it
       against test/route_ref.ml. *)
    let d = !depth + 1 in
    for i = !level_n - 1 downto 0 do
      let u = !level.(i) in
      if s.into_dst.(u) = gen then relax u dst s.into_dst_edge.(u) d
    done;
    if s.reached.(dst) <> gen then
      for i = !level_n - 1 downto 0 do
        let u = !level.(i) in
        for k = s.adj_off.(u) to s.adj_off.(u + 1) - 1 do
          relax u s.adj_node.(k) s.adj_edge.(k) d
        done
      done;
    let walked = !level in
    level := !next;
    next := walked;
    level_n := !next_n;
    next_n := 0;
    incr depth
  done;
  if s.reached.(dst) <> gen then None else Some (Paths.scratch_path s ~src:req.src ~dst)

let primary_route net req =
  let allowance ~at_most dl =
    let headroom = Link_state.reclaimable_headroom (Net_state.link net dl) in
    if req.floor <= headroom then Int.min at_most headroom else -1
  in
  search_best net req ~allowance

let backup_route ?(banned_edges = []) net req ~primary_edges =
  (* The primary's edges carry a generation of their own; the searches
     below take later ones, so the stamp stays this call's. *)
  let s = Net_state.scratch net in
  let primary = Paths.next_gen s in
  List.iter (fun e -> s.edge_mark.(e) <- primary) primary_edges;
  let on_primary e = s.edge_mark.(e) = primary in
  (* One array for every pool query of this call. *)
  let primary_edge_array = Array.of_list primary_edges in
  let banned dl = List.mem (Dirlink.edge dl) banned_edges in
  (* First try: fully link-disjoint.  The flood ranks routes by their
     bottleneck headroom, so a link's pool is read only where its O(1)
     bound could lower the bottleneck so far. *)
  let disjoint_allowance ~at_most dl =
    if on_primary (Dirlink.edge dl) || banned dl then -1
    else
      Link_state.backup_headroom (Net_state.link net dl) ~b_min:req.floor
        ~primary_edges:primary_edge_array ~at_most
  in
  match search_best net req ~allowance:disjoint_allowance with
  | Some _ as found -> found
  | None ->
    (* Maximally disjoint: Dijkstra minimising (shared edges, hops) via a
       large per-shared-edge penalty, over links that pass the backup
       admission test. *)
    let g = Net_state.graph net in
    let penalty = float_of_int (Graph.node_count g * Graph.node_count g) in
    let weight e = if on_primary e then penalty +. 1. else 1. in
    let fits dl =
      Link_state.backup_headroom (Net_state.link net dl) ~b_min:req.floor
        ~primary_edges:primary_edge_array ~at_most:0
      >= 0
    in
    let usable e =
      Net_state.usable_edge net e
      && (not (List.mem e banned_edges))
      &&
      (* Both directions might be used by Dijkstra; the admission test is
         directional, so accept the edge only if at least one direction
         admits — the final path is re-checked by the caller via
         reservation, which raises on the bad direction.  To stay exact we
         conservatively require both directions to admit.  Only the
         verdict matters here, so the O(1) test answers most links. *)
      fits (2 * e)
      && fits ((2 * e) + 1)
    in
    (match Paths.dijkstra ~weight ~usable s g req.src req.dst with
    | None -> None
    | Some (path, _) ->
      (* A backup covering none of the primary's edges' failures is
         useless: if every primary edge also lies on the backup, any
         primary failure kills the backup too — report no backup. *)
      let protects =
        List.exists (fun e -> not (List.mem e path.Paths.edges)) primary_edges
      in
      if Paths.hop_count path > req.hop_bound || not protects then None
      else Some path)

let message_count g req =
  (* One transmission per directed link whose tail is strictly inside the
     flooding region (hop distance < hop_bound) — every such node forwards
     the request once over each outgoing link except back where it came
     from; we charge the full out-degree as an upper-bound model and
     subtract the return link. *)
  let dist = Paths.hops_from g req.src in
  let total = ref 0 in
  for u = 0 to Graph.node_count g - 1 do
    if dist.(u) >= 0 && dist.(u) < req.hop_bound then begin
      let d = Graph.degree g u in
      let forwards = if u = req.src then d else max 0 (d - 1) in
      total := !total + forwards
    end
  done;
  !total
