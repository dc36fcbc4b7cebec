type path = { nodes : int list; edges : int list }

let hop_count p = List.length p.edges

let is_valid g p =
  match p.nodes with
  | [] -> false
  | first :: rest ->
    let distinct = List.sort_uniq compare p.nodes in
    List.length distinct = List.length p.nodes
    && List.length p.nodes = List.length p.edges + 1
    &&
    let rec walk u nodes edges =
      match (nodes, edges) with
      | [], [] -> true
      | v :: nodes', e :: edges' -> (
        match Graph.find_edge g u v with
        | Some e' when e' = e -> walk v nodes' edges'
        | _ -> false)
      | _ -> false
    in
    walk first rest p.edges

let all_usable _ = true

(* One path rebuild for every search here: [via_node.(v)] and
   [via_edge.(v)] are the node and edge [v] was reached through. *)
let rebuild_path ~via_node ~via_edge src dst =
  let rec walk v nodes edges =
    if v = src then { nodes = src :: nodes; edges }
    else walk via_node.(v) (v :: nodes) (via_edge.(v) :: edges)
  in
  walk dst [] []

(* BFS recording, for each reached node, the parent and edge it was
   reached through; shared by [hops_from] and [shortest_path]. *)
let bfs ?(usable = all_usable) g src =
  let n = Graph.node_count g in
  let dist = Array.make n (-1) in
  let via_node = Array.make n (-1) and via_edge = Array.make n (-1) in
  dist.(src) <- 0;
  let q = Queue.create () in
  Queue.push src q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    List.iter
      (fun (v, e) ->
        if usable e && dist.(v) < 0 then begin
          dist.(v) <- dist.(u) + 1;
          via_node.(v) <- u;
          via_edge.(v) <- e;
          Queue.push v q
        end)
      (Graph.neighbors g u)
  done;
  (dist, via_node, via_edge)

let hops_from ?usable g src =
  let dist, _, _ = bfs ?usable g src in
  dist

let shortest_path ?usable g src dst =
  let dist, via_node, via_edge = bfs ?usable g src in
  if dist.(dst) < 0 then None else Some (rebuild_path ~via_node ~via_edge src dst)

type scratch = {
  adj_off : int array;
  adj_node : int array;
  adj_edge : int array;
  mutable gen : int;
  reached : int array;
  settled : int array;
  hops : int array;
  allow : int array;
  dist : float array;
  via_node : int array;
  via_edge : int array;
  frontier : int array;
  next : int array;
  into_dst : int array;
  into_dst_edge : int array;
  edge_mark : int array;
  usable_memo : int array;
  mutable heap_key : float array;
  mutable heap_node : int array;
  mutable heap_size : int;
}

(* The adjacency in compressed sparse rows: [u]'s neighbours are
   [adj_node.(k)] over edge [adj_edge.(k)] for [k] from [adj_off.(u)] to
   [adj_off.(u + 1) - 1], in [Graph.neighbors] order. *)
let scratch g =
  let nodes = Graph.node_count g in
  let adj_off = Array.make (nodes + 1) 0 in
  for u = 0 to nodes - 1 do
    adj_off.(u + 1) <- adj_off.(u) + Graph.degree g u
  done;
  let adj_node = Array.make adj_off.(nodes) 0 and adj_edge = Array.make adj_off.(nodes) 0 in
  for u = 0 to nodes - 1 do
    List.iteri
      (fun i (v, e) ->
        adj_node.(adj_off.(u) + i) <- v;
        adj_edge.(adj_off.(u) + i) <- e)
      (Graph.neighbors g u)
  done;
  let n = max 1 nodes and m = max 1 (Graph.edge_count g) in
  {
    adj_off;
    adj_node;
    adj_edge;
    gen = 0;
    reached = Array.make n 0;
    settled = Array.make n 0;
    hops = Array.make n 0;
    allow = Array.make n 0;
    dist = Array.make n 0.;
    via_node = Array.make n (-1);
    via_edge = Array.make n (-1);
    frontier = Array.make n 0;
    next = Array.make n 0;
    into_dst = Array.make n 0;
    into_dst_edge = Array.make n (-1);
    edge_mark = Array.make m 0;
    usable_memo = Array.make m 0;
    heap_key = Array.make n 0.;
    heap_node = Array.make n 0;
    heap_size = 0;
  }

let next_gen s =
  s.gen <- s.gen + 1;
  s.gen

let scratch_path s ~src ~dst =
  rebuild_path ~via_node:s.via_node ~via_edge:s.via_edge src dst

(* The scratch's binary min-heap over (key, node), keys and nodes in two
   unboxed arrays.  Dijkstra pushes on every improvement and skips stale
   entries on pop, so it can hold more than one entry per node; it
   doubles when full and keeps the larger arrays for later calls. *)
let heap_swap s i j =
  let k = s.heap_key.(i) and v = s.heap_node.(i) in
  s.heap_key.(i) <- s.heap_key.(j);
  s.heap_node.(i) <- s.heap_node.(j);
  s.heap_key.(j) <- k;
  s.heap_node.(j) <- v

let heap_push s key v =
  if s.heap_size = Array.length s.heap_key then begin
    let grow a fill =
      let bigger = Array.make (2 * s.heap_size) fill in
      Array.blit a 0 bigger 0 s.heap_size;
      bigger
    in
    s.heap_key <- grow s.heap_key 0.;
    s.heap_node <- grow s.heap_node (-1)
  end;
  s.heap_key.(s.heap_size) <- key;
  s.heap_node.(s.heap_size) <- v;
  let i = ref s.heap_size in
  s.heap_size <- s.heap_size + 1;
  while !i > 0 && s.heap_key.((!i - 1) / 2) > s.heap_key.(!i) do
    heap_swap s !i ((!i - 1) / 2);
    i := (!i - 1) / 2
  done

(* Remove the minimum; the caller reads it from slot 0 first. *)
let heap_drop_min s =
  s.heap_size <- s.heap_size - 1;
  s.heap_key.(0) <- s.heap_key.(s.heap_size);
  s.heap_node.(0) <- s.heap_node.(s.heap_size);
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    if l < s.heap_size && s.heap_key.(l) < s.heap_key.(!smallest) then smallest := l;
    if r < s.heap_size && s.heap_key.(r) < s.heap_key.(!smallest) then smallest := r;
    if !smallest = !i then continue := false
    else begin
      heap_swap s !i !smallest;
      i := !smallest
    end
  done

let dijkstra ~weight ?(usable = all_usable) s g src dst =
  if Array.length s.adj_off <> Graph.node_count g + 1
     || Array.length s.adj_edge <> 2 * Graph.edge_count g
  then invalid_arg "Paths.dijkstra: scratch built for another graph";
  let gen = next_gen s in
  let usable e =
    let memo = s.usable_memo.(e) in
    if memo = gen then true
    else if memo = -gen then false
    else begin
      let ok = usable e in
      s.usable_memo.(e) <- (if ok then gen else -gen);
      ok
    end
  in
  (* Relax the links of [u], settled at distance [d]; an unreached node
     reads as infinitely far. *)
  let relax u d =
    for k = s.adj_off.(u) to s.adj_off.(u + 1) - 1 do
      let v = s.adj_node.(k) and e = s.adj_edge.(k) in
      if s.settled.(v) <> gen && usable e then begin
        let w = weight e in
        if w < 0. then invalid_arg "Paths.dijkstra: negative weight";
        let alt = d +. w in
        if alt < (if s.reached.(v) = gen then s.dist.(v) else infinity) then begin
          s.reached.(v) <- gen;
          s.dist.(v) <- alt;
          s.via_node.(v) <- u;
          s.via_edge.(v) <- e;
          heap_push s alt v
        end
      end
    done
  in
  s.heap_size <- 0;
  s.reached.(src) <- gen;
  s.dist.(src) <- 0.;
  heap_push s 0. src;
  (* A settled node is never relaxed again, so once [dst] is settled its
     via chain is final and the rest of the graph can be left alone. *)
  while s.heap_size > 0 && s.settled.(dst) <> gen do
    let d = s.heap_key.(0) and u = s.heap_node.(0) in
    heap_drop_min s;
    if s.settled.(u) <> gen && d <= s.dist.(u) then begin
      s.settled.(u) <- gen;
      relax u d
    end
  done;
  if s.settled.(dst) = gen then Some (scratch_path s ~src ~dst, s.dist.(dst)) else None

let widest_path ~width g src dst =
  let n = Graph.node_count g in
  (* Maximise the bottleneck; among equal bottlenecks prefer fewer hops.
     Label = (-bottleneck, hops) ordered lexicographically, packed into the
     float key via a second pass: we instead run a modified Dijkstra keeping
     both components explicitly. *)
  let bottleneck = Array.make n neg_infinity in
  let hops = Array.make n max_int in
  let via_node = Array.make n (-1) and via_edge = Array.make n (-1) in
  let settled = Array.make n false in
  let better v b h = b > bottleneck.(v) || (Float.equal b bottleneck.(v) && h < hops.(v)) in
  bottleneck.(src) <- infinity;
  hops.(src) <- 0;
  let rec pick_next () =
    (* Linear scan is fine at n <= a few hundred. *)
    let best = ref (-1) in
    for v = 0 to n - 1 do
      if (not settled.(v)) && bottleneck.(v) > neg_infinity then
        if !best < 0
           || bottleneck.(v) > bottleneck.(!best)
           || (Float.equal bottleneck.(v) bottleneck.(!best) && hops.(v) < hops.(!best))
        then best := v
    done;
    if !best < 0 then ()
    else begin
      let u = !best in
      settled.(u) <- true;
      if u <> dst then begin
        List.iter
          (fun (v, e) ->
            if not settled.(v) then begin
              let b = Float.min bottleneck.(u) (width e) in
              let h = hops.(u) + 1 in
              if better v b h then begin
                bottleneck.(v) <- b;
                hops.(v) <- h;
                via_node.(v) <- u;
                via_edge.(v) <- e
              end
            end)
          (Graph.neighbors g u);
        pick_next ()
      end
    end
  in
  pick_next ();
  if Float.equal bottleneck.(dst) neg_infinity then None
  else Some (rebuild_path ~via_node ~via_edge src dst, bottleneck.(dst))

let eccentricity g u =
  let dist = hops_from g u in
  Array.fold_left (fun acc d -> if d > acc then d else acc) 0 dist

let diameter g =
  let worst = ref 0 in
  for u = 0 to Graph.node_count g - 1 do
    let e = eccentricity g u in
    if e > !worst then worst := e
  done;
  !worst

let average_hops g =
  let total = ref 0 and pairs = ref 0 in
  for u = 0 to Graph.node_count g - 1 do
    let dist = hops_from g u in
    Array.iteri
      (fun v d ->
        if v <> u && d > 0 then begin
          total := !total + d;
          incr pairs
        end)
      dist
  done;
  if !pairs = 0 then 0. else float_of_int !total /. float_of_int !pairs
