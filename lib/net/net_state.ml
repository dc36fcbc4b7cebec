type t = {
  graph : Graph.t;
  links : Link_state.t array;
  failed : bool array; (* by undirected edge *)
  (* The failed set, maintained: a dense array of failed edges plus each
     edge's position in it (-1 when up), so failure/repair are O(1) and
     enumerating the set is O(failed) instead of a scan over every
     edge. *)
  mutable failed_list : int array;
  mutable failed_n : int;
  failed_pos : int array;
  multiplexing : bool;
  scratch : Paths.scratch;
}

let create_heterogeneous ?(multiplexing = true) ~capacity_of graph =
  let n = Dirlink.count graph in
  let edges = max 1 (Graph.edge_count graph) in
  {
    graph;
    links =
      Array.init n (fun id ->
          Link_state.create ~multiplexing ~capacity:(capacity_of id) ());
    failed = Array.make edges false;
    failed_list = [||];
    failed_n = 0;
    failed_pos = Array.make edges (-1);
    multiplexing;
    scratch = Paths.scratch graph;
  }

let create ?multiplexing ?(capacity = Bandwidth.paper_link_capacity) graph =
  create_heterogeneous ?multiplexing ~capacity_of:(fun _ -> capacity) graph

let graph t = t.graph
let multiplexing t = t.multiplexing
let scratch t = t.scratch

let link t id =
  if id < 0 || id >= Array.length t.links then
    invalid_arg (Printf.sprintf "Net_state.link: id %d out of range" id);
  t.links.(id)

let link_count t = Array.length t.links

let check_edge t e =
  if e < 0 || e >= Graph.edge_count t.graph then
    invalid_arg (Printf.sprintf "Net_state: edge %d out of range" e)

let fail_edge t e =
  check_edge t e;
  if not t.failed.(e) then begin
    t.failed.(e) <- true;
    if t.failed_n = Array.length t.failed_list then
      t.failed_list <-
        Array.init
          (max 8 (2 * t.failed_n))
          (fun i -> if i < t.failed_n then t.failed_list.(i) else 0);
    t.failed_list.(t.failed_n) <- e;
    t.failed_pos.(e) <- t.failed_n;
    t.failed_n <- t.failed_n + 1
  end

let repair_edge t e =
  check_edge t e;
  if t.failed.(e) then begin
    t.failed.(e) <- false;
    let pos = t.failed_pos.(e) in
    let last = t.failed_n - 1 in
    if pos < last then begin
      t.failed_list.(pos) <- t.failed_list.(last);
      t.failed_pos.(t.failed_list.(pos)) <- pos
    end;
    t.failed_pos.(e) <- -1;
    t.failed_n <- last
  end

let edge_failed t e =
  check_edge t e;
  t.failed.(e)

let failed_count t = t.failed_n

(* Ascending order, as the per-call rebuild used to return — O(f log f)
   in the number of failed edges, not O(edges). *)
let failed_edges t =
  List.sort compare (Array.to_list (Array.sub t.failed_list 0 t.failed_n))

let usable_edge t e = not (edge_failed t e)

let iter_links f t = Array.iteri f t.links

let total_primary_reserved t =
  Array.fold_left (fun acc l -> acc + Link_state.primary_total l) 0 t.links

let total_backup_pool t =
  Array.fold_left (fun acc l -> acc + Link_state.backup_pool l) 0 t.links

let utilisation t =
  let cap = Array.fold_left (fun acc l -> acc + Link_state.capacity l) 0 t.links in
  if cap = 0 then 0.
  else float_of_int (total_primary_reserved t + total_backup_pool t) /. float_of_int cap

let multiplexing_gain t =
  let dedicated =
    Array.fold_left (fun acc l -> acc + Link_state.backup_dedicated_demand l) 0 t.links
  in
  let pooled = total_backup_pool t in
  if pooled = 0 then 1. else float_of_int dedicated /. float_of_int pooled

let check_invariants t = Array.iter Link_state.check_invariant t.links
