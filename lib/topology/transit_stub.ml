type spec = {
  transit_domains : int;
  transit_size : int;
  stubs_per_transit_node : int;
  stub_size : int;
}

let spec ~transit_domains ~transit_size ~stubs_per_transit_node ~stub_size () =
  if transit_domains < 1 then invalid_arg "Transit_stub.spec: transit_domains >= 1";
  if transit_size < 1 then invalid_arg "Transit_stub.spec: transit_size >= 1";
  if stubs_per_transit_node < 0 then
    invalid_arg "Transit_stub.spec: stubs_per_transit_node >= 0";
  if stub_size < 1 then invalid_arg "Transit_stub.spec: stub_size >= 1";
  { transit_domains; transit_size; stubs_per_transit_node; stub_size }

let node_count s =
  let transit = s.transit_domains * s.transit_size in
  transit + (transit * s.stubs_per_transit_node * s.stub_size)

type info = {
  graph : Graph.t;
  transit_nodes : int list;
  stub_of_node : int array;
}

(* Probability of each extra intra-domain edge beyond the spanning tree
   that guarantees domain connectivity. *)
let intra_edge_prob = 0.4

(* Connect [members] inside [g]: random spanning tree (each node links to a
   random earlier one), then extra edges with probability
   [intra_edge_prob]. *)
let build_domain rng g members =
  let members = Array.of_list members in
  let n = Array.length members in
  for i = 1 to n - 1 do
    let j = Prng.int rng i in
    ignore (Graph.add_edge g members.(i) members.(j))
  done;
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if
        (not (Graph.mem_edge g members.(i) members.(j)))
        && Prng.float rng 1. < intra_edge_prob
      then ignore (Graph.add_edge g members.(i) members.(j))
    done
  done

let generate rng s =
  let total = node_count s in
  let g = Graph.create total in
  let stub_of_node = Array.make total (-1) in
  let next = ref 0 in
  let fresh () =
    let id = !next in
    incr next;
    id
  in
  (* Transit domains first so transit nodes get the low ids. *)
  let domains =
    Array.init s.transit_domains (fun _ ->
        List.init s.transit_size (fun _ -> fresh ()))
  in
  Array.iter (fun members -> build_domain rng g members) domains;
  (* Join transit domains in a randomised cycle: domain k links to domain
     k+1 through random representative nodes.  A cycle gives the core two
     disjoint inter-domain routes when there are >= 3 domains. *)
  let representatives d = Prng.pick_list rng domains.(d) in
  if s.transit_domains > 1 then
    for d = 0 to s.transit_domains - 1 do
      let d' = (d + 1) mod s.transit_domains in
      if d < d' || s.transit_domains > 2 then begin
        let u = representatives d and v = representatives d' in
        if not (Graph.mem_edge g u v) then ignore (Graph.add_edge g u v)
      end
    done;
  let transit_nodes = Array.to_list domains |> List.concat in
  (* Hang stub domains off every transit node. *)
  let stub_index = ref 0 in
  List.iter
    (fun t ->
      for _ = 1 to s.stubs_per_transit_node do
        let members = List.init s.stub_size (fun _ -> fresh ()) in
        List.iter (fun u -> stub_of_node.(u) <- !stub_index) members;
        incr stub_index;
        build_domain rng g members;
        let gateway = Prng.pick_list rng members in
        ignore (Graph.add_edge g t gateway)
      done)
    transit_nodes;
  assert (!next = total);
  { graph = g; transit_nodes; stub_of_node }

let paper_spec =
  spec ~transit_domains:1 ~transit_size:4 ~stubs_per_transit_node:3 ~stub_size:8 ()
