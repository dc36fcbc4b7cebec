type id = int

let count g = 2 * Graph.edge_count g

let of_edge g ~edge ~src =
  let a, b = Graph.endpoints g edge in
  if src = a then 2 * edge
  else if src = b then (2 * edge) + 1
  else invalid_arg "Dirlink.of_edge: node not on edge"

(* [Graph.endpoints] lists the lower node first. *)
let of_step ~src ~dst edge = if src < dst then 2 * edge else (2 * edge) + 1

let edge id = id / 2

let reverse id = id lxor 1

let endpoints g id =
  let a, b = Graph.endpoints g (edge id) in
  if id land 1 = 0 then (a, b) else (b, a)

let of_path g (p : Paths.path) =
  let rec walk nodes edges acc =
    match (nodes, edges) with
    | _ :: [], [] | [], [] -> List.rev acc
    | u :: (_ :: _ as rest), e :: edges' ->
      walk rest edges' (of_edge g ~edge:e ~src:u :: acc)
    | _ -> invalid_arg "Dirlink.of_path: malformed path"
  in
  walk p.nodes p.edges []

let shares_edge l1 l2 =
  let edges1 = List.map edge l1 in
  List.exists (fun d -> List.mem (edge d) edges1) l2
