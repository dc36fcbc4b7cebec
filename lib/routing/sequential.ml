let candidates_of net (req : Flooding.request) ~candidates =
  let g = Net_state.graph net in
  let usable e = Net_state.usable_edge net e in
  Yen.k_shortest ~usable g ~src:req.Flooding.src ~dst:req.Flooding.dst ~k:candidates
  |> List.filter (fun p -> Paths.hop_count p <= req.Flooding.hop_bound)

let primary_admissible net (req : Flooding.request) path =
  let g = Net_state.graph net in
  List.for_all
    (fun dl ->
      Link_state.admissible_primary (Net_state.link net dl) ~b_min:req.Flooding.floor)
    (Dirlink.of_path g path)

let primary_route net req ~candidates =
  List.find_opt (primary_admissible net req) (candidates_of net req ~candidates)

let backup_admissible net (req : Flooding.request) ~primary_edge_array path =
  let g = Net_state.graph net in
  List.for_all
    (fun dl ->
      Link_state.backup_headroom (Net_state.link net dl) ~b_min:req.Flooding.floor
        ~primary_edges:primary_edge_array ~at_most:0
      >= 0)
    (Dirlink.of_path g path)

let shared_edges ~primary_edges path =
  List.length (List.filter (fun e -> List.mem e primary_edges) path.Paths.edges)

let backup_route ?(banned_edges = []) net req ~candidates ~primary_edges =
  let primary_edge_array = Array.of_list primary_edges in
  let admissible =
    candidates_of net req ~candidates
    |> List.filter (fun p ->
           not (List.exists (fun e -> List.mem e banned_edges) p.Paths.edges))
    |> List.filter (backup_admissible net req ~primary_edge_array)
  in
  match List.find_opt (fun p -> shared_edges ~primary_edges p = 0) admissible with
  | Some _ as found -> found
  | None ->
    (* Maximally disjoint among the candidates — but a backup must still
       protect at least one primary edge. *)
    let protecting =
      List.filter
        (fun p -> shared_edges ~primary_edges p < List.length primary_edges)
        admissible
    in
    (match protecting with
    | [] -> None
    | _ :: _ ->
      let best =
        List.fold_left
          (fun acc p ->
            match acc with
            | None -> Some p
            | Some q ->
              if shared_edges ~primary_edges p < shared_edges ~primary_edges q
              then Some p
              else acc)
          None protecting
      in
      best)

let probe_count net req ~candidates =
  let cands = candidates_of net req ~candidates in
  let rec scan acc = function
    | [] -> acc
    | p :: rest ->
      let acc = acc + Paths.hop_count p in
      if primary_admissible net req p then acc else scan acc rest
  in
  scan 0 cands
