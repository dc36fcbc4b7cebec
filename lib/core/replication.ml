type scheme = Multiple_copy of int | Dispersity of { split : int; redundant : int }

let validate_scheme = function
  | Multiple_copy copies ->
    if copies < 2 then invalid_arg "Replication: multiple-copy needs >= 2 copies"
  | Dispersity { split; redundant } ->
    if split < 1 || redundant < 1 then
      invalid_arg "Replication: dispersity needs split >= 1 and redundant >= 1"

let routes_needed = function
  | Multiple_copy copies -> copies
  | Dispersity { split; redundant } -> split + redundant

let per_route_bandwidth scheme b =
  if b <= 0 then invalid_arg "Replication.per_route_bandwidth: non-positive bandwidth";
  match scheme with
  | Multiple_copy _ -> b
  | Dispersity { split; _ } -> (b + split - 1) / split

let total_bandwidth scheme b = routes_needed scheme * per_route_bandwidth scheme b

type connection_id = int

type connection = { routes : Dirlink.id list list; per_route : Bandwidth.t }

type t = {
  scheme : scheme;
  net : Net_state.t;
  table : (connection_id, connection) Hashtbl.t;
  mutable next_id : int;
}

let create scheme net =
  validate_scheme scheme;
  { scheme; net; table = Hashtbl.create 64; next_id = 0 }

let count t = Hashtbl.length t.table

let routes t id =
  match Hashtbl.find_opt t.table id with
  | Some c -> c.routes
  | None -> raise Not_found

(* An edge is usable for one more route if it is up and both directions
   can still admit the per-route bandwidth beside existing floors and
   pools (active routes are permanent primaries, so the strict admission
   test applies). *)
let edge_admissible t ~per_route e =
  Net_state.usable_edge t.net e
  && Link_state.admissible_primary (Net_state.link t.net (2 * e)) ~b_min:per_route
  && Link_state.admissible_primary (Net_state.link t.net ((2 * e) + 1)) ~b_min:per_route

(* The route length limit, as in [Drcomm.Config.default]. *)
let hop_bound = 16

let admit t ~src ~dst ~bandwidth =
  if bandwidth <= 0 then invalid_arg "Replication.admit: non-positive bandwidth";
  let per_route = per_route_bandwidth t.scheme bandwidth in
  let needed = routes_needed t.scheme in
  let usable = edge_admissible t ~per_route in
  let g = Net_state.graph t.net in
  let paths = Disjoint.paths ~usable g ~src ~dst ~k:needed in
  let within_bound = List.for_all (fun p -> Paths.hop_count p <= hop_bound) paths in
  if List.length paths < needed || not within_bound then `Rejected
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let link_routes = List.map (Dirlink.of_path g) paths in
    (* The per-direction admissibility test above is conservative enough
       that reservation cannot fail: routes are link-disjoint, so no link
       is asked twice. *)
    List.iter
      (fun route ->
        List.iter
          (fun dl ->
            Link_state.reserve_primary (Net_state.link t.net dl) ~channel:id
              ~b_min:per_route)
          route)
      link_routes;
    Hashtbl.replace t.table id { routes = link_routes; per_route };
    `Admitted id
  end

let terminate t id =
  match Hashtbl.find_opt t.table id with
  | None -> raise Not_found
  | Some c ->
    List.iter
      (fun route ->
        List.iter
          (fun dl -> Link_state.release_primary (Net_state.link t.net dl) ~channel:id)
          route)
      c.routes;
    Hashtbl.remove t.table id

let survives_failure t id ~edge =
  match Hashtbl.find_opt t.table id with
  | None -> raise Not_found
  | Some c ->
    let surviving =
      List.length
        (List.filter
           (fun route -> not (List.exists (fun dl -> Dirlink.edge dl = edge) route))
           c.routes)
    in
    (match t.scheme with
    | Multiple_copy _ -> surviving >= 1
    | Dispersity { split; _ } -> surviving >= split)

let total_reserved t =
  Hashtbl.fold
    (fun _ c acc ->
      acc
      + List.fold_left (fun a route -> a + (List.length route * c.per_route)) 0 c.routes)
    t.table 0
