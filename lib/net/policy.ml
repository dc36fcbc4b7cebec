type claim = { utility : float; extras_granted : int }

type 'a env = {
  claim : 'a -> claim;
  can_upgrade : 'a -> bool;
  grant : 'a -> unit;
  tie : 'a -> 'a -> int;
}

type t = {
  name : string;
  order : claim -> claim -> int;
  run : 'a. 'a env -> 'a list -> unit;
}

(* The three grant disciplines.  Each sorts with the policy order first
   and the environment's tie-break second, so results are deterministic
   whatever order the candidates arrive in.  Within one run the only
   writes are grants, so a refused candidate stays refused and is
   dropped. *)

let by order env a b =
  match order (env.claim a) (env.claim b) with 0 -> env.tie a b | c -> c

(* One round: grant one increment to each survivor that fits, in
   order, and return those granted, still in order. *)
let[@tail_mod_cons] rec grant_round env = function
  | [] -> []
  | ch :: rest ->
    if env.can_upgrade ch then begin
      env.grant ch;
      ch :: grant_round env rest
    end
    else grant_round env rest

(* One sort: a round lifts every survivor by one extra, which leaves a
   [`Rounds] order as it was, so the survivors stay sorted. *)
let run_rounds order env candidates =
  let rec rounds = function
    | [] -> ()
    | survivors -> rounds (grant_round env survivors)
  in
  rounds (List.sort (by order env) candidates)

let run_exact order env candidates =
  let rec step eligible =
    let eligible = List.filter env.can_upgrade eligible in
    match List.sort (by order env) eligible with
    | [] -> ()
    | best :: _ ->
      env.grant best;
      step eligible
  in
  step candidates

let run_drain order env candidates =
  let ordered = List.sort (by order env) candidates in
  List.iter
    (fun ch ->
      while env.can_upgrade ch do
        env.grant ch
      done)
    ordered

let make ~name ~order ~style =
  match style with
  | `Rounds -> { name; order; run = (fun env cs -> run_rounds order env cs) }
  | `Exact -> { name; order; run = (fun env cs -> run_exact order env cs) }
  | `Drain -> { name; order; run = (fun env cs -> run_drain order env cs) }

let equal_share =
  make ~name:"equal-share"
    ~order:(fun a b -> compare a.extras_granted b.extras_granted)
    ~style:`Rounds

let proportional =
  (* Fewest granted increments per unit of utility first. *)
  make ~name:"proportional"
    ~order:(fun a b ->
      Float.compare
        (float_of_int a.extras_granted /. a.utility)
        (float_of_int b.extras_granted /. b.utility))
    ~style:`Exact

let max_utility =
  make ~name:"max-utility"
    ~order:(fun a b ->
      match Float.compare b.utility a.utility with
      | 0 -> compare a.extras_granted b.extras_granted
      | c -> c)
    ~style:`Drain

let pp ppf t = Format.pp_print_string ppf t.name

let name t = t.name

let equal a b = String.equal a.name b.name

let of_string = function
  | "equal-share" | "equal" -> Some equal_share
  | "proportional" | "coefficient" -> Some proportional
  | "max-utility" | "max" -> Some max_utility
  | _ -> None

let all = [ equal_share; proportional; max_utility ]

let compare_claims t = t.order
