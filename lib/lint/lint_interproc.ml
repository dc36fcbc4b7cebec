open Typedtree
module SS = Set.Make (String)

type unit_info = {
  u_source : string;
  u_modname : string;
  u_structure : Typedtree.structure;
}

(* ------------------------------------------------------------------ *)
(* The program database.  Everything below is plain data — no typedtree
   escapes [summarize] — so the fix-points are list walks over names. *)

type pos = { line : int; col : int }

type use = { u_name : string; u_pos : pos }

type def = {
  d_name : string;  (* "Module.value", nested modules dotted in *)
  d_pos : pos;
  d_refs : use list;  (* globals referenced, first occurrence per name *)
  d_blocking : use list;  (* direct uses of blocking primitives *)
  d_wall : use list;  (* direct wall-clock reads *)
  d_traversals : use list;  (* unbounded List/Seq traversal calls *)
  d_mutable : string option;  (* Some kind when the binding holds mutable state *)
}

type spawn = {
  sp_kind : string;  (* "Sweep.map" | "Sweep.open_loop" | "Domain.spawn" *)
  sp_pos : pos;
  sp_worker : use list;  (* every global referenced inside the worker arg(s) *)
}

type summary = {
  s_source : string;
  s_modname : string;
  s_defs : def list;
  s_spawns : spawn list;
}

type t = {
  units : summary list;
  def_tbl : (string, def * summary) Hashtbl.t;
}

(* ------------------------------------------------------------------ *)
(* Effect tables, baked into the summaries. *)

let blocking_prims =
  SS.of_list
    [
      "Unix.select";
      "Unix.read";
      "Unix.write";
      "Unix.write_substring";
      "Unix.single_write";
      "Unix.single_write_substring";
      "Unix.sleep";
      "Unix.sleepf";
      "Unix.accept";
      "Unix.connect";
      "Unix.recv";
      "Unix.recvfrom";
      "Unix.send";
      "Unix.send_substring";
      "Unix.sendto";
      "Unix.wait";
      "Unix.waitpid";
      "Unix.system";
      "Domain.join";
      "Thread.join";
      "Thread.delay";
      "Mutex.lock";
      "Condition.wait";
      "input_line";
      "input";
      "really_input";
      "really_input_string";
      "read_line";
      "read_int";
      "read_float";
    ]

let wall_prims = SS.of_list [ "Unix.gettimeofday"; "Unix.time"; "Sys.time" ]

(* Strict traversals only: [Seq.map] and friends are lazy O(1), so the
   Seq entries are the forcing combinators. *)
let traversal_prims =
  SS.of_list
    [
      "List.iter";
      "List.iteri";
      "List.iter2";
      "List.map";
      "List.mapi";
      "List.map2";
      "List.rev_map";
      "List.filter";
      "List.filter_map";
      "List.concat_map";
      "List.fold_left";
      "List.fold_right";
      "List.sort";
      "List.stable_sort";
      "List.sort_uniq";
      "List.length";
      "List.mem";
      "List.memq";
      "List.assoc";
      "List.assoc_opt";
      "List.find";
      "List.find_opt";
      "List.find_map";
      "List.partition";
      "List.for_all";
      "List.exists";
      "Seq.iter";
      "Seq.iteri";
      "Seq.fold_left";
      "Seq.length";
      "Seq.for_all";
      "Seq.exists";
      "Seq.find";
    ]

(* Head type constructors whose values are shared mutable state.  Atomic
   and Domain.DLS are deliberately absent: they are the sanctioned
   cross-domain primitives. *)
let mutable_type_heads =
  SS.of_list
    [ "ref"; "array"; "bytes"; "Hashtbl.t"; "Buffer.t"; "Queue.t"; "Stack.t" ]

(* Spawn points and which argument carries the worker closure. *)
let spawn_specs =
  [
    ("Sweep.map", `First_nolabel);
    ("Domain.spawn", `First_nolabel);
    ("Sweep.open_loop", `All_args);
  ]

(* ------------------------------------------------------------------ *)
(* Summarising one unit: a single typed-AST pass.                      *)

let pos_of (loc : Location.t) =
  let p = loc.Location.loc_start in
  { line = p.Lexing.pos_lnum; col = p.Lexing.pos_cnum - p.Lexing.pos_bol }

let rec pattern_vars : type k. k general_pattern -> string list =
 fun p ->
  match p.pat_desc with
  | Tpat_var (id, _) -> [ Ident.name id ]
  | Tpat_alias (q, id, _) -> Ident.name id :: pattern_vars q
  | Tpat_tuple ps -> List.concat_map pattern_vars ps
  | _ -> []

(* The binding itself holds mutable state when its head type constructor
   is a known mutable container, or the right-hand side is a record
   literal with a mutable field / an array literal.  Functions (arrow
   heads) never qualify: [let f () = ref 0] makes a fresh ref per call. *)
let mutable_kind e =
  let by_type =
    match Types.get_desc e.exp_type with
    | Types.Tconstr (p, _, _) ->
      let name = Lint_rules.ident_name p in
      if SS.mem name mutable_type_heads then Some name else None
    | _ -> None
  in
  match by_type with
  | Some _ as k -> k
  | None -> (
    match e.exp_desc with
    | Texp_array _ -> Some "array"
    | Texp_record { fields; _ } ->
      if
        Array.exists
          (fun (lbl, _) -> lbl.Types.lbl_mut = Asttypes.Mutable)
          fields
      then Some "mutable record"
      else None
    | _ -> None)

(* Collect every global referenced under [e] (all occurrences, in
   traversal order). *)
let refs_under ~modname e =
  let acc = ref [] in
  let expr sub e =
    (match e.exp_desc with
    | Texp_ident (path, _, _) -> (
      match Lint_rules.global_name ~modname path with
      | Some g -> acc := { u_name = g; u_pos = pos_of e.exp_loc } :: !acc
      | None -> ())
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it e;
  List.rev !acc

type collect = {
  mutable c_refs : use list;  (* reversed; deduped on close *)
  mutable c_seen : SS.t;
  mutable c_blocking : use list;
  mutable c_wall : use list;
  mutable c_traversals : use list;
}

let new_collect () =
  {
    c_refs = [];
    c_seen = SS.empty;
    c_blocking = [];
    c_wall = [];
    c_traversals = [];
  }

(* Walk one definition body, filling [c] and appending any spawn sites
   found under it to [spawns]. *)
let scan_body ~modname ~spawns c body =
  let note path loc =
    match Lint_rules.global_name ~modname path with
    | None -> ()
    | Some g ->
      let u = { u_name = g; u_pos = pos_of loc } in
      if not (SS.mem g c.c_seen) then begin
        c.c_seen <- SS.add g c.c_seen;
        c.c_refs <- u :: c.c_refs
      end;
      if SS.mem g blocking_prims then c.c_blocking <- u :: c.c_blocking;
      if SS.mem g wall_prims then c.c_wall <- u :: c.c_wall;
      if SS.mem g traversal_prims then c.c_traversals <- u :: c.c_traversals
  in
  let expr sub e =
    (match e.exp_desc with
    | Texp_ident (path, _, _) -> note path e.exp_loc
    (* [let*] and each [and*] call their operator. *)
    | Texp_letop { let_; ands; _ } ->
      List.iter (fun bop -> note bop.bop_op_path bop.bop_op_name.loc) (let_ :: ands)
    | Texp_apply (f, args) -> (
      match f.exp_desc with
      | Texp_ident (path, _, _) -> (
        match Lint_rules.global_name ~modname path with
        | None -> ()
        | Some g -> (
          match List.assoc_opt g spawn_specs with
          | None -> ()
          | Some which ->
            let worker_exprs =
              match which with
              | `First_nolabel -> (
                match
                  List.find_map
                    (fun (label, arg) ->
                      match (label, arg) with
                      | Asttypes.Nolabel, Some w -> Some w
                      | _ -> None)
                    args
                with
                | Some w -> [ w ]
                | None -> [])
              | `All_args -> List.filter_map snd args
            in
            let worker =
              List.concat_map (refs_under ~modname) worker_exprs
            in
            spawns :=
              { sp_kind = g; sp_pos = pos_of e.exp_loc; sp_worker = worker }
              :: !spawns))
      | _ -> ())
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it body

let close_def ~name ~pos (c : collect) ~mutable_ =
  {
    d_name = name;
    d_pos = pos;
    d_refs = List.rev c.c_refs;
    d_blocking = List.rev c.c_blocking;
    d_wall = List.rev c.c_wall;
    d_traversals = List.rev c.c_traversals;
    d_mutable = mutable_;
  }

let summarize u =
  let defs = ref [] in
  let spawns = ref [] in
  (* [anon] gathers structure-level code bound to no name (let () = …,
     toplevel evals): it participates in the fix-points as a caller and
     its direct effects are still reportable. *)
  let rec walk_structure ~modname str =
    let anon = new_collect () in
    let anon_pos = ref { line = 1; col = 0 } in
    let anon_used = ref false in
    List.iter
      (fun item ->
        match item.str_desc with
        | Tstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              match pattern_vars vb.vb_pat with
              | [] ->
                if not !anon_used then begin
                  anon_used := true;
                  anon_pos := pos_of vb.vb_loc
                end;
                scan_body ~modname ~spawns anon vb.vb_expr
              | vars ->
                let c = new_collect () in
                scan_body ~modname ~spawns c vb.vb_expr;
                let mutable_ = mutable_kind vb.vb_expr in
                List.iter
                  (fun v ->
                    defs :=
                      close_def
                        ~name:(modname ^ "." ^ v)
                        ~pos:(pos_of vb.vb_loc) c ~mutable_
                      :: !defs)
                  vars)
            vbs
        | Tstr_eval (e, _) ->
          if not !anon_used then begin
            anon_used := true;
            anon_pos := pos_of item.str_loc
          end;
          scan_body ~modname ~spawns anon e
        | Tstr_module mb -> (
          match (mb.mb_id, mb.mb_expr.mod_desc) with
          | Some id, Tmod_structure inner ->
            walk_structure ~modname:(modname ^ "." ^ Ident.name id) inner
          | _ -> () (* functors, aliases, packs: out of scope *))
        | _ -> ())
      str.str_items;
    if !anon_used then
      defs :=
        close_def ~name:(modname ^ ".(toplevel)") ~pos:!anon_pos anon
          ~mutable_:None
        :: !defs
  in
  walk_structure ~modname:u.u_modname u.u_structure;
  {
    s_source = u.u_source;
    s_modname = u.u_modname;
    s_defs = List.rev !defs;
    s_spawns = List.rev !spawns;
  }

(* ------------------------------------------------------------------ *)
(* Database + fix-points.                                              *)

let build units =
  let def_tbl = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      List.iter
        (fun d ->
          (* First binding wins on (pathological) duplicate names; the
             driver walks units in sorted order so this is stable. *)
          if not (Hashtbl.mem def_tbl d.d_name) then
            Hashtbl.add def_tbl d.d_name (d, s))
        s.s_defs)
    units;
  { units; def_tbl }

let units t = t.units
let find_def t name = Hashtbl.find_opt t.def_tbl name

(* Least set T of definition names such that a def lands in T exactly
   when [stop] does not hold for it and its body references a name in
   [seeds] or in T.  The classic backward (callee-to-caller) taint
   closure; [stop] is the sanitizer hook. *)
let transitive t ~seeds ?(stop = fun _ _ -> false) () =
  let tainted = ref SS.empty in
  let hot g = SS.mem g seeds || SS.mem g !tainted in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun s ->
        List.iter
          (fun d ->
            if
              (not (SS.mem d.d_name !tainted))
              && (not (stop s d))
              && List.exists (fun u -> hot u.u_name) d.d_refs
            then begin
              tainted := SS.add d.d_name !tainted;
              changed := true
            end)
          s.s_defs)
      t.units
  done;
  !tainted

(* Shortest reference chain [name; …; seed] through tainted defs, for
   finding messages.  BFS over recorded reference order, so the chain is
   deterministic for a given database. *)
let witness t ~seeds ~tainted name =
  if SS.mem name seeds then Some [ name ]
  else if not (SS.mem name tainted) then None
  else begin
    let parent = Hashtbl.create 64 in
    let queue = Queue.create () in
    Queue.add name queue;
    Hashtbl.replace parent name None;
    let hit = ref None in
    while !hit = None && not (Queue.is_empty queue) do
      let cur = Queue.take queue in
      match find_def t cur with
      | None -> ()
      | Some (d, _) ->
        List.iter
          (fun u ->
            if !hit = None && not (Hashtbl.mem parent u.u_name) then
              if SS.mem u.u_name seeds then begin
                Hashtbl.replace parent u.u_name (Some cur);
                hit := Some u.u_name
              end
              else if SS.mem u.u_name tainted then begin
                Hashtbl.replace parent u.u_name (Some cur);
                Queue.add u.u_name queue
              end)
          d.d_refs
    done;
    match !hit with
    | None -> None
    | Some seed ->
      let rec unwind acc n =
        match Hashtbl.find_opt parent n with
        | Some (Some p) -> unwind (n :: acc) p
        | _ -> n :: acc
      in
      Some (unwind [] seed)
  end

(* Forward closure over the call graph: every definition reachable from
   [roots] through recorded references (roots included when they are
   defs). *)
let reachable t ~roots =
  let seen = ref SS.empty in
  let queue = Queue.create () in
  SS.iter
    (fun r ->
      if Hashtbl.mem t.def_tbl r then begin
        seen := SS.add r !seen;
        Queue.add r queue
      end)
    roots;
  while not (Queue.is_empty queue) do
    let cur = Queue.take queue in
    match find_def t cur with
    | None -> ()
    | Some (d, _) ->
      List.iter
        (fun u ->
          if (not (SS.mem u.u_name !seen)) && Hashtbl.mem t.def_tbl u.u_name
          then begin
            seen := SS.add u.u_name !seen;
            Queue.add u.u_name queue
          end)
        d.d_refs
  done;
  !seen

(* Shortest call path [root; …; name] for R8 messages. *)
let path_from t ~roots name =
  let parent = Hashtbl.create 64 in
  let queue = Queue.create () in
  SS.iter
    (fun r ->
      if Hashtbl.mem t.def_tbl r && not (Hashtbl.mem parent r) then begin
        Hashtbl.replace parent r None;
        Queue.add r queue
      end)
    roots;
  let found = ref (SS.mem name roots && Hashtbl.mem t.def_tbl name) in
  while (not !found) && not (Queue.is_empty queue) do
    let cur = Queue.take queue in
    if cur = name then found := true
    else
      match find_def t cur with
      | None -> ()
      | Some (d, _) ->
        List.iter
          (fun u ->
            if
              Hashtbl.mem t.def_tbl u.u_name
              && not (Hashtbl.mem parent u.u_name)
            then begin
              Hashtbl.replace parent u.u_name (Some cur);
              Queue.add u.u_name queue
            end)
          d.d_refs
  done;
  if not (Hashtbl.mem parent name) then None
  else begin
    let rec unwind acc n =
      match Hashtbl.find_opt parent n with
      | Some (Some p) -> unwind (n :: acc) p
      | _ -> n :: acc
    in
    Some (unwind [] name)
  end
