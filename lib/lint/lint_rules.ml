open Typedtree

type ctx = {
  source : string;
  modname : string;
  lib_prefix : string;
  enabled : Lint.rule_id -> bool;
  emit : Lint.finding -> unit;
}

(* ------------------------------------------------------------------ *)
(* Shared helpers.                                                     *)

let strip_stdlib name =
  let prefix = "Stdlib." in
  let n = String.length prefix in
  if String.length name > n && String.sub name 0 n = prefix then
    String.sub name n (String.length name - n)
  else name

let ident_name path = strip_stdlib (Path.name path)

(* A [Pdot] rooted at another unit (persistent) or the stdlib is already
   global; one rooted at a module of this unit, [Config.default] inside
   drcomm.ml, gets the unit's name in front, as its definition does. *)
let global_name ~modname path =
  match path with
  | Path.Pident id -> Some (modname ^ "." ^ Ident.name id)
  | Path.Pdot _ ->
    let root = Path.head path in
    if Ident.persistent root || Ident.is_predef root then Some (ident_name path)
    else
      let unit_name =
        match String.index_opt modname '.' with
        | Some i -> String.sub modname 0 i
        | None -> modname
      in
      Some (unit_name ^ "." ^ ident_name path)
  | _ -> None

let is_float ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, [], _) -> Path.same p Predef.path_float
  | _ -> false

let first_arg ty =
  match Types.get_desc ty with
  | Types.Tarrow (_, a, _, _) -> Some a
  | _ -> None

let emit_at ctx rule (loc : Location.t) message =
  let pos = loc.Location.loc_start in
  ctx.emit
    {
      Lint.rule;
      file = ctx.source;
      line = pos.Lexing.pos_lnum;
      col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol;
      message;
    }

let in_lib ctx = String.starts_with ~prefix:ctx.lib_prefix ctx.source

(* ------------------------------------------------------------------ *)
(* Pattern helpers (GADT-polymorphic over value/computation patterns). *)

let rec is_catch_all : type k. k general_pattern -> bool =
 fun p ->
  match p.pat_desc with
  | Tpat_any -> true
  | Tpat_var _ -> true
  | Tpat_alias (q, _, _) -> is_catch_all q
  | Tpat_or (a, b, _) -> is_catch_all a || is_catch_all b
  | Tpat_value v -> is_catch_all (v :> pattern)
  | _ -> false

let rec has_exception_pat : type k. k general_pattern -> bool =
 fun p ->
  match p.pat_desc with
  | Tpat_exception _ -> true
  | Tpat_or (a, b, _) -> has_exception_pat a || has_exception_pat b
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Rule tables.                                                        *)

let float_cmp_ops = [ "="; "<>"; "compare" ]

(* The closed variants whose silent absorption has already cost a fuzz
   or trace-audit cycle. *)
let protected_variants = [ "Trace.event"; "Op.t" ]

let partial_fns = [ "List.hd"; "List.nth"; "Option.get"; "Hashtbl.find" ]

let print_fns =
  [
    "print_string";
    "print_bytes";
    "print_char";
    "print_int";
    "print_float";
    "print_endline";
    "print_newline";
    "Printf.printf";
    "Format.printf";
    "Format.print_string";
    "Format.print_newline";
  ]

(* Escaping constructs: a handler that ends in one of these is not
   swallowing — it converts or propagates. *)
let escape_fns =
  [
    "raise";
    "raise_notrace";
    "failwith";
    "invalid_arg";
    "exit";
    "Printexc.raise_with_backtrace";
  ]

let escapes_handler rhs =
  let found = ref false in
  let expr sub e =
    (match e.exp_desc with
    | Texp_ident (p, _, _) when List.mem (ident_name p) escape_fns ->
      found := true
    | Texp_assert _ -> found := true
    | _ -> ());
    if not !found then Tast_iterator.default_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it rhs;
  !found

(* The scrutinee's head type constructor as a [Module.type] name, when it
   is one of the protected closed variants. *)
let protected_variant ctx ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) ->
    let name =
      match p with
      | Path.Pident id -> ctx.modname ^ "." ^ Ident.name id
      | _ -> ident_name p
    in
    if List.mem name protected_variants then Some name else None
  | _ -> None

(* ------------------------------------------------------------------ *)
(* The walk.                                                           *)

let check_cases :
    type k. ctx -> variant:string -> k case list -> unit =
 fun ctx ~variant cases ->
  List.iter
    (fun c ->
      if c.c_guard = None && is_catch_all c.c_lhs then
        emit_at ctx Lint.R2 c.c_lhs.pat_loc
          (Printf.sprintf
             "catch-all pattern over closed variant %s silently absorbs \
              future constructors; enumerate the remaining cases"
             variant))
    cases

let check_structure ctx str =
  (* R3 is suppressed inside the body of a [try] (and the scrutinee of a
     [match ... with exception ...]): the surrounding handler is what
     makes the partial call deliberate. *)
  let handler_depth = ref 0 in
  let expr sub e =
    (match e.exp_desc with
    | Texp_ident (path, _, _) ->
      let name = ident_name path in
      if ctx.enabled Lint.R1 && List.mem name float_cmp_ops then (
        match first_arg e.exp_type with
        | Some a when is_float a ->
          emit_at ctx Lint.R1 e.exp_loc
            (Printf.sprintf
               "polymorphic %s instantiated at float; use Float.equal / \
                Float.compare for bit-exact intent or an epsilon helper \
                (Linsolve.approx_eq)"
               (if name = "compare" then "compare" else "( " ^ name ^ " )"))
        | _ -> ());
      if
        ctx.enabled Lint.R3 && in_lib ctx && !handler_depth = 0
        && List.mem name partial_fns
      then
        emit_at ctx Lint.R3 e.exp_loc
          (Printf.sprintf
             "partial function %s outside any exception handler; match on \
              the structure or use the _opt variant"
             name);
      if ctx.enabled Lint.R5 && in_lib ctx && List.mem name print_fns then
        emit_at ctx Lint.R5 e.exp_loc
          (Printf.sprintf
             "%s writes to stdout from library code; emit through Obs or \
              take an out_channel"
             name)
    | Texp_match (scrut, cases, _) when ctx.enabled Lint.R2 -> (
      match protected_variant ctx scrut.exp_type with
      | Some variant -> check_cases ctx ~variant cases
      | None -> ())
    | Texp_function { cases = first :: _ :: _ as cases; _ }
      when ctx.enabled Lint.R2 -> (
      (* Multi-case [function ...] only: a single catch-all case is an
         ordinary [fun x ->] parameter, not a match. *)
      match protected_variant ctx first.c_lhs.pat_type with
      | Some variant -> check_cases ctx ~variant cases
      | None -> ())
    | Texp_try (_, cases) when ctx.enabled Lint.R4 ->
      List.iter
        (fun c ->
          if
            c.c_guard = None && is_catch_all c.c_lhs
            && not (escapes_handler c.c_rhs)
          then
            emit_at ctx Lint.R4 c.c_lhs.pat_loc
              "catch-all exception handler swallows every exception \
               (including Out_of_memory and Stack_overflow); narrow it to \
               the exceptions this site expects or re-raise")
        cases
    | _ -> ());
    match e.exp_desc with
    | Texp_try (body, cases) ->
      incr handler_depth;
      sub.Tast_iterator.expr sub body;
      decr handler_depth;
      List.iter (sub.Tast_iterator.case sub) cases
    | Texp_match (scrut, cases, _)
      when List.exists (fun c -> has_exception_pat c.c_lhs) cases ->
      incr handler_depth;
      sub.Tast_iterator.expr sub scrut;
      decr handler_depth;
      List.iter (sub.Tast_iterator.case sub) cases
    | _ -> Tast_iterator.default_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.structure it str
