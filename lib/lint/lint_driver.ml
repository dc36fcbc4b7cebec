type config = {
  roots : string list;
  rules : Lint.rule_id list;
  lib_prefix : string;
  r8_roots : string list;
}

let default_config ~roots =
  {
    roots;
    rules = Lint.all_rules;
    lib_prefix = "lib/";
    r8_roots = Lint_flow.default_r8_roots;
  }

(* ------------------------------------------------------------------ *)
(* Input discovery.                                                    *)

let is_cmt path = Filename.check_suffix path ".cmt"

let rec walk acc path =
  if Sys.is_directory path then
    Array.fold_left
      (fun acc name -> walk acc (Filename.concat path name))
      acc
      (let names = Sys.readdir path in
       Array.sort String.compare names;
       names)
  else if is_cmt path then path :: acc
  else acc

(* Each root with its [.cmt] files in sorted walk order; every root is
   checked before any file is read. *)
let find_cmts roots =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | root :: rest ->
      if not (Sys.file_exists root) then
        Error (Printf.sprintf "no such file or directory: %s" root)
      else if (not (Sys.is_directory root)) && not (is_cmt root) then
        Error (Printf.sprintf "not a .cmt file or directory: %s" root)
      else go ((root, List.rev (walk [] root)) :: acc) rest
  in
  go [] roots

(* ------------------------------------------------------------------ *)
(* Loading.                                                            *)

let load_unit path =
  match Cmt_format.read_cmt path with
  | exception Cmt_format.Error _ ->
    Error (Printf.sprintf "%s: not a typedtree (wrong compiler version?)" path)
  | exception Cmi_format.Error _ ->
    Error (Printf.sprintf "%s: bad magic number (stale build artefact?)" path)
  | exception Sys_error msg -> Error msg
  | exception (Failure msg | Invalid_argument msg) ->
    Error (Printf.sprintf "%s: %s" path msg)
  | infos -> (
    match (infos.Cmt_format.cmt_annots, infos.Cmt_format.cmt_sourcefile) with
    | Cmt_format.Implementation structure, Some source ->
      Ok
        (Some
           {
             Lint_interproc.u_source = source;
             u_modname = infos.Cmt_format.cmt_modname;
             u_structure = structure;
           })
    | _ -> Ok None (* interfaces, packs, partial saves: nothing to lint *))

(* ------------------------------------------------------------------ *)
(* Running.                                                            *)

let syntactic = function
  | Lint.R1 | Lint.R2 | Lint.R3 | Lint.R4 | Lint.R5 -> true
  | Lint.R7 | Lint.R8 | Lint.R9 -> false

let run config =
  let findings = ref [] in
  let emit f = findings := f :: !findings in
  let enabled r = List.mem r config.rules in
  (* R1–R5 walk the typedtree; R7–R9 need only the summary. *)
  let need_tree = List.exists syntactic config.rules in
  let visit (u : Lint_interproc.unit_info) =
    if need_tree then
      Lint_rules.check_structure
        {
          Lint_rules.source = u.u_source;
          modname = u.u_modname;
          lib_prefix = config.lib_prefix;
          enabled;
          emit;
        }
        u.u_structure;
    Lint_interproc.summarize u
  in
  (* Summaries accumulate in reverse; [n] counts the current root's. *)
  let rec load acc n = function
    | [] -> Ok (acc, n)
    | path :: rest -> (
      match load_unit path with
      | Error _ as e -> e
      | Ok None -> load acc n rest
      | Ok (Some u) -> load (visit u :: acc) (n + 1) rest)
  in
  let rec load_roots acc = function
    | [] -> Ok (List.rev acc)
    | (root, paths) :: rest -> (
      match load acc 0 paths with
      | Error _ as e -> e
      | Ok (_, 0) ->
        Error
          (Printf.sprintf
             "%s: no implementation .cmt (build it with `dune build @check`)"
             root)
      | Ok (acc, _) -> load_roots acc rest)
  in
  match Result.bind (find_cmts config.roots) (load_roots []) with
  | Error _ as e -> e
  | Ok summaries ->
    Lint_flow.check ~emit ~enabled ~r8_roots:config.r8_roots
      (Lint_interproc.build summaries);
    Ok (List.sort_uniq Lint.compare_finding !findings)

(* ------------------------------------------------------------------ *)
(* Reports.                                                            *)

let report_json ~findings ~suppressed ~stale =
  Jsonx.Obj
    [
      ("findings", Jsonx.List (List.map Lint.finding_to_json findings));
      ("suppressed", Jsonx.Int suppressed);
      ( "stale_baseline",
        Jsonx.List (List.map Lint_baseline.entry_to_json stale) );
      ("clean", Jsonx.Bool (findings = [] && stale = []));
    ]

(* GitHub workflow-command escaping: %, CR and LF in the message;
   additionally , and : in property values. *)
let github_escape ~property s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '%' -> Buffer.add_string b "%25"
      | '\r' -> Buffer.add_string b "%0D"
      | '\n' -> Buffer.add_string b "%0A"
      | ',' when property -> Buffer.add_string b "%2C"
      | ':' when property -> Buffer.add_string b "%3A"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let github_annotation (f : Lint.finding) =
  let level =
    match Lint.severity f.rule with
    | Lint.Error -> "error"
    | Lint.Warning -> "warning"
  in
  Printf.sprintf "::%s file=%s,line=%d,col=%d,title=%s::%s: %s" level
    (github_escape ~property:true f.file)
    f.line f.col
    (github_escape ~property:true (Lint.rule_name f.rule))
    (Lint.rule_name f.rule)
    (github_escape ~property:false f.message)
