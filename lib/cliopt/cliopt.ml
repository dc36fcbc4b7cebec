type spec =
  | Unit of (unit -> unit)
  | Value of (string -> (unit, string) result)

(* Split "--flag=value" at the first '='; only meaningful when the
   prefix names a known spec — an unknown "foo=bar" argument must pass
   through verbatim (fuzz reproducer headers and positional words use
   that shape). *)
let split_eq arg =
  match String.index_opt arg '=' with
  | None -> None
  | Some i ->
    Some (String.sub arg 0 i, String.sub arg (i + 1) (String.length arg - i - 1))

let parse ~specs args =
  (* A [Value] flag given twice is ambiguous — last-one-wins silently
     discards configuration, so it is a parse error.  [Unit] flags are
     idempotent toggles ("--quick --quick") and stay repeatable. *)
  let seen = Hashtbl.create 8 in
  let duplicate flag =
    if Hashtbl.mem seen flag then
      Error (Printf.sprintf "%s given more than once" flag)
    else begin
      Hashtbl.replace seen flag ();
      Ok ()
    end
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | arg :: rest -> (
      match List.assoc_opt arg specs with
      | Some (Unit apply) ->
        apply ();
        go acc rest
      | Some (Value apply) -> (
        match duplicate arg with
        | Error _ as e -> e
        | Ok () -> (
          match rest with
          | [] -> Error (Printf.sprintf "%s requires an argument" arg)
          | v :: rest -> (
            match apply v with Ok () -> go acc rest | Error _ as e -> e)))
      | None -> (
        match split_eq arg with
        | Some (flag, v) -> (
          match List.assoc_opt flag specs with
          | Some (Unit _) ->
            Error (Printf.sprintf "%s does not take an argument" flag)
          | Some (Value apply) -> (
            match duplicate flag with
            | Error _ as e -> e
            | Ok () -> (
              match apply v with Ok () -> go acc rest | Error _ as e -> e))
          | None -> go (arg :: acc) rest)
        | None -> go (arg :: acc) rest))
  in
  go [] args

let parse_kv ~specs pairs =
  let seen = Hashtbl.create 8 in
  let rec go = function
    | [] -> Ok ()
    | (k, v) :: rest -> (
      match List.assoc_opt k specs with
      | None -> Error (Printf.sprintf "unknown key %S" k)
      | Some apply ->
        if Hashtbl.mem seen k then
          Error (Printf.sprintf "key %S given more than once" k)
        else begin
          Hashtbl.replace seen k ();
          match apply v with
          | Ok () -> go rest
          | Error _ as e -> e
        end)
  in
  go pairs

let rec mkdir_p dir =
  if Sys.file_exists dir then
    if Sys.is_directory dir then Ok ()
    else Error (Printf.sprintf "%s exists and is not a directory" dir)
  else
    let parent = Filename.dirname dir in
    Result.bind (if parent = dir then Ok () else mkdir_p parent) (fun () ->
        (* A concurrent creator is fine; anything else is not. *)
        try Ok (Sys.mkdir dir 0o755) with
        | Sys_error _ when Sys.file_exists dir && Sys.is_directory dir -> Ok ()
        | Sys_error msg -> Error ("cannot create directory: " ^ msg))
