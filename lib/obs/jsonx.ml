type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

(* Floats must stay valid JSON: no "nan"/"inf" literals, and a bare
   integer-looking float keeps a trailing ".0" marker via %.17g's
   shortest round-trippable form when needed. *)
let float_repr x =
  match Float.classify_float x with
  | FP_nan -> "null"
  | FP_infinite -> if x > 0. then "1e999" else "-1e999"
  | _ ->
    let s = Printf.sprintf "%.17g" x in
    let shorter = Printf.sprintf "%.12g" x in
    if Float.equal (float_of_string shorter) x then shorter else s

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float x -> Buffer.add_string buf (float_repr x)
  | String s ->
    Buffer.add_char buf '"';
    escape buf s;
    Buffer.add_char buf '"'
  | List xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        write buf x)
      xs;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_char buf '"';
        escape buf k;
        Buffer.add_string buf "\":";
        write buf v)
      fields;
    Buffer.add_char buf '}'

let to_string t =
  let buf = Buffer.create 256 in
  write buf t;
  Buffer.contents buf

let output oc t = output_string oc (to_string t)

(* ------------------------------------------------------------------ *)
(* Parser: a small recursive-descent reader, enough to round-trip what
   this library writes (and standard JSON in general). *)

exception Parse_error of string

(* The documents the repo itself writes (bench records, metrics
   manifests, heartbeats, protocol replies) nest at most 4 containers
   deep.  Each level costs the recursive reader a few stack frames, so a
   bound keeps a hostile line such as [[[[... from growing the stack
   toward its limit. *)
let max_depth = 512

type cursor = { s : string; mutable pos : int }

let fail cur msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg cur.pos))

let peek cur = if cur.pos < String.length cur.s then Some cur.s.[cur.pos] else None

let advance cur = cur.pos <- cur.pos + 1

let rec skip_ws cur =
  match peek cur with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance cur;
    skip_ws cur
  | _ -> ()

let expect cur c =
  match peek cur with
  | Some c' when c' = c -> advance cur
  | _ -> fail cur (Printf.sprintf "expected %C" c)

let literal cur word value =
  let n = String.length word in
  if cur.pos + n <= String.length cur.s && String.sub cur.s cur.pos n = word then begin
    cur.pos <- cur.pos + n;
    value
  end
  else fail cur (Printf.sprintf "expected %s" word)

let parse_string_body cur =
  let buf = Buffer.create 16 in
  let rec go () =
    match peek cur with
    | None -> fail cur "unterminated string"
    | Some '"' -> advance cur
    | Some '\\' -> (
      advance cur;
      match peek cur with
      | None -> fail cur "unterminated escape"
      | Some c ->
        advance cur;
        (match c with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          if cur.pos + 4 > String.length cur.s then fail cur "truncated \\u escape";
          let hex = String.sub cur.s cur.pos 4 in
          cur.pos <- cur.pos + 4;
          let code =
            try int_of_string ("0x" ^ hex)
            with Failure _ -> fail cur "bad \\u escape"
          in
          (* Only BMP code points below 0x80 map to one byte; others are
             emitted as UTF-8. *)
          if code < 0x80 then Buffer.add_char buf (Char.chr code)
          else if code < 0x800 then begin
            Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
          end
          else begin
            Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
            Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
          end
        | _ -> fail cur "unknown escape");
        go ())
    | Some c ->
      advance cur;
      Buffer.add_char buf c;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number cur =
  let start = cur.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  let rec go () =
    match peek cur with
    | Some c when is_num_char c ->
      advance cur;
      go ()
    | _ -> ()
  in
  go ();
  let text = String.sub cur.s start (cur.pos - start) in
  match int_of_string_opt text with
  | Some i -> Int i
  | None -> (
    match float_of_string_opt text with
    | Some x -> Float x
    | None -> fail cur (Printf.sprintf "bad number %S" text))

(* The depth inside a container opened at [depth], which counts the
   containers already open around it. *)
let enter cur depth =
  if depth >= max_depth then fail cur (Printf.sprintf "nesting deeper than %d" max_depth);
  depth + 1

let rec parse_value cur depth =
  skip_ws cur;
  match peek cur with
  | None -> fail cur "unexpected end of input"
  | Some 'n' -> literal cur "null" Null
  | Some 't' -> literal cur "true" (Bool true)
  | Some 'f' -> literal cur "false" (Bool false)
  | Some '"' ->
    advance cur;
    String (parse_string_body cur)
  | Some '[' ->
    let depth = enter cur depth in
    advance cur;
    skip_ws cur;
    if peek cur = Some ']' then begin
      advance cur;
      List []
    end
    else begin
      let items = ref [ parse_value cur depth ] in
      let rec more () =
        skip_ws cur;
        match peek cur with
        | Some ',' ->
          advance cur;
          items := parse_value cur depth :: !items;
          more ()
        | Some ']' -> advance cur
        | _ -> fail cur "expected ',' or ']'"
      in
      more ();
      List (List.rev !items)
    end
  | Some '{' ->
    let depth = enter cur depth in
    advance cur;
    skip_ws cur;
    if peek cur = Some '}' then begin
      advance cur;
      Obj []
    end
    else begin
      let field () =
        skip_ws cur;
        expect cur '"';
        let k = parse_string_body cur in
        skip_ws cur;
        expect cur ':';
        (k, parse_value cur depth)
      in
      let fields = ref [ field () ] in
      let rec more () =
        skip_ws cur;
        match peek cur with
        | Some ',' ->
          advance cur;
          fields := field () :: !fields;
          more ()
        | Some '}' -> advance cur
        | _ -> fail cur "expected ',' or '}'"
      in
      more ();
      Obj (List.rev !fields)
    end
  | Some c -> if c = '-' || (c >= '0' && c <= '9') then parse_number cur else fail cur (Printf.sprintf "unexpected %C" c)

let of_string s =
  let cur = { s; pos = 0 } in
  let v = parse_value cur 0 in
  skip_ws cur;
  if cur.pos <> String.length s then fail cur "trailing garbage";
  v

(* ------------------------------------------------------------------ *)
(* Line-oriented streaming: one JSON document per line (JSONL).         *)

exception Line_error of { line : int; message : string }

let blank s = String.for_all (function ' ' | '\t' | '\r' -> true | _ -> false) s

let fold_lines ic ~init ~f =
  let rec go acc line =
    match input_line ic with
    | exception End_of_file -> acc
    | text when blank text -> go acc (line + 1)
    | text ->
      let doc =
        try of_string text
        with Parse_error msg -> raise (Line_error { line; message = msg })
      in
      go (f acc ~line doc) (line + 1)
  in
  go init 1

(* ------------------------------------------------------------------ *)
(* Accessors: the trace and protocol decoders read through [field]. *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_int = function Int i -> Some i | _ -> None
let to_float = function Float x -> Some x | Int i -> Some (float_of_int i) | _ -> None
let to_str = function String s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None

let to_list conv = function
  | List xs ->
    let rec go acc = function
      | [] -> Some (List.rev acc)
      | x :: rest -> ( match conv x with Some y -> go (y :: acc) rest | None -> None)
    in
    go [] xs
  | _ -> None

let field key conv doc =
  match member key doc with
  | None -> Error (Printf.sprintf "missing field %S" key)
  | Some v -> (
    match conv v with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "field %S has the wrong type" key))
