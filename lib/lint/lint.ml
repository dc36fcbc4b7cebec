type rule_id = R1 | R2 | R3 | R4 | R5 | R7 | R8 | R9

type severity = Error | Warning

let all_rules = [ R1; R2; R3; R4; R5; R7; R8; R9 ]

let rule_name = function
  | R1 -> "R1"
  | R2 -> "R2"
  | R3 -> "R3"
  | R4 -> "R4"
  | R5 -> "R5"
  | R7 -> "R7"
  | R8 -> "R8"
  | R9 -> "R9"

let rule_of_name = function
  | "R1" -> Some R1
  | "R2" -> Some R2
  | "R3" -> Some R3
  | "R4" -> Some R4
  | "R5" -> Some R5
  | "R7" -> Some R7
  | "R8" -> Some R8
  | "R9" -> Some R9
  | _ -> None

let severity = function
  | R1 | R2 | R4 | R7 | R8 | R9 -> Error
  | R3 | R5 -> Warning

let describe = function
  | R1 ->
    "float equality: =, <> or polymorphic compare instantiated at float; use \
     Float.equal/Float.compare (bit-exact intent) or Linalg.approx_eq"
  | R2 ->
    "catch-all _ pattern over a closed project variant (Trace.event, Op.t, \
     ...) that would silently absorb future constructors"
  | R3 ->
    "partial stdlib function (List.hd, List.nth, Option.get, Hashtbl.find) in \
     library code outside any exception handler"
  | R4 -> "exception-swallowing `try ... with _ ->` that does not re-raise"
  | R5 ->
    "direct stdout printing (print_*, Printf.printf, Format.printf) from \
     library code; route output through Obs or take an out_channel"
  | R7 ->
    "cross-domain race: a top-level mutable value (ref, Hashtbl, Buffer, \
     array, mutable record) reachable — directly or through any call chain \
     — from a worker passed to Sweep.map / Sweep.open_loop / Domain.spawn \
     without going through the Obs fork/absorb merge protocol"
  | R8 ->
    "event-loop hygiene: a transitively-blocking call (Unix.select/read/\
     write/sleepf, Domain.join, ...) or an unbounded List/Seq traversal \
     reachable from the serving plane's per-connection dispatch path"
  | R9 ->
    "wall-clock taint: Unix.gettimeofday / Unix.time / Sys.time, or any \
     function transitively built on them, outside lib/obs/clock.ml; \
     durations come off the monotonic Clock, timestamps off Clock.wall_s"

type finding = {
  rule : rule_id;
  file : string;
  line : int;
  col : int;
  message : string;
}

let rule_index = function
  | R1 -> 1
  | R2 -> 2
  | R3 -> 3
  | R4 -> 4
  | R5 -> 5
  | R7 -> 7
  | R8 -> 8
  | R9 -> 9

let compare_finding a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c
      else
        let c = Int.compare (rule_index a.rule) (rule_index b.rule) in
        if c <> 0 then c else String.compare a.message b.message

let severity_name = function Error -> "error" | Warning -> "warning"

let finding_to_string f =
  Printf.sprintf "%s:%d:%d: [%s/%s] %s" f.file f.line f.col (rule_name f.rule)
    (severity_name (severity f.rule))
    f.message

let finding_to_json f =
  Jsonx.Obj
    [
      ("rule", Jsonx.String (rule_name f.rule));
      ("severity", Jsonx.String (severity_name (severity f.rule)));
      ("file", Jsonx.String f.file);
      ("line", Jsonx.Int f.line);
      ("col", Jsonx.Int f.col);
      ("message", Jsonx.String f.message);
    ]
