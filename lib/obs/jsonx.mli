(** Minimal JSON documents: construction, compact printing, and a small
    reader.

    Kept dependency-free on purpose (the container bakes no JSON
    library): {!Metrics} snapshots, {!Trace} sinks, and the bench
    manifests all build on this, and the tests round-trip through
    {!of_string}. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering.  NaN renders as [null], infinities
    as the out-of-range literals [1e999] / [-1e999] (which read back as
    infinities). *)

val output : out_channel -> t -> unit

exception Parse_error of string

val max_depth : int
(** 512: the deepest nesting of arrays and objects {!of_string} accepts. *)

val of_string : string -> t
(** Parses one JSON document; raises {!Parse_error} on malformed input,
    trailing garbage, or arrays and objects nested deeper than
    {!max_depth}.  Numbers without [.], [e] or overflow come back as
    [Int], everything else as [Float]. *)

exception Line_error of { line : int; message : string }
(** A malformed line in a JSONL stream; [line] is 1-based. *)

val fold_lines : in_channel -> init:'a -> f:('a -> line:int -> t -> 'a) -> 'a
(** [fold_lines ic ~init ~f] parses the channel as JSON Lines, folding
    [f] over each document in order with its 1-based line number.
    Blank lines are skipped; a malformed line (including a truncated
    final one) raises {!Line_error} carrying its line number.  Streams:
    only one line is held in memory beyond what [f] retains. *)

val member : string -> t -> t option
(** [member key (Obj fields)] is the first binding of [key], [None] for
    non-objects and missing keys. *)

val to_int : t -> int option
val to_float : t -> float option
(** [to_float] accepts both [Float] and [Int]. *)

val to_str : t -> string option
val to_bool : t -> bool option

val to_list : (t -> 'a option) -> t -> 'a list option
(** [to_list conv (List xs)] converts every element through [conv];
    [None] for a non-list or when any element fails. *)

val field : string -> (t -> 'a option) -> t -> ('a, string) result
(** [field key conv doc] reads [key] of the object [doc] through [conv]:
    [Error "missing field \"key\""] when it is absent,
    [Error "field \"key\" has the wrong type"] when [conv] gives
    [None].  The one field reader of the trace and protocol decoders. *)
