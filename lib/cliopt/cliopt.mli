(** One spec-based option parser for every ad-hoc flag table in the repo.

    Three surfaces share it: the bench drivers' shared flags
    ([Exp.parse_args]), the bench sub-command dispatch ([bench/main]),
    and the fuzz reproducers' [# fuzz k=v] headers ([Fuzz.parse_script]).
    A flag either stands alone ([Unit]) or consumes the next argument
    ([Value]); unknown arguments pass through to the caller in order, so
    sub-command words and positional arguments survive the walk.

    Callers keep their exit conventions — [parse] only reports; the
    binary decides that a usage error is exit code 2.  {!mkdir_p}, the
    one recursive directory creation behind every output-directory
    option ([Exp]'s [--out], [drqos_cli]'s [--out] and [--slow-dir]),
    reports the same way. *)

type spec =
  | Unit of (unit -> unit)  (** standalone flag, e.g. [--quick]. *)
  | Value of (string -> (unit, string) result)
      (** flag consuming the next argument, e.g. [--out DIR]; the
          callback validates and applies it. *)

val parse :
  specs:(string * spec) list -> string list -> (string list, string) result
(** Walk the arguments left to right.  Arguments matching a spec are
    applied in order; everything else is returned, in its original
    order.  A [Value] flag accepts both spellings — [--out DIR] and
    [--out=DIR] — but may appear only once: a duplicate is an error
    (silent last-one-wins discards configuration).  [Unit] flags are
    idempotent and stay repeatable; [--flag=v] on a [Unit] spec is an
    error.  An unknown argument containing ['='] passes through
    verbatim.  [Error] also on a [Value] flag with no following
    argument or a callback rejection; flags already applied stay
    applied (the callers exit on error). *)

val parse_kv :
  specs:(string * (string -> (unit, string) result)) list ->
  (string * string) list ->
  (unit, string) result
(** Apply [key = value] pairs (the fuzz reproducer header dialect)
    against a spec table.  Unknown keys, duplicate keys and rejected
    values are errors — a reproducer must not silently lose
    configuration. *)

val mkdir_p : string -> (unit, string) result
(** Create a directory and its missing parents, before any work starts.
    An existing directory is fine; [Error] when a path component is not
    a directory or [Sys.mkdir] fails. *)
