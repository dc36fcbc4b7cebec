(** Crash flight recorder: a bounded ring of the most recent trace
    events.

    The recorder is a stage in a trace sink chain: {!sink} records each
    event in the ring and forwards it to the next sink, which may be
    {!Trace.null_sink} when no trace output is wanted.  Nothing is
    written anywhere until a dump: the black box only surfaces on a
    crash ({!dump_on_raise}), a slow request (the daemon's
    [--slow-dir]) or an invariant violation ([lib/check]).

    Dumps are plain trace JSONL (each retained event through
    {!Trace.to_json}, prefixed by one [note] line with the drop count),
    so [drqos_cli analyze] and {!Analysis.of_file} replay them
    directly. *)

type t

val create : ?capacity:int -> unit -> t
(** A recorder retaining the last [capacity] (default 1024) events. *)

val sink : t -> Trace.sink -> Trace.sink
(** [sink ring inner] records each event in [ring], evicting the oldest
    when full, then forwards it to [inner]; closing it closes [inner]. *)

val size : t -> int
(** Events currently retained ([<= capacity]). *)

val seen : t -> int
(** Total events ever recorded; [seen - size] were dropped. *)

val events : t -> (float * Trace.event) list
(** Retained events, oldest first. *)

val dump_to_file : t -> string -> unit
(** Write the black box to a fresh file as trace JSONL: a [note] header
    line ([name = "flight_recorder"], retained/seen/dropped counts)
    followed by the retained events in order. *)

val dump_events : (float * Trace.event) list -> out_channel -> unit
(** The same dump for an event list captured earlier (e.g. a fuzz
    failure's black box after further replays overwrote the recorder). *)

val dump_on_raise : t -> string -> (unit -> 'a) -> 'a
(** [dump_on_raise ring path f] runs [f].  If it raises, a non-empty
    ring is dumped to [path] (reported on stderr) before the exception
    is re-raised with its backtrace; on success nothing is written.  A
    dump that cannot be written is skipped. *)
