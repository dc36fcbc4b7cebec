(** Crash flight recorder: a bounded ring of the most recent trace
    events.

    The recorder retains the last-N [(time, event)] pairs even when the
    trace sink is off — {!Obs.tracing} reports true whenever a recorder
    is attached, so instrumented call sites keep constructing events and
    {!Obs.event} routes them here.  Nothing is written anywhere until
    {!dump_to_file}: the black box only surfaces on a crash (the
    {!Obs.install}/[Fun.protect] path) or an invariant violation
    ([lib/check]).

    Dumps are plain trace JSONL (each retained event through
    {!Trace.to_json}, prefixed by one [note] line with the drop count),
    so [drqos_cli analyze] and {!Analysis.of_file} replay them
    directly. *)

type t

val disabled : t
(** The shared no-op recorder: {!enabled} is false, {!record} is one
    load and one branch. *)

val create : ?capacity:int -> unit -> t
(** A live recorder retaining the last [capacity] (default 1024)
    events. *)

val enabled : t -> bool

val record : t -> time:float -> Trace.event -> unit
(** Append one event, evicting the oldest when full. *)

val size : t -> int
(** Events currently retained ([<= capacity]). *)

val seen : t -> int
(** Total events ever recorded; [seen - size] were dropped. *)

val events : t -> (float * Trace.event) list
(** Retained events, oldest first. *)

val clear : t -> unit

val dump_to_file : t -> string -> unit
(** Write the black box to a fresh file as trace JSONL: a [note] header
    line ([name = "flight_recorder"], retained/seen/dropped counts)
    followed by the retained events in order. *)

val dump_events : (float * Trace.event) list -> out_channel -> unit
(** The same dump for an event list captured earlier (e.g. a fuzz
    failure's black box after further replays overwrote the recorder). *)
