(** R7/R8/R9 — the interprocedural rules, as clients of
    {!Lint_interproc}.

    {b R7 (cross-domain race)}: a worker closure handed to [Sweep.map],
    [Sweep.open_loop] or [Domain.spawn] must not reference a top-level
    mutable value (ref / array / Hashtbl.t / …), directly or through any
    call chain.  The Obs-layer units and [Sweep] are exempt: they own
    the fork/absorb merge protocol that makes their internal state
    per-domain by construction.  [Atomic.t] values are not mutable in
    R7's sense — they are the sanctioned alternative.

    {b R8 (event-loop hygiene)}: no definition reachable from the
    serving plane's dispatch roots may call a blocking primitive
    ([Unix.read], [Mutex.lock], [Domain.join], …) — the select loop
    blocks only in its own [select].  Unbounded [List]/[Seq] forcing
    traversals are additionally flagged in the root units themselves,
    where per-request work must stay O(1) in the connection count.

    {b R9 (wall-clock taint)}: [Unix.gettimeofday], [Unix.time],
    [Sys.time] and every transitive wrapper are banned outside the clock
    sanctuary ([lib/obs/clock.ml]); elapsed time comes off the monotonic
    [Clock.now]. *)

val default_r8_roots : string list
(** R8's dispatch-path entry points, as [Module.name]. *)

val check :
  emit:(Lint.finding -> unit) ->
  enabled:(Lint.rule_id -> bool) ->
  r8_roots:string list ->
  Lint_interproc.t ->
  unit
(** Run whichever of R7–R9 [enabled] admits over the program database,
    with [r8_roots] as R8's dispatch entry points. *)
