(** Deterministic parallel map over OCaml 5 domains — the substrate every
    experiment sweep (bench figures, CLI sweeps, replicated runs) fans
    out on.

    The pool evaluates independent points concurrently and returns the
    results {e in submission order}, bit-for-bit identical to a
    sequential run: each point carries its own randomness (the scenario
    seed travels inside the point), workers share no mutable state, and
    each worker records observability into a private {!Obs.fork} of the
    caller's context, merged back into it after all domains join.
    Tracing does not cross domains — worker forks carry no tracer. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the default pool width. *)

val map : ?jobs:int -> ?obs:Obs.t -> (Obs.t -> 'a -> 'b) -> 'a list -> 'b list
(** [map ~jobs ~obs f points] evaluates [f worker_obs point] for every
    point and returns the results in the order the points were given.

    [jobs] (default {!recommended_jobs}) bounds the number of worker
    domains; the pool never spawns more workers than points.  With one
    effective worker the pool degenerates to a plain sequential [List.map]
    in the calling domain — no domain is spawned, and [f] receives [obs]
    itself.  Raises [Invalid_argument] when [jobs < 1].

    [obs] defaults to {!Obs.null}.  Each worker domain receives a
    private {!Obs.fork} of it as [f]'s first argument, and the forks'
    metrics are merged back into [obs] after the join — counters and
    timer counts are exact sums, identical to a sequential run.

    Points are handed to idle workers dynamically (an atomic cursor), so
    uneven point costs balance; determinism is unaffected because results
    are stored by submission index.

    If [f] raises on any point, every domain still finishes its remaining
    points and is joined, worker metrics are still merged, and then the
    exception of the {e lowest-index} failing point is re-raised with its
    backtrace. *)

(** {1 Open-loop load replay}

    Where {!map} evaluates points as fast as the pool allows (closed
    loop), {!open_loop} fires them on a {e schedule}: operation [i] is
    due [arrivals.(i)] seconds after the replay starts, whether or not
    earlier operations have finished.  A slow target therefore builds a
    backlog instead of silently slowing the offered load — the
    coordinated-omission trap an interactive-benchmark harness must
    avoid. *)

type open_loop_report = {
  sent : int;
  wall_s : float;  (** monotonic, start to last completion. *)
  achieved_rps : float;  (** [sent /. wall_s]. *)
  max_lag_s : float;
      (** worst start-time slip behind the schedule across all
          operations — how far the replay fell behind its own clock. *)
}

val open_loop :
  ?jobs:int ->
  ?obs:Obs.t ->
  ?timer:string ->
  ?on_complete:(int -> float -> unit) ->
  arrivals:float array ->
  worker:(int -> 'w) ->
  ?finish:('w -> unit) ->
  (Obs.t -> 'w -> int -> unit) ->
  open_loop_report
(** [open_loop ~arrivals ~worker f] replays the schedule across
    [min jobs (length arrivals)] domains.  Operation [i] belongs to
    worker [i mod workers] (a deterministic round-robin split, so a
    replay against a deterministic target partitions identically at a
    given width); each worker walks its slice in index order, sleeping
    until an operation is due and running the backlog flat-out when it
    is behind.  [arrivals] must be non-decreasing.

    [worker w] builds worker [w]'s private state (e.g. one client
    connection) inside the worker's domain; [finish] (default no-op)
    tears it down there, backlog or no backlog.

    Latency accounting is open-loop: each operation's duration is
    measured from its {e scheduled} due time to its completion (both on
    the monotonic {!Clock}) and observed into the metrics timer named
    [timer] (default ["open_loop.latency"]) of the worker's {!Obs.fork},
    so queueing delay behind a saturated target is charged to the
    operations that queued.  Forks merge back into [obs] after the join
    — read the percentiles off [obs]'s registry with
    {!Metrics.timer_quantile}.

    [on_complete i latency] (default no-op) fires after each operation
    with its global index and that same open-loop latency, {e in the
    worker's domain} — callers recording per-operation data must give
    it domain-safe storage (e.g. a pre-sized array cell per index, as
    the load generator's request-tracing log does).

    Worker exceptions behave as in {!map}: every domain drains its
    slice, forks are merged, then the lowest-worker-index exception is
    re-raised. *)
