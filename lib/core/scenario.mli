(** End-to-end experiment runner: build a topology, load it with
    DR-connections, churn it in steady state while measuring, then solve
    the Markov model from the measured parameters — the full §4 pipeline
    (simulation and analysis sides) in one call.

    Rate conventions: [lambda], [mu] and [gamma] are {e network-wide}
    event rates (a new request, a termination of one random connection, a
    failure of one random working edge); each failed edge is repaired at
    rate 0.01 on its own.  This is the only reading under
    which the paper's Fig. 4 premise "the link failure rate is too small
    compared to the arrival rate" holds numerically, and it matches the
    model's use of [gamma] side-by-side with [lambda]. *)

type topology =
  | Waxman of Waxman.spec
  | Transit_stub of Transit_stub.spec
  | Fixed of Graph.t

val build_graph : Prng.t -> topology -> Graph.t
(** Generate the topology from [rng]; a [Fixed] graph is returned as is. *)

type config = {
  topology : topology;
  capacity : Bandwidth.t;
  multiplexing : bool;
  qos : Qos.t;
  service : Drcomm.Config.t;
      (** policy, route search, backups and restoration of the DR
          service ({!Drcomm.Config.make}). *)
  offered : int;  (** connections whose set-up is attempted (load phase). *)
  lambda : float;
  mu : float;
  gamma : float;
  warmup_events : int;  (** churn events discarded before measuring. *)
  churn_events : int;  (** measured churn events. *)
  seed : int;
}

val default : config
(** The paper's Fig. 2 baseline: 100-node calibrated Waxman, 10 Mbps
    links, QoS 100–500 Kbps step 50 (9 levels), the baseline service
    {!Drcomm.Config.default} (equal-share policy, one required backup),
    [lambda = mu = 0.001], no failures, 3000 offered connections,
    500 warmup + 3000 measured events, seed 1. *)

type result = {
  config : config;
  graph : Graph.t;
  offered : int;
  carried_initial : int;  (** connections alive after the load phase. *)
  carried_final : int;
  rejected_load : int;  (** load-phase rejections (Table 1's Tier effect). *)
  rejected_churn : int;
  dropped : int;  (** connections lost to failures. *)
  failures_injected : int;
  recovered_by_backup : int;  (** victims whose backup took over. *)
  restored_from_scratch : int;  (** victims saved by reactive restoration. *)
  sim_avg_bandwidth : float;
      (** time-weighted mean over the measured churn window of
          (total reserved bandwidth / live channels) — the paper's
          simulation curve. *)
  sim_avg_level : float;
  model_avg_bandwidth : float;
      (** the Markov chain's prediction from measured parameters — the
          paper's analytic curve.  When the measured chain is degenerate
          (no off-diagonal transitions observed — uncontended network),
          this is the regularised solution, which converges to [b_max]. *)
  ideal_avg_bandwidth : float;  (** the paper's ideal reference line. *)
  avg_hops : float;  (** mean primary path length of carried channels. *)
  estimator : Estimator.t;
  channel_bandwidth_dist : float array;
      (** stationary level distribution measured from simulation
          (time-weighted share of channel-time spent at each level). *)
}

val run : ?obs:Obs.t -> ?snapshot:Snapshot.t -> config -> result
(** Deterministic in [config] (all randomness from [seed]).

    [obs] (default {!Obs.null}) observes the whole run: phases
    [load], [warmup], [measure] and [solve] are timed and traced, churn
    events are counted under [scenario.churn_*], and the context is
    threaded into the {!Drcomm} service, the {!Engine} (whose clock
    drives the trace timestamps) and the chain's solve (see
    {!Ctmc.stationary}).  Observability never perturbs the simulation
    itself.

    [snapshot] attaches a telemetry emitter to the churn-phase engine:
    its event-time cadence fires on deterministic simulation-time
    boundaries (see {!Engine.on_heartbeat}) reading live/level counts,
    hottest links and counter deltas; its optional
    wall-clock cadence adds throughput/GC heartbeats.  The hottest links
    are the run's exact per-link churn counts ({!Drcomm.hot_links}). *)

(** Aggregate over independent replications (different seeds — fresh
    topology instance and workload each). *)
type summary = {
  runs : int;
  sim_mean : float;
  sim_ci : float * float;  (** 95% normal-approximation interval. *)
  model_mean : float;
  model_ci : float * float;
  carried_mean : float;
  dropped_total : int;
}

val run_replications :
  ?seeds:int list -> ?obs:Obs.t -> ?jobs:int -> config -> result list * summary
(** Replicates [config] once per seed (default seeds 1..5; the config's
    own seed is ignored) and returns the per-seed results, in seed-list
    order, alongside their aggregate.  Replications run through
    {!Sweep.map}: [jobs] (default [Sweep.recommended_jobs ()]) bounds
    the worker domains, [obs] (default {!Obs.null}) receives every
    worker's merged metrics, and the results are bit-for-bit identical
    to a sequential run.  Raises [Invalid_argument] on an empty list. *)

val summarize : result list -> summary
(** Aggregate independent results ({!run_replications} over its per-seed
    list); zero/degenerate statistics on an empty list. *)

val pp_summary : Format.formatter -> summary -> unit

val pp_result : Format.formatter -> result -> unit
