(** The paper's N-state Markov chain of one primary channel's elastic
    bandwidth level (§3.2, Figure 1).

    State [S_i] means the channel holds [B_min + i * Δ].  Transition
    rates, with [λ] arrival, [μ] termination and [γ] link-failure rates:

    - downward [i -> j] ([i > j]): [P_f * A_ij * (λ + γ)] — a channel
      sharing a link arrives, or a failure activates backups;
    - upward [i -> j] ([i < j]): [P_s * B_ij * λ + P_f * T_ij * μ] — an
      indirectly-chained channel arrives, or a sharing channel ends.

    Matrix entries outside their sanctioned triangle (e.g. an upward
    entry of [A]) are ignored, as in the paper's Figure 1; the measured
    matrices are nearly triangular anyway, and the estimator's raw data
    retains anything discarded here. *)

type params = {
  lambda : float;  (** DR-connection arrival rate. *)
  mu : float;  (** DR-connection termination rate (steady state: = lambda). *)
  gamma : float;  (** link failure rate. *)
  p_f : float;  (** P(share >= 1 link with a new channel). *)
  p_s : float;  (** P(indirectly chained with a new channel). *)
  a : Matrix.t;  (** direct-chain transition matrix (downward used). *)
  b : Matrix.t;  (** indirect-chain transition matrix (upward used). *)
  t_mat : Matrix.t;  (** termination transition matrix (upward used). *)
}

val params_of_estimator :
  lambda:float -> mu:float -> gamma:float -> Estimator.t -> params
(** Package measured values; the matrices must share the estimator's
    dimension. *)

val synthetic :
  lambda:float ->
  mu:float ->
  gamma:float ->
  p_f:float ->
  p_s:float ->
  levels:int ->
  params
(** The paper's qualitative chain structure without measured matrices: a
    direct-chain arrival retreats to the floor (A rows -> column 0), an
    indirect-chain arrival or a sharing termination climbs one level
    (B, T superdiagonal; identity at the top).  Used by the [chain] CLI
    command and by the empirical-vs-analytic audit in [lib/analysis].
    Raises [Invalid_argument] when [levels < 1]. *)

val validate : params -> unit
(** Raises [Invalid_argument] on malformed inputs: negative rates,
    probabilities outside [0, 1], non-square or mismatched matrices,
    non-stochastic rows. *)

val build : params -> Ctmc.t
(** The chain of Figure 1.  It is reducible when no transitions were
    observed (all-identity matrices), and {!Ctmc.stationary} then raises
    {!Linsolve.Singular}. *)

val build_regularized : params -> Ctmc.t
(** {!build} plus vanishing rates between adjacent levels
    ([1e-9] upward, [1e-12] downward) so the chain is
    always irreducible.  When real transitions exist the perturbation is
    negligible (six-plus orders below the paper's rates); when none were
    observed — an uncontended network — the solution concentrates at the
    top level, which is exactly the physical behaviour (redistribution
    drives unconstrained channels to [b_max]). *)

val average_bandwidth_regularized : ?obs:Obs.t -> params -> qos:Qos.t -> float
(** The paper's headline metric, [sum_i pi_i * (b_min + i * Δ)], on the
    regularised chain — a total function, the one the experiments call.
    [Qos.levels qos] must equal the chain's level count.  [obs] (default
    {!Obs.null}) observes the solve (see {!Ctmc.stationary}). *)

type knob = [ `Lambda | `Mu | `Gamma | `P_f | `P_s ]

val sensitivity : ?obs:Obs.t -> params -> qos:Qos.t -> knob -> float
(** Central finite-difference derivative of the average bandwidth with
    respect to one scalar parameter (relative step 1e-4, regularised
    chain) — what-if analysis for the planning workflow: e.g.
    [sensitivity p ~qos `Gamma] tells how many Kbps one unit of extra
    failure rate costs.  Probability knobs are clamped to [0, 1].
    [obs] observes both solves. *)
