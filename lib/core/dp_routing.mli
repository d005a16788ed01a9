(** SB-DP: Switchboard's dynamic-programming chain router (Section 4.4).

    For each chain it fills the table [E(z, s)] — the least cost of a route
    prefix ending with element [z] placed at site [s] — using the stage
    cost of {!Load_state.stage_cost} (propagation delay + Fortz–Thorup
    network- and compute-utilization costs), then walks parents back from
    the egress (Eq. 8). Chains are routed sequentially (optionally in a
    seeded random order), committing their load so later chains see earlier
    utilization. If the selected route cannot absorb the chain's full
    traffic within remaining capacities, the chain is split: the route
    carries the fraction its bottleneck allows and the algorithm repeats on
    the next least-cost route (up to [max_routes]; any residual rides the
    last route).

    One DP sweep serves every caller. It runs over flat tables reused per
    solve and reads each stage cost fresh from the load state (nothing is
    memoized). Its only variant is a delay-lower-bound prune: a candidate
    pair whose [delay + uw * compute] bound cannot beat the incumbent
    under the strict [<] tie-break is skipped before its link-cost scan.
    That picks the same path as the full scan, because stage costs are
    [delay + uw * (net + compute)] with [net >= 0] and float rounding is
    monotone. [net >= 0] holds on any load state: {!Sb_net.Load} clamps a
    link's post-addition load at 0., so the ~1e-16 negative residues that
    lifting a chain out can leave cost nothing. {!solve} and {!resolve}
    both prune. *)

val default_util_weight : float
(** Weight converting Fortz–Thorup utilization cost into seconds of
    latency-equivalent cost; 0.05 (i.e. one unit of utilization cost
    trades against 50 ms of propagation delay). *)

val solve :
  ?util_weight:float ->
  ?max_routes:int ->
  ?rng:Sb_util.Rng.t ->
  Model.t ->
  Routing.t
(** Full SB-DP. [max_routes] (default 8) bounds per-chain splitting.
    [rng], when given, shuffles the chain processing order. Equivalent to
    {!solve_into} over a freshly compiled {!Instance}. *)

val solve_into :
  ?util_weight:float ->
  ?max_routes:int ->
  ?rng:Sb_util.Rng.t ->
  Load_state.t ->
  Routing.t ->
  Routing.t
(** Arena form of {!solve}: resets the given load state and routing (both
    compiled from the same {!Instance} — [Invalid_argument] otherwise) and
    solves in place, so a caller probing many demand scales
    ({!Eval.max_load_factor}'s bisection) allocates nothing per probe.
    Demand is read through the instance, honouring
    {!Instance.set_scale}. Returns the routing it was given. *)

val dp_latency : ?rng:Sb_util.Rng.t -> Model.t -> Routing.t
(** The DP-LATENCY ablation of Fig. 13a: same holistic dynamic program but
    the cost is propagation delay only (no utilization terms, no
    splitting — capacity-blind). *)

val best_path :
  ?ingress:int ->
  ?egress:int ->
  Load_state.t ->
  util_weight:float ->
  chain:int ->
  int array option
(** One DP evaluation against the given load state: the least-cost node
    sequence (ingress, VNF nodes, egress) for a chain, or [None] if some
    stage has no reachable candidate. [ingress]/[egress] default to the
    chain's first endpoints (multi-endpoint chains are routed per pair by
    {!solve}). Runs the full, unpruned sweep, so any load state is
    valid. *)

val best_path_pruned :
  ?ingress:int ->
  ?egress:int ->
  Load_state.t ->
  util_weight:float ->
  chain:int ->
  int array option
(** {!best_path} with the delay-lower-bound prune {!solve} and {!resolve}
    use. Returns the same path as {!best_path}. *)

type resolve_stats = {
  rerouted : int list;
      (** chains re-routed this round, highest measured gain first — the
          route delta the control plane must roll out *)
  considered : int;  (** chains with a committed route that were scanned *)
  over_threshold : int;
      (** chains whose relative gain beat the hysteresis (before the churn
          budget truncated the list) *)
}

val resolve :
  ?util_weight:float ->
  ?max_routes:int ->
  ?hysteresis:float ->
  ?churn_budget:int ->
  prev:Routing.t ->
  Model.t ->
  Routing.t * resolve_stats
(** Incremental re-solve for the [sb_adapt] closed loop: re-commit the
    previous routing's paths under [m] (a structurally identical model
    whose traffic matrix and/or failed-link set changed), scan every chain
    comparing its current-route cost against its best single-path
    alternative under the same load, and re-route only the chains whose
    relative gain [(cur - alt) / alt] exceeds [hysteresis] (default 0.1) —
    at most [churn_budget] of them per call (default unlimited), highest
    gain first. The scan lifts each chain out before costing, so current
    and alternative are the same marginal insertion; both the scan and the
    re-route run the pruned sweep. Chains left
    unrouted by [prev] (or whose current route is infeasible under [m])
    score infinite gain and are re-routed first.
    Returns the new routing plus which chains moved. *)

val resolve_unpruned :
  ?util_weight:float ->
  ?max_routes:int ->
  ?hysteresis:float ->
  ?churn_budget:int ->
  prev:Routing.t ->
  Model.t ->
  Routing.t * resolve_stats
(** {!resolve} on the full, unpruned sweep: the reference a property test
    holds {!resolve} to, bit for bit. *)
