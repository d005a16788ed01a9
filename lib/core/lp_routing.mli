(** SB-LP: the linear-programming chain router (Section 4.3).

    Builds the chain-routing LP over the variables [x_czn1n2] with the
    paper's constraints — per-chain source emission, flow conservation at
    every VNF element (Eq. 5), site compute capacity (Eq. 4), per-VNF
    per-site capacity, and the maximum-link-utilization network-cost bound
    (Eq. 6) — and solves it exactly with the [sb_lp] simplex. The model is
    written column by column straight from {!Instance}'s arrays into the
    simplex's column form ({!Sb_lp.Lp.columns}), without the list
    modelling layer.

    Two objectives, matching the two uses in the evaluation:
    - {!Min_latency} minimizes the traffic-weighted aggregate latency
      (Eq. 3) subject to current demand (used for Fig. 12c and Fig. 11).
    - {!Max_throughput} maximizes the uniform demand-scaling factor alpha
      supported by the network (used for Figs. 12a/12b/13b); the [x]
      variables become alpha-scaled flows, normalized back to fractions on
      extraction. *)

type objective = Min_latency | Max_throughput

type result = {
  routing : Routing.t;
  objective_value : float;
      (** Mean demand-weighted latency (s) for {!Min_latency}; the scaling
          factor alpha for {!Max_throughput}. *)
  site_extra : float array option;
      (** Per-site capacity additions, present only when
          [?cloud_budget] was given. *)
  lp : Sb_lp.Lp.solution;
      (** The simplex's own solution, whose counters
          ({!Sb_lp.Lp.iterations}, {!Sb_lp.Lp.refactorizations}) describe
          the solve's work independently of the machine. *)
}

val solve : ?cloud_budget:float -> Model.t -> objective -> (result, string) Result.t
(** [solve m obj] returns [Error] when the LP is infeasible (for
    {!Min_latency}: the demand cannot be carried within capacities) or
    unbounded (a modelling error). [cloud_budget], usable with
    {!Max_throughput} only, turns site capacities into variables
    [m_s + a_s] with [sum a_s <= budget] — the cloud capacity-planning LP
    of Section 4.3. *)

val columns : ?cloud_budget:float -> Model.t -> objective -> Sb_lp.Lp.columns
(** The LP that [solve] hands to {!Sb_lp.Lp.solve_columns}. Columns: one
    [x] per (global stage, source, destination) pair, stage by stage in
    candidate order; then alpha ({!Max_throughput}); then one [a_s] per
    site ([cloud_budget]). Rows: the budget row; each chain's ingress
    rows, then its egress rows; the flow-conservation rows; the site-load,
    VNF-site-load and link rows that some [x] touches. *)
