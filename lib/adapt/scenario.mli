(** The scenario suite: [Sb_net.Workload] demand processes driven
    end-to-end through both halves of the system on one 25-site
    backbone.

    Each scenario pairs a workload (and, for regional failover, an
    [Sb_chaos.Schedule] fault process built in lockstep) with two
    measurements:

    - {e control}: the {!Loop} closed loop and oracle arms run over the
      scenario's per-epoch demand factors and link failures; the bus's
      latency reservoir gives the control-plane p99 and the mean
      satisfied demand of each arm gives the satisfied-vs-oracle ratio.
    - {e dataplane}: a standalone packed/sharded fabric
      ({!Sb_dataplane.Shard}) is built from the model's SB-DP routes and
      stressed with streaming {!Sb_dataplane.Traffic_gen} flows — per
      tick, demand-proportional packets plus churn-driven flow turnover
      (every fresh flow sends its first packet, the short-flow-flood
      pattern), followed by an idle-flow expiry sweep. The DDoS scenario
      cycles over a million distinct flows through the tables this way
      while the live window — and so the table occupancy — stays
      bounded.

    Every metric is a pure function of the config: two runs with the
    same config produce bit-identical metrics. *)

type config = {
  seed : int;
  ticks : int;  (** scenario horizon; one tick = one control epoch *)
  epoch_len : float;  (** seconds of simulated time per tick *)
  num_chains : int;  (** workload keys = model chains *)
  window : int;
      (** total concurrently-live flows across all chains (split evenly);
          the constant-memory bound the streaming generators enforce *)
  pkts_per_tick : int;  (** sustained packets per tick, split by demand *)
  lanes : int;  (** dataplane shard lanes *)
  idle_ticks : int;
      (** a flow-table entry not refreshed for this many ticks is swept
          by {!Sb_dataplane.Shard.expire_flows} *)
}

val default_config : config
(** Full-scale matrix: 16 ticks, 40 chains, a 160 k live-flow window and
    120 k packets/tick — sized so the DDoS scenario churns over a
    million distinct flows through the flow tables. *)

val smoke_config : config
(** CI-sized: same shape, seconds of runtime (8 ticks, 16 chains, 4 096
    live flows, 20 k packets/tick). *)

type metrics = {
  m_scenario : string;
  m_packets : int;  (** packets offered to the stress fabric *)
  m_delivered : int;  (** packets that reached an egress edge *)
  m_distinct_flows : int;  (** distinct flows opened (and driven) *)
  m_live_flows : int;  (** live window at end of run *)
  m_peak_entries : int;  (** peak flow-table entries across all forwarders *)
  m_final_entries : int;  (** entries left after the last expiry sweep *)
  m_expired : int;  (** idle connections evicted over the run *)
  m_unroutable : int;  (** chains SB-DP could not route (no fabric entry) *)
  m_p99_latency_ms : float;
      (** p99 simulated publish-to-deliver latency of the closed loop's
          bus traffic, from the {!Sb_msgbus.Bus} reservoir *)
  m_bus_delivered : int;
  m_satisfied : float;  (** mean per-epoch satisfied demand, closed loop *)
  m_oracle : float;  (** same, oracle arm *)
  m_ratio : float;  (** satisfied / oracle (1.0 when oracle is 0) *)
}

val backbone25 : config -> Sb_core.Model.t
(** The suite's shared substrate: a 25-node two-tier backbone (5 core
    routers, 4 PoPs each) with a synthesized Switchboard workload of
    [num_chains] chains, traffic scaled to 0.75 so the base demand is
    feasible and scenarios create the stress. Pure in [config.seed]. *)

val catalog :
  config ->
  Sb_core.Model.t ->
  (string * Sb_net.Workload.t * Sb_chaos.Schedule.t option) list
(** The scenario matrix: [flash_crowd], [ddos], [elephant_mice],
    [regional_failover] (with its aligned {!Sb_chaos.Schedule} — the
    sites that go dark are the ingress sites of exactly the chains whose
    demand the workload zeroes), [diurnal_drift], and
    [diurnal_flash_overlay] (a combinator composition: a half-scale
    flash crowd shifted into the back half of a diurnal day). *)

val scenario_names : string list

(** {2 Controller-outage sweep}

    The decentralization experiment (DESIGN.md section 15): one
    diurnal-drift scenario on the shared backbone, all four {!Loop} arms,
    and a {!Sb_chaos.Schedule.gsb_outage} window starting at a quarter of
    the run and covering a growing fraction of the remainder. Pure
    function of the config and fractions. *)

type outage_point = {
  op_fraction : float;  (** outage fraction of the post-start horizon *)
  op_arm : string;  (** [Loop.arm_name] of the arm *)
  op_pre : float;
      (** mean per-epoch satisfied demand before the outage start epoch *)
  op_during : float;
      (** mean satisfied demand over the outage window's epochs (for
          [fraction = 0], over the whole post-start tail) *)
  op_stretch : float;
      (** the arm's mean RTT over the same window relative to the oracle's
          (1.0 when the oracle RTT is 0) *)
  op_rerouted : int;  (** the arm's total re-routes over the whole run *)
}

val outage_start_epoch : config -> int
(** [ticks / 4] — the epoch at which every sweep outage begins. *)

val outage_scenario : config -> Loop.scenario
(** The sweep's scenario, exposed so the chaos acceptance suite can arm
    its own fault mix over the identical substrate: the diurnal drift on
    {!backbone25}, plus the {e sacrificial site} — one epoch into the
    outage window, every link of the most-loaded replaceable site (under
    the epoch-0 solve; the GSB home site excluded) fails. A frozen
    controller keeps forwarding into the hole; an adapting arm routes
    around it. Pure in [config]. *)

val outage_sweep : ?fractions:float list -> config -> outage_point list
(** Four points (static, oracle, closed-loop, anycast) per fraction
    (default [0, 0.25, 0.5, 0.75, 1]). Static and oracle never involve
    the controller and are computed once; closed-loop and anycast re-run
    per fraction with the outage armed through {!Sb_chaos.Inject}. *)

val pp_outage_point : Format.formatter -> outage_point -> unit
(** One deterministic line per point — the CI-diffable form. *)

(** {2 Elastic-placement sweep}

    The placement experiment (DESIGN.md section 16): diurnal drift plus a
    flash crowd on one PoP, run on a {e sparse} footprint (each VNF keeps
    only its two highest-capacity deployments) so the crowd saturates
    whole VNFs — the demand event no amount of re-routing can absorb.
    Three arms: the route-only closed loop, the same loop with the
    {!Place} planner armed, and an oracle — the {e identical} closed
    loop on the model pre-extended with the perfect-knowledge placements
    (same scorer, same open budget as the planner), so provisioning is
    the only variable between the arms and [placement/oracle] reads as
    "how much of perfect advance provisioning does elastic placement
    recover online". Pure function of the config. *)

type placement_point = {
  pl_arm : string;  (** [route-only], [placement] or [oracle] *)
  pl_mean : float;  (** mean per-epoch satisfied demand, whole run *)
  pl_flash : float;  (** same, over the flash-crowd window only *)
  pl_rerouted : int;  (** total route moves over the run *)
  pl_scale_actions : int;
      (** deployment scale-outs + scale-ins the planner emitted (0 for
          the route-only and oracle arms) — the churn figure the
          acceptance test budgets *)
}

val flash_window : config -> int * int
(** [(ticks/4, ticks - ticks/4)] — the epoch half-open interval the flash
    crowd covers. *)

val placement_scenario : config -> Loop.scenario * (int * int * float) list
(** The sweep's scenario plus the oracle's perfect-knowledge extra
    deployments [(vnf, site, capacity)]: {!Sb_core.Placement.suggest_inst}
    against the flash-peak demand, most-pressed VNFs first, capped at the
    planner's own [max_extra] budget. *)

val placement_sweep : config -> placement_point list
(** Three points, in [route-only; placement; oracle] order. *)

val pp_placement_point : Format.formatter -> placement_point -> unit
(** One deterministic line per point — the CI-diffable form. *)

val run_one :
  config ->
  Sb_core.Model.t ->
  string * Sb_net.Workload.t * Sb_chaos.Schedule.t option ->
  metrics
(** Run one catalog entry end to end. *)

val run_matrix : ?names:string list -> config -> metrics list
(** Build the backbone once and run the (optionally filtered) catalog. *)

val pp_metrics : Format.formatter -> metrics -> unit
(** Every field, one line per layer — the form the CLI prints and
    [test/scenarios.golden] pins byte for byte. *)
