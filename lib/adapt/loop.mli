(** The closed control loop (Section 4.1's feedback path, run end to end):
    telemetry exporters measure the data-plane fabric, the aggregator at
    the Global Switchboard reassembles a measured traffic matrix and
    failure view, {!Sb_core.Dp_routing.resolve} re-routes only the chains
    worth moving (hysteresis + churn budget), and the deltas roll out
    through the control plane's two-phase commit while the flow simulator
    scores each epoch.

    Four arms share one scenario and one epoch driver (grid, probes,
    scoring, report); each adds only what differs. [Static] solves once at
    epoch 0; [Oracle] re-solves each epoch with perfect knowledge (the
    upper bound); [Closed_loop] adds a sense -> decide -> actuate control
    tick ({!Place} is the optional decide stage) and is scored on the
    installed routes, so report latency/loss and rollout delay count;
    [Anycast_dist] adds the {!Anycast} agents' advertise and decide ticks
    — flooded load advertisements and local greedy re-pointing, no Global
    Switchboard after establishment. *)

type scenario = {
  sc_model : Sb_core.Model.t;
      (** base model; the closed loop requires a site at every node that
          routes can visit (true of [Workload.synthesize] models) *)
  sc_epochs : int;
  sc_epoch_len : float;  (** seconds of simulated time per epoch *)
  sc_demand : epoch:int -> chain:int -> float;
      (** ground-truth multiplicative demand factor *)
  sc_failures : (int * int list) list;
      (** [(epoch, base-model link ids)]: links failed from that epoch on
          (cumulative; no repair) *)
}

type arm = Static | Closed_loop | Oracle | Anycast_dist

val arm_name : arm -> string

type params = {
  hysteresis : float;  (** relative-gain threshold for a re-route (0.05) *)
  churn_budget : int;  (** max chains re-routed per epoch (6) *)
  util_weight : float;
      (** utilization-cost weight the incremental resolver optimizes with
          (0.10, 2x the solver default) *)
  pkts_per_unit : int;
      (** probe packets injected per traffic unit per epoch (16) — the
          telemetry signal's resolution *)
  staleness : int;  (** epochs before an aggregator sample ages out (3) *)
  control_lag : float;
      (** seconds after the epoch boundary the control tick waits for
          reports to arrive (0.5) *)
  vnf_headroom : float;
      (** provisioned VNF admission capacity over the model's (4.0), so
          admission never vetoes a capacity-feasible re-route *)
  lanes : int;
      (** RSS lanes per forwarder in the assembled system (1); the live
          arms' results are lane-count independent, which the chaos suite
          pins *)
  seed : int;
  placement : Place.params option;
      (** [Some _] arms the elastic-placement capability on the
          [Closed_loop] arm: a {!Place} planner runs every control tick,
          scale-outs go through {!Sb_ctrl.System.scale_out} + the next
          route rollout, scale-ins through a route rollout excluding the
          site followed by {!Sb_ctrl.System.drain_and_remove}, which
          completes once the established flows idle out. [None] (the
          default) runs the route-only loop. Other arms reject [Some _].
          Every live arm ([Closed_loop], [Anycast_dist]) ages its
          forwarders' flows out: each probe tick advances the flow-expiry
          clock and evicts connections idle for two epochs, so flow state
          stays bounded by the live probe window. *)
}

val default_params : params

type epoch_report = {
  ep_epoch : int;
  ep_supported : float;
      (** satisfied demand of the routes in force against the epoch's
          ground truth: [min(1, max_alpha) * total_demand] — full demand
          when the routing has headroom, the feasible fraction when not *)
  ep_throughput : float;  (** flow-level total throughput ([E2e.evaluate]) *)
  ep_mean_rtt : float;
  ep_rerouted : int;
      (** chains whose routes changed going into this epoch (for
          [Closed_loop], what the previous control tick rolled out) *)
  ep_down_links : int;
      (** [Closed_loop]: links the aggregator believed down at the last
          control tick; other arms: ground-truth failed links *)
  ep_reports : int;
      (** cumulative control-plane signal received: telemetry reports at
          the aggregator ([Closed_loop]) or load advertisements folded into
          site views, summed over sites ([Anycast_dist]) *)
}

type run_result = {
  epochs : epoch_report list;
  total_rerouted : int;
  total_scale_actions : int;
      (** deployment scale-outs plus scale-ins the placement planner
          emitted over the run (0 unless the placement capability is
          armed) — the churn figure test/placement.golden pins *)
}

val diurnal_demand :
  ?amplitude:float -> ?period:int -> seed:int -> int -> epoch:int -> chain:int -> float
(** Per-chain diurnal curve [1 + amplitude * sin(phase_c + 2*pi*e/period)]
    with deterministic random phases for [n] chains. *)

val run :
  ?params:params -> ?on_system:(Sb_ctrl.System.t -> unit) -> scenario -> arm -> run_result
(** Run one arm over the scenario. Fully deterministic for a fixed
    scenario and params. [on_system] is called with the assembled control
    plane once the initial chains are committed, before the epoch grid is
    scheduled — the [sb_chaos] injection point for faulting a live arm
    mid-flight. The assembled system runs with its event log off
    ({!Sb_ctrl.System.set_logging}); a caller that wants the log turns it
    back on here.

    Raises [Invalid_argument] before anything runs on a non-positive
    [sc_epochs]; an [sc_epoch_len] that is NaN, infinite, zero or
    negative; a negative [churn_budget]; a NaN or negative [hysteresis];
    [on_system] with [Static] or [Oracle], which never build a system; or
    [placement = Some _] with any arm but [Closed_loop]. *)
