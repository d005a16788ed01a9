(** An assembled Switchboard deployment: Global Switchboard, per-site Local
    Switchboards, edge controllers, VNF controllers — all exchanging
    {!Types.msg} over the global message bus ([sb_msgbus]) and installing
    rules into a data-plane fabric ([sb_dataplane]) — driven by the
    discrete-event engine.

    This is the machinery behind Section 3's chain-creation flow (Fig. 4),
    the two-phase commit between Global Switchboard and VNF/edge
    controllers, the dynamic-chaining experiments of Section 7.1 (Fig. 10
    and Table 2), and the edge-site extension of Section 6.

    Simplifications vs. the paper's testbed, documented in DESIGN.md: one
    forwarder per site (forwarder scale-out is evaluated separately in
    [sb_dataplane]); chain labels are chain ids and egress labels are
    egress-site ids; infrastructure identities (which forwarder serves a
    site) are static knowledge while all {e dynamic} state — routes,
    instance weights, forwarder weights — travels over the bus with real
    delays. *)

type t

(** Committed route state reaches participants and Local Switchboards as
    compiled deltas: route sets compile into hash-consed decision diagrams
    ({!Compile}), the 2PC and the commit announcement ship only the
    changed stages and changed per-VNF demand rows, and the per-site
    [Instance_info] republish is skipped for VNFs whose demand did not
    move — bytes on the wire scale with an epoch's churn, not the chain's
    size. A new chain (or a recovered coordinator's re-drive) is the
    delta from the empty diagram ([cd_full]). Each commit also retains
    the chain's full route set on its route topic, the heal point a
    Local Switchboard with a version gap subscribes to. *)

val create :
  ?seed:int ->
  ?install_latency:float ->
  ?egress_rate:float ->
  ?bus_bandwidth:float ->
  ?retry_interval:float ->
  ?flow_store:Sb_dataplane.Plane.flow_store ->
  ?lanes:int ->
  num_sites:int ->
  delay:(int -> int -> float) ->
  gsb_site:int ->
  unit ->
  t
(** [delay] is the one-way inter-site control latency.
    [install_latency] (default 90 ms) models a forwarder data-plane
    configuration (rule/tunnel install). [retry_interval] (default
    500 ms) is the 2PC retransmission period: the coordinator re-sends
    Prepares to unvoted participants and Commit/Abort decisions to
    un-acked ones, making chain transactions tolerate wide-area message
    loss. [flow_store] selects the data plane's connection-state store
    (default {!Sb_dataplane.Plane.Local}). [lanes] (default 1) shards
    the data plane across that many per-domain lanes
    ({!Sb_dataplane.Shard}); with 1 lane the data plane is bit-identical
    to an unsharded {!Sb_dataplane.Plane}. [bus_bandwidth] (bytes/s),
    when given, makes bus egress serialization proportional to each
    message's modeled wire size ({!Types.msg_size}) instead of the flat
    per-message [egress_rate]. The bus prices every publish with
    {!Types.msg_size} and classes topics with {!Types.topic_class}, so
    [Bus.stats] reports bytes on the wire per topic class. *)

val set_logging : t -> bool -> unit
(** Disable/enable the control-plane event log. Log calls are lazy
    ([logf t (fun m -> m ...)]), so with logging off the hot paths skip
    formatting entirely — benches at 10^5+ chains turn it off. *)

val compile_stats : t -> Compile.stats
(** Size of the Global Switchboard's committed decision diagrams
    (interned nodes/actions vs total stages — the structural-sharing
    factor). *)

val engine : t -> Sb_sim.Engine.t
val bus : t -> Types.msg Sb_msgbus.Bus.t

val shard : t -> Sb_dataplane.Shard.t
(** The data plane: control calls on it (fail, revive, rule installs,
    weights) are mirrored to every lane, and counters and flow-table
    read-outs aggregate across lanes. *)

val site_flow_table_stats : t -> site:int -> int * int * int
(** [(count, capacity, max_probe)] summed over the site's forwarders and
    the shard's lanes — the occupancy figure the telemetry exporter
    publishes. *)

val site_forwarder : t -> int -> int
(** The site's first (edge-facing) forwarder. *)

val site_forwarders : t -> int -> int list
(** All forwarders at a site, oldest first (Section 5.1: the Local
    Switchboard scales forwarders elastically). *)

val site_edge : t -> int -> int option

val add_forwarder : t -> site:int -> int
(** Elastically add a forwarder at a site (Fig. 5). The Local Switchboard
    replays the site's installed rules onto it after the configuration
    latency, and subsequent VNF instances are spread across all the site's
    forwarders. Returns the fabric forwarder id. *)

val scale_vnf_instances : t -> vnf:int -> site:int -> count:int -> unit
(** Add [count] instances of a deployed VNF at a site (attached round-robin
    to the site's forwarders) and republish the instance and forwarder
    weights for every chain allocated there, so load balancing rebalances
    onto the new instances — existing connections keep their instances
    (flow affinity). *)

val log : t -> (float * string) list
(** Timestamped control-plane events, oldest first. *)

val log_between : t -> float -> float -> (float * string) list

(** {2 Provisioning (before any chain exists, per Section 3 phase 1)} *)

val deploy_vnf : t -> vnf:int -> site:int -> capacity:float -> instances:int -> unit
(** Give a VNF [instances] fabric instances at a site with total admission
    capacity [capacity] (traffic units); registers the VNF controller on
    first call. *)

val register_edge : t -> site:int -> attachment:string -> unit
(** Create an edge instance at a site and bind a customer attachment string
    to it (the edge controller's mapping). *)

val set_route_policy :
  t -> (Types.chain_spec -> exclude:(int * int) list -> Types.route list option) -> unit
(** How Global Switchboard computes routes; [exclude] lists (vnf, site)
    pairs that rejected the previous two-phase-commit round. *)

(** {2 Chain lifecycle} *)

val request_chain : t -> Types.chain_spec -> int
(** Submit a chain spec (the customer portal action): publishes the request
    onto the bus and returns the chain id that will be assigned. Run the
    engine to make progress. *)

val chain_routes : t -> chain:int -> Types.route list
(** Currently committed routes (empty until the two-phase commit ends). *)

val chain_egress_site : t -> chain:int -> int option
val chain_ingress_site : t -> chain:int -> int option

val add_route : t -> chain:int -> Types.route -> unit
(** Trigger a route addition for an existing chain (the Fig. 10
    experiment): re-runs two-phase commit over the extended route set and
    re-publishes; existing connections keep their paths (flow affinity). *)

val update_routes : t -> chain:int -> Types.route list -> unit
(** Replace a chain's route set: re-runs the two-phase commit with the
    given routes (VNF controllers re-admit — a commit replaces the chain's
    previous allocation — and Local Switchboards recompute and reinstall
    rules). This is the rollout path of the [sb_adapt] closed loop's route
    deltas. Run the engine to make progress. *)

val add_edge_site : t -> chain:int -> site:int -> unit
(** Extend a chain to a new edge site on demand (Section 6, Table 2): the
    new site's Local Switchboard picks the nearest existing route, pulls
    the first VNF's forwarder info, configures its data plane, and the
    first VNF's forwarder configures the return side. Steps are logged. *)

val probe_chain : t -> chain:int -> ?ingress_site:int -> Sb_dataplane.Packet.five_tuple ->
  (Sb_dataplane.Plane.endpoint list, Sb_dataplane.Plane.error) result
(** Send a packet through the chain's data plane from its (or the given)
    ingress site's edge, as a liveness/timeline probe. *)

val vnf_committed_load : t -> vnf:int -> site:int -> float
(** Admission-controlled load the VNF controller has accepted at a site. *)

(** {2 Elastic placement lifecycle (DESIGN.md §16)}

    Deployments become control-loop outputs: a planner ([Sb_adapt.Place])
    adds a VNF deployment where telemetry shows saturation and retracts
    one that has gone cold. Rollout rides the same compiled-delta 2PC as
    route updates — {!scale_out} provisions first and lets the caller's
    {!update_routes} carry the new site into the committed transition
    tables, {!drain_and_remove} retracts only after the routes excluding
    the site have committed {e and} every established connection has
    drained, so no packet is blackholed mid-transaction. *)

type churn = {
  ch_scale_outs : int;  (** deployments added by {!scale_out} *)
  ch_removed : int;  (** deployments retracted after a completed drain *)
  ch_drains_completed : int;
  ch_drains_aborted : int;  (** GSB death or timeout mid-drain *)
  ch_draining : int;  (** drains in progress right now *)
  ch_drain_durations : float list;
      (** sim-clock seconds of the most recent completed drains, oldest
          first, capped at 64 — the reservoir the telemetry exporter
          summarizes *)
}

val deployment_churn : t -> churn

val scale_out : t -> vnf:int -> site:int -> capacity:float -> instances:int -> unit
(** {!deploy_vnf} through the live control loop: registers admission
    capacity and fabric instances for the VNF at a (possibly brand-new)
    site and counts the churn. The new deployment carries no traffic
    until the caller commits a route set using the site via
    {!update_routes} — the commit's [Instance_info] republish is what
    hands the new instances to the Local Switchboards, so the scale-out
    becomes visible atomically with the routes that use it. *)

val drain_and_remove :
  t ->
  vnf:int ->
  site:int ->
  ?poll_interval:float ->
  ?timeout:float ->
  ?on_done:(bool -> unit) ->
  unit ->
  unit
(** Retract a VNF deployment without blackholing a single established
    connection. Precondition: the caller has already submitted (via
    {!update_routes}) a route set that excludes this site. The drain then
    (1) zeroes the instances' balancer weights, so nothing new is
    assigned to them; (2) polls — every [poll_interval] (default 0.25 s)
    engine seconds — until the VNF controller's committed load at the
    site reaches zero (the excluding routes committed) {e and}
    {!Sb_dataplane.Shard.instance_flow_count} reaches zero for every
    instance (established flows ended or idled out through the expiry
    clock); (3) fails the instances and forgets the site's capacity.
    [on_done true] fires after retraction. If the Global Switchboard dies
    mid-drain, or [timeout] sim-seconds elapse first, the drain {e
    aborts}: the saved weights are restored, nothing is retracted, and
    [on_done false] fires — scale-in is atomic under coordinator failure.
    Without [timeout] the poll reschedules forever, so drive the engine
    with [run_until], not run-to-quiescence. *)

(** {2 Controller fault tolerance (Section 4.5)} *)

val set_gsb_down : t -> bool -> unit
(** [set_gsb_down t true] crashes the Global Switchboard: its volatile
    state (in-flight two-phase commits, un-acked decisions) is lost, and
    it stops reacting to requests, votes, and acks — exactly the
    mid-transaction failure the standby-takeover story must survive.
    [set_gsb_down t false] brings the standby up (empty-handed; call
    {!recover_from_store} to restore and re-drive persisted chains).
    Used by the [sb_chaos] GSB-failover fault. *)

val gsb_is_down : t -> bool

val attach_store : t -> Types.persisted Sb_music.Store.t -> unit
(** Persist every committed chain (spec, routes, endpoints) and the chain
    index into a MUSIC replicated store, surviving Global Switchboard
    failure. *)

val recover_from_store :
  t -> Types.persisted Sb_music.Store.t -> on_done:(int list -> unit) -> unit
(** Standby takeover: read the chain index and records back from the store
    (quorum reads over the simulated wide area), restore the chain table,
    and re-publish every recovered route so Local Switchboards reinstall
    rules. [on_done] receives the recovered chain ids once every read
    completes; run the engine to make progress. *)

val chain_measurements : t -> chain:int -> (int * int) array
(** Per-stage [(packets, bytes)] measured at the chain's forwarders since
    the last {!reset_measurements} — the feedback Global Switchboard uses
    to size [w_cz] for existing chains (Section 4.1). Empty array for an
    unknown or uncommitted chain. *)

val reset_measurements : t -> unit
(** Start a fresh measurement window on every forwarder. *)

val site_known_chains : t -> site:int -> (int * int * int) list
(** [(chain, egress, num_stages)] for every chain the site's Local
    Switchboard has learned via route updates — the chain universe a
    site-local telemetry exporter iterates. Sorted by chain id. *)

val site_chain_measurements_into :
  t -> site:int -> chain:int -> pkts:int array -> bytes:int array -> int
(** Per-stage packets and bytes measured at this site's forwarders only,
    based on the Local Switchboard's chain knowledge (summed over all
    sites this equals {!chain_measurements}), into caller-owned buffers:
    fills [pkts]/[bytes] (indexed by stage) in one pass over the site's
    forwarders and returns the chain's stage count, or [-1] for a chain
    the site has not learned (buffers untouched). Raises
    [Invalid_argument] if the buffers are shorter than the stage count.
    The telemetry exporter calls this every epoch with reused scratch
    buffers, so a measurement sweep allocates nothing. *)

val site_chain_version : t -> site:int -> chain:int -> int option
(** The route-state version the site's Local Switchboard has applied for
    a chain (delta lineage guard); [None] for an unlearned chain. *)

(** {2 Whole-system introspection (the [sb_chaos] invariant checker)} *)

val chain_ids : t -> int list
(** Ids of every chain the Global Switchboard knows, sorted. *)

val chain_spec : t -> chain:int -> Types.chain_spec option

val txns_in_flight : t -> int
(** Two-phase commits not yet fully settled: transactions awaiting votes
    plus decisions awaiting participant acks. Zero once the system has
    quiesced — the precondition for the 2PC-atomicity invariant check. *)

val participant_txn_state : t -> int
(** Per-transaction entries the VNF controllers hold: vote memory plus
    reservations, summed over controllers. Both are freed when the
    transaction's decision arrives, so this is zero once every decision
    has landed and never grows with the number of transactions run. *)

val site_installed_rules :
  t -> site:int -> ((int * int * int) * (Sb_dataplane.Plane.endpoint * float) list) list
(** The rules a site's Local Switchboard has installed (or scheduled for
    install), keyed [(chain, egress, stage)], sorted. *)

(** {2 Decentralized mechanism}

    Static infrastructure knowledge (identities of sites, forwarders,
    edges and VNF instances — see the header) plus raw counter and rule
    access, for a decentralized decision process ([Sb_adapt.Anycast])
    that drives the fabric without the Global Switchboard or per-chain
    2PC admission. *)

val site_vnf_instances : t -> site:int -> vnf:int -> (int * float) list
(** The site's live fabric instances of a VNF with their load-balancing
    weights, id-sorted; [[]] when the VNF is not deployed there. *)

val site_vnf_instance_ids : t -> site:int -> vnf:int -> int list
(** Every fabric instance id of the VNF's deployment at the site,
    id-sorted — including draining (weight-zero) and dead ones; [[]] once
    the deployment is retracted. {!site_vnf_instances} is the filtered
    live-picker view; this is the raw census the [sb_chaos] drain-safety
    checker snapshots when it sees a deployment go weightless. *)

val site_vnf_forwarder_weights : t -> site:int -> vnf:int -> (int * float) list
(** Per site forwarder, its published aggregate weight for a VNF's local
    instances — the targets a {e remote} site addresses to relay a stage
    here (what 2PC admission floods as [Forwarder_info], available
    statically to the site itself). *)

val site_deployed_vnfs : t -> site:int -> int list
(** VNF ids with at least one instance deployed at the site, sorted. *)

val site_stage_packets : t -> site:int -> chain:int -> egress:int -> stage:int -> int
(** Cumulative packets the site's forwarders handled for a
    [(chain, egress, stage)] rule, summed over lanes — unlike
    {!site_chain_measurements_into} it takes the egress label explicitly, so it
    works at sites whose Local Switchboard never learned the chain. *)

val apply_site_patches : t -> site:int -> Sb_dataplane.Plane.rule_patch list -> unit
(** Apply a batch of rule patches to every forwarder of the site after the
    data-plane [install_latency] — the local install path a per-site
    decision process uses in place of the Local Switchboard's
    transition-table rules. No-op on an empty batch. *)
