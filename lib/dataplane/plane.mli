(** A functional simulation of the Switchboard data plane: edges, VNF
    instances, and forwarders wired per Section 5, over which packets are
    driven hop by hop.

    Every VNF instance and edge instance is attached to exactly one
    forwarder at its site (Section 5.1: the instance's routing table points
    at the forwarder as its proxy gateway). Forwarders hold weighted rules
    keyed by (chain label, egress label, stage) and a flow table that
    pins each connection's choices, delivering the safety properties of
    Section 5.3: conformity, flow affinity, and symmetric return. Tests
    drive random traffic and weight churn through a plane and assert those
    properties; the control plane ([sb_ctrl]) installs rules into one
    through {!Shard}, which mirrors this API across lanes.

    The plane is compiled (DESIGN.md §11): observably identical (traces,
    errors, counters, RNG draw sequence) to the seed implementation kept in
    {!Legacy_fabric} as the equivalence oracle, but laid out as id-dense
    flat arrays:

    - per-forwarder rules are an array indexed by an interned
      (chain, egress, stage) id pointing into one shared target arena
      (parallel packed-endpoint / weight / cumulative-weight arrays), so a
      rule lookup is two array reads and a balancer draw is one RNG
      advance plus a binary search — draw-for-draw identical to
      {!Balancer.pick};
    - connection state is an open-addressed table keyed by an int-packed
      flow key (avalanche hash of labels, role stage and 5-tuple), chained
      per connection for O(stages) teardown; [Replicated] mode keeps the
      same stores under a consistent-hash ring with k-way replication.
      The tables are packed [Bytes] columns on the OCaml heap that the GC
      does not scan: 32 B a cell, 12 B a per-connection head slot;
    - a packet is a handful of mutable locals advanced in place per hop
      ({!drive} allocates nothing on the warm path);
    - mutations (rule reinstall, weight change, fail / revive / reattach)
      patch the arrays in place through a journal; dead rule targets are
      compacted once they dominate the arena. *)

type t

type endpoint = Edge of int | Forwarder of int | Vnf_instance of int
(** Values are ids returned by the [add_*] functions. *)

type flow_store =
  | Local  (** per-forwarder flow tables (the prototype's default) *)
  | Replicated of int
      (** connection state in a DHT spread over the forwarder nodes with
          the given replication factor — the Section 5.3 design that keeps
          flow affinity and symmetric return across forwarder failures and
          elastic scale-in *)

type error =
  | No_rule of { forwarder : int; stage : int }
  | No_reverse_entry of { forwarder : int; stage : int }
  | Instance_down of int
  | Forwarder_down of int
  | Ttl_exceeded
  | Not_an_edge

val pp_error : Format.formatter -> error -> unit

val create : ?seed:int -> ?flow_store:flow_store -> unit -> t
(** [seed] drives the weighted load-balancing choices; [flow_store]
    defaults to {!Local}. *)

(** {2 Building the plane} *)

val add_site : t -> string -> int
(** Sites, forwarders, edges and instances share one id counter. Each
    [add_*] raises [Invalid_argument] once 2^29 ids are taken, so that a
    packed endpoint ([id lsl 2 lor tag]) fits the flow tables' 4-byte
    cells. *)

val add_forwarder : t -> site:int -> int
val add_edge : t -> site:int -> forwarder:int -> int

val add_vnf_instance :
  t -> vnf:int -> site:int -> forwarder:int -> ?weight:float -> unit -> int

val instance_vnf : t -> int -> int
val instance_site : t -> int -> int
val instance_weight : t -> int -> float
val set_instance_weight : t -> int -> float -> unit

val instance_alive : t -> int -> bool
(** Whether an instance is still serving traffic. *)

val forwarder_alive : t -> int -> bool
(** Whether a forwarder is still processing packets. *)

val fail_forwarder : t -> int -> unit
(** Kill a forwarder. In {!Local} mode its flow table dies with it: even
    after edges and instances are reattached, established connections have
    lost their state. In {!Replicated} mode the DHT re-replicates the
    failed node's key ranges from the surviving copies, so reattached
    traffic keeps its affinity — exactly the fault-tolerance story of
    Section 5.3. *)

val revive_forwarder : t -> int -> unit
(** Restart a failed forwarder (the [sb_chaos] crash/restart fault). The
    restarted process comes back {e empty}: its local flow table is
    cleared — whatever state it held died with the crash. In
    {!Replicated} mode it rejoins the DHT ring and receives its key
    ranges back from the surviving replicas, so connection state survives
    the crash/restart cycle end to end. No-op on a live forwarder. *)

val revive_instance : t -> int -> unit
(** Bring a failed VNF instance back. Flow-table entries that pinned
    connections to it work again immediately — instance-local state is
    assumed recoverable (checkpointed or stateless), matching the
    Section 5.3 elastic-scaling story. *)

val fail_instance : t -> int -> unit
(** Kill a VNF instance. Connections pinned to it by their flow-table
    entries start failing with [Instance_down] — the flow-affinity
    violation Section 5.3 warns about for instance failure; {!Dht_table}
    is the replicated-state remedy the paper sketches. New connections
    avoid the instance only once the controller installs updated rules. *)

val reattach_edge : t -> int -> forwarder:int -> unit
(** Point an edge instance at a (live) forwarder, e.g. after its proxy
    failed. *)

val reattach_instance : t -> int -> forwarder:int -> unit
(** Re-home a VNF instance onto another forwarder (elastic scale-in or
    failure recovery). *)

val forwarder_site : t -> int -> int
val site_name : t -> int -> string

val attached_instances : t -> forwarder:int -> int list
(** VNF instances proxied by a forwarder (id-sorted, failed ones
    included). Maintained as a per-forwarder list updated on attach and
    re-home — not recomputed by folding the whole instance table per
    call. *)

val forwarder_published_weight : t -> int -> int -> float
(** [forwarder_published_weight t fwd vnf]: sum of the weights of [vnf]'s
    instances attached to [fwd] — what the forwarder publishes on the
    message bus (Section 5.2). *)

(** {2 Rules} *)

val install_rule :
  t ->
  forwarder:int ->
  chain_label:int ->
  egress_label:int ->
  stage:int ->
  (endpoint * float) list ->
  unit
(** Replace the weighted rule for one (chain, egress, stage) at a
    forwarder. Targets must be [Vnf_instance], [Forwarder], or [Edge];
    a target id outside [\[0, 2^29)] names no entity and raises
    [Invalid_argument]. Installing a new rule leaves existing flow-table
    entries untouched, so established connections keep their path
    (Section 5.3). *)

val install_rx_rule :
  t ->
  forwarder:int ->
  chain_label:int ->
  egress_label:int ->
  stage:int ->
  (endpoint * float) list ->
  unit
(** Replace the {e receiver-side} rule for one (chain, egress, stage): the
    targets used for packets that arrive from a peer forwarder (they are
    mid-relay and must be delivered into a local element). Without one the
    forwarder falls back to the {!install_rule} rule for both directions.
    Keeping relayed packets local bounds every stage of a connection to
    two forwarders (sender and receiver), which the role-keyed replicated
    flow store depends on: with a third relay hop the receiver role key
    would collide and forwarding could loop. *)

val rule :
  t ->
  forwarder:int ->
  chain_label:int ->
  egress_label:int ->
  stage:int ->
  (endpoint * float) list option

val rx_rule :
  t ->
  forwarder:int ->
  chain_label:int ->
  egress_label:int ->
  stage:int ->
  (endpoint * float) list option
(** The receiver-side rule installed by {!install_rx_rule}, if any. *)

type rule_patch = {
  rp_chain : int;
  rp_egress : int;
  rp_stage : int;
  rp_rx : bool;  (** patch the receiver-side ({!install_rx_rule}) rule *)
  rp_targets : (endpoint * float) list;
}
(** One rule replacement of a compiled rollout delta
    ([Sb_ctrl.Compile]). *)

val apply_delta : t -> forwarder:int -> rule_patch list -> int
(** Apply a batch of rule patches to one forwarder, skipping patches whose
    packed form is already identical to the live slot. Returns how many
    patches actually mutated the rule store; each counts one journal
    entry, exactly as the equivalent {!install_rule}/{!install_rx_rule}
    call would, so the compiled rollout and a full reinstall are
    indistinguishable to the arena. A patch with an empty target list
    retracts the rule ({!rule}/{!rx_rule} return [None] again; forwarding
    treats an empty rule and a missing one alike). Target ids are checked
    as in {!install_rule}; the patches before a rejected one stay
    applied. *)

val flow_table_size : t -> forwarder:int -> int

val flow_table_stats : t -> forwarder:int -> int * int * int
(** [(count, capacity, max_probe)] of one forwarder's connection table:
    live entries, open-addressing capacity (load factor is
    [count /. capacity]) and the longest probe sequence a lookup can take.
    Kept incrementally: each table counts its live entries by distance
    from their home slot, so this reads that short histogram, not the
    table. *)

val flow_table_scan_stats : t -> forwarder:int -> int * int * int
(** {!flow_table_stats} recomputed by scanning every slot, O(capacity):
    the reference the incremental figure is tested against. *)

val mutations : t -> int
(** Number of journal entries applied to the packed arrays so far (rule
    installs, topology mutations) — introspection for tests/benchmarks. *)

type arena_stats = {
  slots_live : int;  (** rule slots currently installed *)
  words_used : int;  (** arena words allocated, live + garbage *)
  words_garbage : int;  (** dead words awaiting compaction *)
  compactions : int;  (** arena compaction passes run so far *)
}

val arena_stats : t -> arena_stats
(** Occupancy of the packed rule arena — how much churn the journal has
    absorbed and how often it forced a compaction. *)

(** {2 Driving packets} *)

val send_forward :
  t ->
  ingress:int ->
  chain_label:int ->
  egress_label:int ->
  ?size:int ->
  Packet.five_tuple ->
  (endpoint list, error) result
(** Inject a forward packet at an ingress edge; returns the full hop trace
    (ending at an [Edge]) or the first error. Flow-table entries are
    created for new connections and reused for existing ones. *)

val send_reverse :
  t ->
  egress:int ->
  chain_label:int ->
  egress_label:int ->
  ?size:int ->
  Packet.five_tuple ->
  (endpoint list, error) result
(** Inject the reply at the egress edge; [five_tuple] is the {e forward}
    orientation of the connection. Follows stored [prev] hops; fails with
    [No_reverse_entry] if the forward direction never established state. *)

val drive :
  t ->
  ingress:int ->
  chain_label:int ->
  egress_label:int ->
  size:int ->
  Packet.five_tuple ->
  bool
(** {!send_forward} without the trace: [true] iff the packet was
    delivered to an egress edge. Identical side effects (flow-table
    inserts, RNG draws, stage counters) but allocation-free — the packet
    lives entirely in registers/locals. The packets-per-second numbers in
    EXPERIMENTS.md come from this entry point. *)

val vnfs_in_trace : t -> endpoint list -> int list
(** VNF ids in visit order — for conformity checks. *)

val instances_in_trace : endpoint list -> int list
(** VNF instance ids in visit order — for affinity checks. *)

val end_flow : t -> Packet.five_tuple -> unit
(** Drop every forwarder's entries for a connection (teardown / timeout) —
    including the replicated copies in {!Replicated} mode. O(stages) via
    the by-connection index. *)

val transfer_flows : t -> from_instance:int -> to_instance:int -> int
(** (Local flow-store mode.) OpenNF-style flow-state transfer (Section
    5.3: "flow table entries can be transferred across forwarders using
    recent proposals such as OpenNF"): rewrite every flow-table entry that
    pins a connection to [from_instance] so it points at [to_instance]
    instead — both the forward next-hops and the reverse prev-hops —
    preserving flow affinity and symmetric return across an instance
    migration or failure. Both instances must run the same VNF (raises
    [Invalid_argument] otherwise). Returns the number of rewritten
    entries. *)

val instance_flow_count : t -> int -> int
(** Number of flow-table cells (across every forwarder table and, in the
    replicated store, every replica) still pinning a connection hop to
    the given VNF instance — the occupancy a scale-in drain waits on.
    Zero means no established flow will be steered to the instance, so it
    can be retracted without blackholing. A connection traversing the
    instance contributes one cell per table holding its entry. O(sum of
    table capacities), off the packet path. *)

val set_clock : t -> int -> unit
(** Set the logical clock (a monotone integer in [\[0, 2^31)] — scenario
    drivers use the workload tick). Every packet stamps the clock onto the
    flow-table cells it touches (insert and hit, forward and reverse); the
    stamp is what {!expire_flows} ages against. Never consulted on the
    packet path's control flow, so traces and RNG draws are unchanged.
    The stamp is a 4-byte cell, so a clock outside [\[0, 2^31)] raises
    [Invalid_argument] and leaves the clock as it was. *)

val clock : t -> int

val expire_flows : t -> idle_before:int -> int
(** Scenario-driven idle sweep: remove every connection whose last
    activity predates [idle_before] — the bulk [end_flow] that keeps
    flow-table occupancy (visible via {!flow_table_stats}) bounded under
    streaming churn. A connection is kept if {e any} of its cells in a
    table is fresh. O(sum of table capacities); returns the number of
    table-local connection evictions (a connection spanning [k]
    forwarders counts [k] times). *)

(** {2 Measurement}

    Global Switchboard sizes chain traffic from "measurements at
    Switchboard forwarders" (Sections 4.1 and 7.2). Each forwarder counts
    the forward packets and bytes it delivers into a stage's destination
    element (VNF instance or egress edge), so every packet is counted
    exactly once per stage regardless of how many forwarders relay it. *)

val stage_counters :
  t -> chain_label:int -> egress_label:int -> stage:int -> int * int
(** Aggregated [(packets, bytes)] for one stage of one chain. *)

val site_stage_counters :
  t -> site:int -> chain_label:int -> egress_label:int -> stage:int -> int * int
(** Like {!stage_counters} but restricted to the forwarders of one site —
    the view a per-site telemetry exporter reports. Summing over all sites
    equals {!stage_counters}. *)

val site_stage_counters_into :
  t ->
  site:int ->
  chain_label:int ->
  egress_label:int ->
  pkts:int array ->
  bytes:int array ->
  unit
(** Fill [pkts]/[bytes] (indexed by stage, as many stages as the arrays
    hold) with one site's counters for one chain, visiting only that
    site's own forwarders — the allocation-free bulk form of
    {!site_stage_counters} that the telemetry exporter reuses its scratch
    buffers with. *)

val reset_counters : t -> unit
(** Start a fresh measurement window. *)
