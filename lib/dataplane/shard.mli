(** RSS-style sharded packet path over the packed dataplane (DESIGN.md §12).

    A shard is [D] {!Plane} lanes plus a persistent {!Sb_util.Pool} of one
    worker domain per lane. Each connection is owned by the lane its
    forward-oriented 5-tuple hashes to ([{!Packet.tuple_hash} mod D]), so a
    lane's flow table, balancer RNG stream, and stage counters are private:
    the affinity hot path ({!drive}, {!drive_batch}) never takes a lock or
    touches another domain's cache lines. Reverse packets carry the
    forward-oriented tuple (the {!Flow_table.key} contract), so symmetric
    return is lane-affine by construction and nothing about a live
    connection ever crosses domains.

    Control operations (topology build, rule installs, fail/revive,
    weights) are {e mirrored}: every lane replays the identical call, and
    [Plane]'s deterministic id allocation keeps the lanes id-aligned.
    Rules are therefore duplicated [D] ways — cheap, they are small and
    read-only on the packet path — while connection state, the part that
    actually scales with load, is partitioned.

    Determinism contract: lane [l]'s balancer draws come from
    [Rng.split ~stream:l] of the root seed — a pure function of
    [(seed, l)] — so for a fixed [(seed, lanes)] every per-flow outcome is
    reproducible regardless of batch sizes or interleaving. A shard with
    [lanes = 1] {e is} a [Plane.create ~seed] driven inline: bit-identical
    traces, draws, and table layouts — the equivalence oracle the tests
    pin.

    Concurrency contract: {!drive_batch} runs on the worker domains; every
    other entry point runs on the caller. Do not call anything else while
    a [drive_batch] is in flight (it joins before returning, so ordinary
    sequential use is fine). *)

type t

type endpoint = Plane.endpoint =
  | Edge of int
  | Forwarder of int
  | Vnf_instance of int

type flow_store = Plane.flow_store = Local | Replicated of int

type error = Plane.error =
  | No_rule of { forwarder : int; stage : int }
  | No_reverse_entry of { forwarder : int; stage : int }
  | Instance_down of int
  | Forwarder_down of int
  | Ttl_exceeded
  | Not_an_edge

val pp_error : Format.formatter -> error -> unit

val create : ?seed:int -> ?flow_store:flow_store -> ?lanes:int -> unit -> t
(** [create ~seed ~flow_store ~lanes ()] builds [lanes] planes (default 1)
    and, when [lanes > 1], spawns the worker pool. Lane 0 is seeded with
    [seed] itself; lane [l > 0] with stream [l] of [seed]. *)

val lanes : t -> int

val lane : t -> int -> Plane.t
(** Direct access to one lane's plane: [lane t 0] of a 1-lane shard is the
    whole dataplane, while on a multi-lane shard each lane holds only its
    own partition of the connections. Read lanes freely, but mutate them
    through the mirrored entry points below: a control call (fail, revive,
    install, weights) made on a single lane breaks the mirror alignment
    the other lanes rely on. Benches drive a lane inline with that lane's
    own partition to measure per-lane capacity. *)

val lane_of : t -> Packet.five_tuple -> int
(** Owning lane of a (forward-oriented) 5-tuple. *)

val shutdown : t -> unit
(** Join the worker pool (no-op for 1 lane, and idempotent). *)

(** {2 Mirrored control plane} — same contracts as the {!Plane}
    functions of the same name; ids returned are valid on every lane. *)

val add_site : t -> string -> int
val add_forwarder : t -> site:int -> int
val add_edge : t -> site:int -> forwarder:int -> int

val add_vnf_instance :
  t -> vnf:int -> site:int -> forwarder:int -> ?weight:float -> unit -> int

val set_instance_weight : t -> int -> float -> unit
val fail_forwarder : t -> int -> unit
val revive_forwarder : t -> int -> unit
val fail_instance : t -> int -> unit
val revive_instance : t -> int -> unit
val reattach_edge : t -> int -> forwarder:int -> unit
val reattach_instance : t -> int -> forwarder:int -> unit

val install_rule :
  t ->
  forwarder:int ->
  chain_label:int ->
  egress_label:int ->
  stage:int ->
  (endpoint * float) list ->
  unit

val install_rx_rule :
  t ->
  forwarder:int ->
  chain_label:int ->
  egress_label:int ->
  stage:int ->
  (endpoint * float) list ->
  unit

val apply_delta : t -> forwarder:int -> Plane.rule_patch list -> int
(** Mirrored batched rule patching ({!Plane.apply_delta}); the lanes must
    agree on the applied count, which the id-alignment invariant
    guarantees. *)

val reset_counters : t -> unit

val transfer_flows : t -> from_instance:int -> to_instance:int -> int
(** Mirrored; the per-lane moved counts (each lane owns a disjoint set of
    connections) sum to the single-plane total. *)

val instance_flow_count : t -> int -> int
(** Summed over lanes: flow-table cells still pinning a connection to the
    VNF instance — the occupancy a scale-in drain polls until zero (see
    {!Plane.instance_flow_count}). *)

(** {2 Read-only views} (identical on every lane; served from lane 0) *)

val instance_vnf : t -> int -> int
val instance_site : t -> int -> int
val instance_weight : t -> int -> float
val instance_alive : t -> int -> bool
val forwarder_alive : t -> int -> bool
val forwarder_site : t -> int -> int
val site_name : t -> int -> string
val attached_instances : t -> forwarder:int -> int list
val forwarder_published_weight : t -> int -> int -> float

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

val mutations : t -> int

val arena_stats : t -> Plane.arena_stats
(** Lane 0's rule-arena occupancy (the lanes mirror each other). *)

val vnfs_in_trace : t -> endpoint list -> int list
val instances_in_trace : endpoint list -> int list

(** {2 Packet entry points} (routed to the owning lane) *)

val send_forward :
  t ->
  ingress:int ->
  chain_label:int ->
  egress_label:int ->
  ?size:int ->
  Packet.five_tuple ->
  (endpoint list, error) result

val send_reverse :
  t ->
  egress:int ->
  chain_label:int ->
  egress_label:int ->
  ?size:int ->
  Packet.five_tuple ->
  (endpoint list, error) result

val drive :
  t ->
  ingress:int ->
  chain_label:int ->
  egress_label:int ->
  size:int ->
  Packet.five_tuple ->
  bool
(** Single packet, driven inline on the caller (the owning lane's plane is
    touched directly — probes and tests; batches go through
    {!drive_batch}). *)

val drive_batch :
  t ->
  ingress:int ->
  chain_label:int ->
  egress_label:int ->
  size:int ->
  Packet.five_tuple array ->
  int
(** Drive a whole batch: the caller partitions the batch into per-lane
    SPSC handoff rings (indices, in arrival order), the pool wakes one
    worker per lane to drain its ring against its private plane, and the
    join publishes the per-lane delivered counts. Returns the number of
    packets that reached an egress edge. With 1 lane, runs inline with no
    pool and is bit-identical to a {!Plane.drive} loop. *)

val end_flow : t -> Packet.five_tuple -> unit
(** Connection teardown on the owning lane (the only lane with state). *)

val set_clock : t -> int -> unit
(** Mirrored {!Plane.set_clock}: the logical timestamp packets stamp onto
    the flow-table entries they touch. The same range contract: a clock
    outside [\[0, 2^31)] raises [Invalid_argument] before any lane
    changes. *)

val clock : t -> int

val expire_flows : t -> idle_before:int -> int
(** {!Plane.expire_flows} on every lane; flow state is lane-private, so
    the per-lane eviction counts sum. *)

(** {2 Aggregated read-outs} (summed across lanes) *)

val flow_table_size : t -> forwarder:int -> int

val flow_table_stats : t -> forwarder:int -> int * int * int
(** [(count, capacity, max_probe)] summed/maxed across lanes. *)

val stage_counters :
  t -> chain_label:int -> egress_label:int -> stage:int -> int * int

val site_stage_counters :
  t -> site:int -> chain_label:int -> egress_label:int -> stage:int -> int * int

val site_stage_counters_into :
  t ->
  site:int ->
  chain_label:int ->
  egress_label:int ->
  pkts:int array ->
  bytes:int array ->
  unit
(** Lane-aggregated bulk form used by the telemetry exporter; scratch is
    reused, so like the [Plane] original it allocates only on the first
    call for a given stage width. *)
