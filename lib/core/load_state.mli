(** Mutable resource-load accounting shared by all routing schemes.

    Tracks, for a {!Model.t}, the compute load on each site and each
    (VNF, site) deployment (per Eq. 4: a VNF is charged
    [l_f * (w + v)] for traffic it receives {e and} traffic it sends) and
    the Switchboard traffic on every link (background traffic [g_e] is kept
    separate because it does not scale with chain demand).

    SB-DP and the greedy baselines commit each chain's load here as they
    route; {!Routing.load_state} evaluates a complete routing in one pass.
    The capacity headroom of the accumulated loads determines the maximum
    supported traffic-scaling factor alpha (paper Section 4.2, cloud
    capacity planning, and the throughput metric of Fig. 12).

    Nothing is memoized: every cost query reads the current loads, so a
    commit never has anything to invalidate. *)

type t

val create : Model.t -> t
(** Zero Switchboard load; link background comes from the model.
    Equivalent to [of_instance (Instance.compile m)]. *)

val of_instance : Instance.t -> t
(** Zero Switchboard load over a pre-compiled instance. Demand reads go
    through the instance, so {!Instance.set_scale} changes what subsequent
    commits charge — the mechanism {!Eval}'s bisection uses to probe scaled
    demand without allocating a model copy per probe. *)

val model : t -> Model.t
val instance : t -> Instance.t

val reset : t -> unit
(** Return to the all-zero state of a fresh {!of_instance} in place: link,
    site and deployment loads are zeroed, but no arrays are reallocated.
    The arena primitive behind {!Eval}'s bisection. *)

val site_load : t -> int -> float
val vnf_load : t -> vnf:int -> site:int -> float
val link_sb_load : t -> int -> float
(** Switchboard traffic on a link, excluding background. *)

val site_utilization : t -> int -> float
val vnf_utilization : t -> vnf:int -> site:int -> float

val add_stage_flow :
  t -> chain:int -> stage:int -> src:int -> dst:int -> frac:float -> unit
(** Commit fraction [frac] of chain [chain]'s stage [stage] onto the
    node pair [src -> dst]: forward traffic [w_cz * frac] is routed
    [src -> dst], reverse traffic [v_cz * frac] is routed [dst -> src],
    and the endpoint VNFs (if the stage endpoints are VNF elements) are
    charged their compute load. [src]/[dst] are node ids. *)

val max_alpha : t -> float
(** Largest factor by which all committed Switchboard traffic could be
    scaled before some link exceeds [beta * b_e - g_e], some site exceeds
    [m_s], or some deployment exceeds [m_sf]. [infinity] when nothing is
    loaded; can be < 1 when the unit-demand routing already oversubscribes
    a resource. *)

val stage_cost :
  t -> util_weight:float -> chain:int -> stage:int -> src:int -> dst:int -> float
(** SB-DP's cost of routing a stage from node [src] to node [dst]
    (Section 4.4): propagation delay plus [util_weight] times the sum of
    the Fortz–Thorup network-utilization cost (over links on the path) and
    the compute-utilization cost of the receiving VNF at the destination.
    [util_weight = 0.] recovers the DP-LATENCY ablation. [infinity] when
    [dst] is unreachable from [src]. Computed as
    [delay +. util_weight *. (]{!stage_net_cost}[ +. ]{!stage_compute_cost}[)],
    the expression SB-DP's sweep evaluates. *)

val stage_compute_cost : t -> chain:int -> stage:int -> dst:int -> float
(** The compute-utilization term of {!stage_cost} alone: the convex-cost
    increase of the VNF deployment receiving the stage at [dst] (0. when
    the stage ends at the egress; [infinity] when the element is a VNF with
    no usable deployment at [dst]). Independent of [src] — the DP hoists it
    out of its inner loop. *)

val stage_net_cost : t -> chain:int -> stage:int -> src:int -> dst:int -> float
(** The network-utilization term of {!stage_cost} alone
    ({!Sb_net.Load.path_network_cost_pair} of the stage's forward and
    reverse demand). *)
