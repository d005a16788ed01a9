(** Distributed load-balancing baselines (Section 7.2 / 7.3).

    These schemes route each chain hop by hop with only local knowledge, in
    contrast to Global Switchboard's holistic optimization:

    - {!anycast} picks, at every stage, the deployment site closest (by
      propagation delay) to the current location, ignoring both compute
      and network load — the ANYCAST baseline.
    - {!compute_aware} also scans sites in increasing delay order but skips
      sites whose remaining VNF/site compute capacity cannot absorb the
      chain; if no site has room it falls back to the one with the most
      headroom — the COMPUTE-AWARE baseline.
    - {!onehop} greedily minimizes SB-DP's full cost (latency +
      utilization) per hop, but without the chain-wide dynamic program —
      the ONEHOP ablation of Fig. 13a.

    All three process chains sequentially in chain-id order, committing
    load as they go (compute_aware and onehop are load-dependent). *)

val anycast : Model.t -> Routing.t
val compute_aware : Model.t -> Routing.t
val onehop : ?util_weight:float -> Model.t -> Routing.t
(** [util_weight] defaults to {!Dp_routing.default_util_weight}. *)

(** {2 Arena forms}

    Each [_into] variant resets the given load state and routing (both
    compiled from the same {!Instance}; [Invalid_argument] otherwise) and
    routes in place — no per-call allocation, demand read through the
    instance so {!Instance.set_scale} is honoured. Used by
    {!Eval.max_load_factor}'s bisection. *)

val anycast_into : Load_state.t -> Routing.t -> Routing.t
val compute_aware_into : Load_state.t -> Routing.t -> Routing.t
val onehop_into : ?util_weight:float -> Load_state.t -> Routing.t -> Routing.t

(** {2 Building blocks}

    Exposed for custom hop-by-hop schemes (notably the decentralized
    anycast control arm in [Sb_adapt.Anycast], which reuses the walk with
    a chooser driven by flooded advertisements instead of ground truth). *)

type choose = Load_state.t -> int -> int -> int -> int list -> int
(** [choose state chain stage current candidates] returns the chosen
    destination node for the stage. [candidates] is the stage's deployment
    node list ({!Instance.stage_dst_nodes} order). *)

val route : Model.t -> choose -> Routing.t
(** Compile the model and route every chain hop by hop with [choose],
    committing load between walks (chain-id order). *)

val by_delay : Model.t -> int -> int list -> int list
(** [by_delay m current candidates] sorts candidate nodes by propagation
    delay from [current] — the anycast preference order. *)
