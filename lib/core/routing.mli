(** Chain routings: the decision variables [x_czn1n2] and their evaluation.

    A routing assigns, for every chain and stage, the fraction of that
    stage's traffic sent between each (source node, destination node) pair
    — exactly the [x] variables of the chain-routing problem (Section 4.2).
    Constructors build routings from single paths or weighted path sets;
    evaluators compute the supported throughput and mean chain latency that
    the paper's figures report. *)

type t

val create : Model.t -> t
(** All-zero routing (no chain routed). Equivalent to
    [of_instance (Instance.compile m)]. *)

val of_instance : Instance.t -> t
(** All-zero routing over a pre-compiled instance. A stage's flows are
    held as parallel [(src, dst, frac)] arrays in insertion order
    (capacity-doubling); every evaluator walks them in that order. *)

val instance : t -> Instance.t
val model : t -> Model.t

val reset : t -> unit
(** Drop every stage flow in place (capacities are kept) — the arena
    primitive behind {!Eval}'s bisection. *)

val append_flow : t -> chain:int -> stage:int -> src:int -> dst:int -> frac:float -> unit
(** Add flow [(src, dst, frac)] after the stage's existing flows, without
    merging it into an identical hop. *)

val iter_stage : t -> chain:int -> stage:int -> (int -> int -> float -> unit) -> unit
(** [iter_stage t ~chain ~stage f] calls [f src dst frac] on each of the
    stage's flows in insertion order. *)

val clear_chain : t -> chain:int -> unit
(** Drop every flow of one chain in place (capacities are kept). *)

val add_path : t -> chain:int -> nodes:int array -> frac:float -> unit
(** Add fraction [frac] of a chain along the element-node sequence [nodes]
    (length [chain_length + 2]: ingress, one node per VNF, egress).
    Raises [Invalid_argument] on a length mismatch. *)

val validate : t -> (unit, string) result
(** Check that for every chain: stage-0 fractions sum to 1, flow is
    conserved at every intermediate element/site, flows connect only valid
    stage endpoints (Eqs. 1-2), VNF elements sit on nodes where that VNF is
    deployed, and fractions are non-negative. *)

val load_state : t -> Load_state.t
(** Commit the whole routing into a fresh load state. *)

val max_alpha : t -> float
(** {!Load_state.max_alpha} of {!load_state}: the throughput metric. *)

val max_alpha_into : Load_state.t -> t -> float
(** {!max_alpha} evaluated in a caller-owned arena: {!Load_state.reset}s
    the state, commits the packed flows (chains ascending, stages
    ascending, insertion order — the exact {!load_state} commit order, so
    the result is bit-identical) and reads the bottleneck. No allocation.
    Raises [Invalid_argument] unless the state was compiled from this
    routing's instance (physical equality). *)

val mean_latency : ?alpha:float -> ?vnf_service_time:float -> t -> float
(** Demand-weighted mean chain latency (the paper's latency metric,
    cf. Eq. 3 normalized by total traffic), at load scaling [alpha]
    (default 1): per-stage propagation delay plus an M/M/1-style sojourn
    [vnf_service_time / (1 - rho)] at each receiving VNF deployment, where
    [rho] is that deployment's utilization under [alpha]-scaled load.
    [infinity] once any traversed deployment saturates.
    [vnf_service_time] defaults to 1 ms. *)

val propagation_latency : t -> float
(** Mean latency from propagation only (no queueing). *)

val decompose_paths : t -> chain:int -> (int array * float) list
(** Decompose a chain's (splittable) stage flows into end-to-end paths with
    fractions: each path is an element-node sequence of length
    [chain_length + 2]; fractions sum to the chain's routed fraction.
    Standard flow decomposition — at most one path per flow-carrying arc,
    in discovery order; flow that does not reach the egress is dropped. *)

val pp_chain : Format.formatter -> t -> int -> unit
(** Render one chain's routes for humans. *)
