(** Link-load accounting.

    Accumulates traffic volumes routed between node pairs (split over links
    by {!Paths} ECMP fractions) plus any background traffic [g_e], and
    reports per-link utilization and the maximum link utilization (MLU) —
    the network cost the operator bounds with the [beta] constraint in the
    chain-routing LP (Eq. 6). *)

type t

val create : Topology.t -> Paths.t -> t
(** All link loads start at 0. *)

val reset : t -> unit
(** Zero every link load (and the maintained per-link costs), restoring the
    state a fresh {!create} would produce. Background traffic added with
    {!add_background} is cleared too — callers that keep background around
    must re-add it. *)

val add_background : t -> int -> float -> unit
(** [add_background t link_id volume] adds non-Switchboard traffic to one
    link. *)

val add_flow : t -> src:int -> dst:int -> volume:float -> unit
(** Route [volume] from [src] to [dst] along ECMP shortest paths and charge
    each traversed link its fraction. No-op when [src = dst]. *)

val remove_flow : t -> src:int -> dst:int -> volume:float -> unit
(** Inverse of {!add_flow}. *)

val link_load : t -> int -> float
val utilization : t -> int -> float
(** [link load / bandwidth]. *)

val mlu : t -> float
(** Maximum utilization over all links; 0. for a linkless topology. *)

val path_max_utilization : t -> src:int -> dst:int -> float
(** Highest utilization among links that carry [src -> dst] traffic; 0. when
    [src = dst]. Used by SB-DP's network-utilization cost. *)

val path_network_cost : t -> src:int -> dst:int -> extra:float -> float
(** Fortz–Thorup cost of sending [extra] more volume from [src] to [dst]:
    the increase in the summed piecewise-linear link costs, weighted by each
    link's carried fraction (paper Section 4.4). Iterates the packed ECMP
    arrays directly — no allocation. Never negative for [extra >= 0.]: a
    link's load after the addition is clamped at 0., so the tiny negative
    residue {!remove_flow} can leave costs nothing rather than less. *)

val path_network_cost_pair :
  t -> src:int -> dst:int -> fwd:float -> rev:float -> float
(** [path_network_cost ~src ~dst ~extra:fwd +.
    path_network_cost ~src:dst ~dst:src ~extra:rev] fused into one call:
    charges a stage's forward and reverse traffic in a single pass — the
    shape SB-DP's stage cost needs. *)
