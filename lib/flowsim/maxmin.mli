(** Max-min fair rate allocation — the fluid model of competing TCP flows
    used for the end-to-end throughput comparisons (Section 7.2, Figs. 10b
    and 11b).

    Flows traverse sets of capacitated resources (wide-area links, VNF
    instances). Progressive filling: all flows grow at the same rate; when
    a resource saturates, the flows through it freeze at the fair share and
    filling continues for the rest. *)

type t

val create : unit -> t

val add_resource : t -> capacity:float -> int
(** Returns the resource id. Raises [Invalid_argument] if [capacity] is
    NaN or [capacity <= 0]. *)

val add_flow : t -> ?demand:float -> int list -> int
(** [add_flow t resources] adds a flow through the given resources and
    returns its flow id. [demand] (default unlimited) caps the flow's
    rate. Raises [Invalid_argument] if [demand] is negative or NaN, or a
    resource id is unknown. *)

val solve : t -> float array
(** Per-flow max-min fair rates, indexed by flow id.

    Cost: O(I) to build the resource → flow incidence, O(F log F) to
    sort flows by demand, then O(live R + active I) per filling round,
    where I is the number of (flow, resource) incidences, F the number of
    flows and R the number of resources. A round saturates a resource or
    meets a demand, so it freezes at least one flow (bar a rounding
    remainder above the saturation threshold, which costs one more tiny
    round): at most about F rounds, usually far fewer.

    The result is bit-identical to textbook progressive filling with
    per-flow rates: each round's increment is the smallest of
    [remaining /. float k] over resources with [k > 0] unfrozen flows and
    of [demand -. rate] over unfrozen flows; every unfrozen flow's rate
    grows by it; each resource's remaining capacity is reduced by it once
    per unfrozen flow through it, by repeated subtraction; then flows
    with [rate >= demand -. 1e-12] or on a resource with
    [remaining <= 1e-9] freeze.

    Filling stops when every flow is frozen or no resource or demand
    bounds the increment. A flow that crosses no resource and has no
    demand therefore keeps the rate at which filling stopped — the rate
    of the last flows to freeze, or [0.] if every flow is unconstrained —
    not [infinity]. *)

val rate : t -> float array -> int -> float
val total_rate : float array -> float

val utilizations : t -> float array -> float array
(** Load/capacity of every resource under an allocation, indexed by
    resource id. Each load is summed over its flows in flow-id order. One
    pass over the incidences. *)

val resource_utilization : t -> float array -> int -> float
(** Load/capacity of one resource: [(utilizations t rates).(r)]. *)
