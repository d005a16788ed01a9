(** Compiled solver instance: {!Model.t} flattened into id-dense arrays.

    A model is compiled once and every engine (routing stores, load states,
    SB-DP, the greedy baselines, the LP generator) consumes the instance
    instead of re-walking the model's lists and hashtables. Chains' stages
    are laid out as one global CSR span ([stage_off]), per-stage candidate
    node sets are packed spans sharing the model's enumeration order, and
    the site/VNF tables become flat arrays.

    One piece of state is mutable: the demand [scale] factor. Engines
    read stage demand as [base *. scale], so {!Eval}'s bisection can probe
    a scaled instance in place instead of allocating a scaled model copy
    per probe. [scale = 1.] (the default) reproduces the model's demand
    bit-for-bit ([x *. 1. = x] for every finite float), and
    [set_scale t f] reproduces {!Model.with_scaled_traffic}[ m f] exactly
    — both compute [base *. f]. A model with a different deployment set
    (a placement scale-out or drain) is compiled afresh.

    Everything else is immutable after {!compile}, so one instance may be
    shared across domains by read-only consumers; an instance whose scale
    is mutated must be private to its domain. *)

type t

val compile : Model.t -> t

val model : t -> Model.t
val num_chains : t -> int
val num_nodes : t -> int
val num_sites : t -> int
val num_vnfs : t -> int

val num_stages_total : t -> int
(** Total global stages, [stage_off.(num_chains)]. *)

val num_stages : t -> int -> int
val stage_index : t -> chain:int -> stage:int -> int
(** The global stage id [stage_off.(chain) + stage]. *)

val scale : t -> float
val set_scale : t -> float -> unit
(** Set the demand scale factor read back by {!fwd_traffic} /
    {!rev_traffic} / {!fwd_base}-consuming engines. *)

val fwd_traffic : t -> chain:int -> stage:int -> float
(** [w_cz *. scale]. *)

val rev_traffic : t -> chain:int -> stage:int -> float

val stage_dst_nodes : t -> chain:int -> stage:int -> int list
(** Same nodes, same order as {!Model.stage_dst_nodes}, but the list is
    built once at compile time and shared. A stage's sources are the
    chain's ingresses at stage 0 and otherwise the previous stage's
    destinations ({!Model.stage_src_nodes}). *)

(** {2 Packed views}

    The returned arrays are the instance's own storage, exposed for
    zero-overhead hot loops — callers must not mutate them. *)

val stage_off : t -> int array
(** Length [num_chains + 1]; global stage span of each chain. *)

val fwd_base : t -> float array
(** Per global stage, unscaled — multiply by {!scale}. *)

val rev_base : t -> float array

val stage_vnf : t -> int array
(** Per global stage: VNF id of the receiving element, [-1] for the final
    (egress) stage. *)

val dst_off : t -> int array
(** CSR offsets into {!dst_nodes}, per global stage. *)

val dst_nodes : t -> int array

val node_site : t -> int array
(** Per node: its site id or [-1]. *)

val site_cap : t -> float array
val site_node : t -> int array
val vnf_cpu : t -> float array

val dep_cap : t -> float array
(** Dense [vnf * num_sites + site -> m_sf]; [0.] when not deployed. *)

val vdep_off : t -> int array
(** CSR offsets into {!vdep_site} / {!vdep_cap}, per VNF, in
    {!Model.vnf_sites} order (increasing site id). *)

val vdep_site : t -> int array
val vdep_cap : t -> float array
