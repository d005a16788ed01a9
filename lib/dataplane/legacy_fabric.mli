(** The seed fabric implementation (hashtables of boxed keys, one record
    per packet hop), preserved verbatim as the behavioural oracle for the
    packed data plane: the equivalence property in [test_dataplane.ml]
    drives identical traffic and churn through this module and {!Plane}
    and asserts identical traces, errors, flow-table sizes and counters.
    Nothing outside that test uses it.

    The API and per-function semantics are exactly {!Plane}'s — see that
    module for documentation (error messages keep the seed's [Fabric]
    prefix). Types are equated with {!Plane}'s so results
    from the two implementations compare directly. *)

type t

type endpoint = Plane.endpoint = Edge of int | Forwarder of int | Vnf_instance of int

type flow_store = Plane.flow_store = Local | Replicated of int

type error = Plane.error =
  | No_rule of { forwarder : int; stage : int }
  | No_reverse_entry of { forwarder : int; stage : int }
  | Instance_down of int
  | Forwarder_down of int
  | Ttl_exceeded
  | Not_an_edge

val pp_error : Format.formatter -> error -> unit
val create : ?seed:int -> ?flow_store:flow_store -> unit -> t
val add_site : t -> string -> int
val add_forwarder : t -> site:int -> int
val add_edge : t -> site:int -> forwarder:int -> int

val add_vnf_instance :
  t -> vnf:int -> site:int -> forwarder:int -> ?weight:float -> unit -> int

val instance_vnf : t -> int -> int
val instance_site : t -> int -> int
val instance_weight : t -> int -> float
val set_instance_weight : t -> int -> float -> unit
val instance_alive : t -> int -> bool
val forwarder_alive : t -> int -> bool
val fail_forwarder : t -> int -> unit
val revive_forwarder : t -> int -> unit
val revive_instance : t -> int -> unit
val fail_instance : t -> int -> unit
val reattach_edge : t -> int -> forwarder:int -> unit
val reattach_instance : t -> int -> forwarder:int -> unit
val forwarder_site : t -> int -> int
val site_name : t -> int -> string
val attached_instances : t -> forwarder:int -> int list
val forwarder_published_weight : t -> int -> int -> float

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

val rule :
  t ->
  forwarder:int ->
  chain_label:int ->
  egress_label:int ->
  stage:int ->
  (endpoint * float) list option

val flow_table_size : t -> forwarder:int -> int

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

val vnfs_in_trace : t -> endpoint list -> int list
val instances_in_trace : endpoint list -> int list
val end_flow : t -> Packet.five_tuple -> unit
val transfer_flows : t -> from_instance:int -> to_instance:int -> int

val stage_counters :
  t -> chain_label:int -> egress_label:int -> stage:int -> int * int

val site_stage_counters :
  t -> site:int -> chain_label:int -> egress_label:int -> stage:int -> int * int

val reset_counters : t -> unit
