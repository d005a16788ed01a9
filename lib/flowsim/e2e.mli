(** Flow-level end-to-end evaluation of a chain routing (Section 7.2,
    Fig. 11): the TCP throughput and round-trip latency that clients behind
    each chain would observe.

    Each chain's routed fraction is decomposed into paths; every path
    carries a population of TCP connections. Connections compete max-min
    fairly for wide-area link capacity and VNF instance capacity; a
    connection's rate is additionally capped by its window/RTT product
    (long-RTT detours earn less throughput — why Compute-Aware trails on
    the paper's AWS testbed). Reported latency is the flow-weighted mean
    RTT: twice the path's propagation delay plus an M/M/1-style queueing
    term at each VNF whose deployment runs hot. *)

type result = {
  total_throughput : float;  (** sum of allocated rates, traffic units/s *)
  mean_rtt : float;  (** flow-weighted, seconds *)
  per_chain : (float * float) list;  (** (throughput, mean RTT) per chain *)
}

val evaluate :
  ?flows_per_chain:int ->
  ?window_rtt_cap:float ->
  ?vnf_service_time:float ->
  Sb_core.Routing.t ->
  result
(** [flows_per_chain] (default 16) connections per chain, spread over its
    paths proportionally to path fractions. [window_rtt_cap] (default 2.0)
    is the per-flow window product: a flow's rate is at most
    [window_rtt_cap /. rtt]. [vnf_service_time] (default 1 ms) drives the
    queueing term.

    Raises [Invalid_argument] if [flows_per_chain <= 0],
    [window_rtt_cap <= 0.] or [vnf_service_time < 0.], or if either
    float is NaN.

    One call costs one {!Maxmin.solve} over the routing's flows plus one
    [Sb_net.Paths.fractions] per distinct (src, dst) hop. *)
