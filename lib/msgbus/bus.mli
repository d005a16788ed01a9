(** The Switchboard global message bus (Section 6).

    A publish/subscribe fabric over the discrete-event engine. Every site
    runs a message proxy; all publishers and subscribers of a site attach
    to their local proxy. In {!Switchboard} mode, subscription filters are
    installed at the {e publisher's} site proxy, so a published message
    crosses the wide area {e once per subscribing site} regardless of how
    many subscribers that site hosts, and sites with no subscribers receive
    nothing. In {!Full_mesh} mode (the baseline of Fig. 9), the publisher
    sends one copy per {e subscriber}.

    Each proxy has a finite-rate egress (message serialization onto shared
    TCP connections) with a bounded buffer: excess load queues, overflow
    drops — the mechanism behind Fig. 9's order-of-magnitude latency gap
    and 57 % throughput gap.

    Topics are strings (e.g. ["/c1/e3/vnf_O/site_B_forwarders"]). A
    state topic is {e retained} ({!publish_retained}): the proxy keeps the
    last payload and replays it to late subscribers after their filter
    install completes, which is what lets Switchboard "replicate
    control-plane state in a fine-grained manner only at the required
    sites". Event topics (requests, votes, telemetry) use {!publish} and
    keep nothing, so the bus holds state only for topics a late
    subscriber reads and for topics with live subscriptions. *)

type 'a t

type mode =
  | Switchboard
  | Full_mesh
  | Route_reflector of int
      (** iBGP-style dissemination (the Section 6 strawman): every update
          goes to a reflector site, which floods one copy to {e every}
          other site whether or not it has subscribers. Scales better than
          full mesh but cannot target interested sites, and the reflector's
          egress serializes all control traffic. *)

type fault_decision =
  | Deliver  (** let the copy through untouched *)
  | Drop  (** lose the copy on the wire (counted in [fault_dropped]) *)
  | Delay of float
      (** add this many seconds of latency; later messages of the same
          site pair never overtake it (shared-connection FIFO) *)

type stats = {
  published : int;
  delivered : int;
  dropped : int;  (** egress-buffer overflows *)
  fault_dropped : int;  (** copies dropped by the installed fault hook *)
  wan_messages : int;  (** messages that crossed between sites *)
  latencies : float list;
      (** publish-to-deliver samples. Bounded: a deterministic fixed-size
          reservoir (16 384 samples) of the deliveries since the last
          {!reset_stats} — exact (newest first) until the reservoir fills,
          a uniform sample of the whole run beyond that, so percentile
          queries stay meaningful while memory stays O(1) in run length. *)
  latency_count : int;
      (** total latency observations, including those aged out of the
          reservoir *)
  published_bytes : int;
      (** sum of payload sizes over every [publish] (0 unless a [size_fn]
          was given to {!create}) *)
  wan_bytes : int;
      (** sum of payload sizes over every wide-area copy that entered an
          egress queue — the bytes-on-wire number rollout benches compare *)
  topic_bytes : (string * int * int) list;
      (** per topic class ([topic_key] of the topic), [(class, publishes,
          bytes)] since the last {!reset_stats}, sorted by class *)
  sizes : int list;
      (** per-publish payload sizes; bounded by the same deterministic
          reservoir discipline as [latencies] *)
  size_count : int;  (** total size observations, including aged-out ones *)
}

val create :
  Sb_sim.Engine.t ->
  mode:mode ->
  num_sites:int ->
  delay:(int -> int -> float) ->
  ?egress_rate:float ->
  ?bandwidth:float ->
  ?size_fn:('a -> int) ->
  ?topic_key:(string -> string) ->
  ?buffer:int ->
  unit ->
  'a t
(** [delay s1 s2] is the one-way proxy-to-proxy delay in seconds.
    [egress_rate] is per-proxy egress capacity in messages/s (default
    20_000); [buffer] the egress queue bound in messages (default 64).

    [size_fn] prices each payload in bytes and turns on bytes-on-wire
    accounting ([published_bytes]/[wan_bytes]/[topic_bytes]/[sizes] in
    {!stats}). [topic_key] collapses topic names into a bounded class set
    for the per-topic counters (default: identity — fine for small runs,
    pass a classifier at scale). [bandwidth], in bytes/s, makes egress
    serialization proportional to payload size ([size /. bandwidth])
    instead of the flat per-message [1 /. egress_rate] — only meaningful
    together with [size_fn]; when absent, timing is byte-blind exactly as
    before. *)

val subscribe : 'a t -> site:int -> topic:string -> ('a -> unit) -> unit
(** Install a subscription. The filter reaches the relevant proxies after a
    one-way control delay; once installed, the topic's retained payload (if
    any) is delivered to the new subscriber. *)

val publish : 'a t -> site:int -> topic:string -> 'a -> unit
(** Publish from a site; deliveries are scheduled on the engine. Local
    subscribers receive the message after a negligible in-site delay. The
    payload is not retained: a later subscriber never sees it. *)

val publish_retained : 'a t -> site:int -> topic:string -> 'a -> unit
(** {!publish}, and keep the payload as the topic's retained value,
    replayed to every later subscriber (the last value only). *)

val stats : 'a t -> stats
val reset_stats : 'a t -> unit

val set_wan_hook :
  'a t -> (msg:int -> topic:string -> src:int -> dst:int -> fault_decision) -> unit
(** Install the wide-area fault/observation hook ([sb_chaos]'s injection
    point). It is consulted once per wide-area copy, before egress
    queueing: [msg] is the publish ordinal (all copies of one [publish]
    share it — at-most-one hook call per (msg, dst) pair is exactly the
    Section 6 single-copy property), [src]/[dst] the proxy pair, [topic]
    the topic the copy serves. Retained-replay and intra-site deliveries
    never cross the wide area and are not hooked. At most one hook is
    installed; a second call replaces the first. *)

val clear_wan_hook : 'a t -> unit

val subscriber_sites : 'a t -> topic:string -> int list
(** Sites holding at least one installed subscription for a topic. *)

val subscribed_topics : 'a t -> int
(** Topics with at least one subscription. *)

val retained_topics : 'a t -> int
(** Topics holding a retained payload. *)
