(** Control-plane message vocabulary and topic naming (Sections 3 and 6).

    All controller coordination flows over the global message bus as
    [msg] payloads on string topics. Topic names follow the paper's
    convention: per-chain, per-egress, per-VNF, per-site topics such as
    ["/c1/e3/vnf_G/site_A_instances"]. *)

type chain_spec = {
  spec_name : string;
  ingress_attachment : string;
      (** customer attribute resolved by the edge controller, e.g. a
          customer edge-router identifier *)
  egress_attachment : string;
  vnfs : int list;  (** ordered VNF ids *)
  traffic : float;  (** expected demand, used for admission *)
}

type route = {
  element_sites : int array;
      (** a site per chain element: ingress edge site, one per VNF, egress
          edge site *)
  weight : float;  (** share of the chain's traffic on this route *)
}


(** Durable Global Switchboard state, persisted to the MUSIC store
    (Section 4.5) so a standby controller can recover committed chains. *)
type chain_record = {
  cr_spec : chain_spec;
  cr_routes : route list;
  cr_ingress : int;
  cr_egress : int;
}

type persisted =
  | Chain_record of chain_record
  | Chain_index of int list  (** ids of every committed chain *)

type stage_delta = {
  sd_stage : int;  (** chain stage the replacement applies to *)
  sd_tr : (int * int * float) array;
      (** the stage's new [(src_site, dst_site, weight)] transitions, one
          per route {e in route-list order} — Local Switchboards fold them
          in array order, so the float accumulation matches a full
          reinstall bit for bit *)
}

(** The wire form of one chain's compiled-diagram diff ({!Compile}): only
    the stages whose decision-diagram path changed, plus the per-VNF
    admission demand rows that changed. Versions make application
    order-safe: a participant applies a partial delta only on top of the
    exact base version it was diffed against. *)
type chain_delta = {
  cd_base : int;  (** committed version this diff was computed against *)
  cd_target : int;  (** version after applying the delta *)
  cd_nstages : int;  (** total stages of the chain (sanity/fallback check) *)
  cd_full : bool;
      (** [cd_stages] covers {e every} stage (a new chain or a recovered
          coordinator's re-drive: the diff from the empty diagram):
          applied unconditionally, resetting the participant's version
          lineage *)
  cd_stages : stage_delta list;  (** ascending by stage *)
  cd_demand : (int * (int * float) list) list;
      (** per changed VNF, its new per-site admission demand
          [(site, load)], sorted by site; VNFs absent from the list keep
          their currently committed allocation *)
}

(** One chain's entry in a {!msg.Site_telemetry} batch: the per-stage
    counts this site measured during the epoch's window (deltas, not
    cumulative counts). *)
type chain_telemetry = {
  ct_chain : int;
  ct_pkts : int array;  (** packets, indexed by stage *)
  ct_bytes : int array;  (** bytes, indexed by stage; same length *)
}

type msg =
  | Chain_request of { chain : int; spec : chain_spec }
  | Prepare of {
      txid : int;
      chain : int;
      delta : chain_delta;
          (** the compiled delta; VNF participants admit from
              [cd_demand] instead of recomputing demand from routes *)
      spec : chain_spec;
    }
  | Vote of { txid : int; participant : string; accept : bool; rejected : (int * int) list }
  | Commit of { txid : int }
  | Abort of { txid : int }
  | Decision_ack of { txid : int; participant : string }
      (** participant's confirmation that it applied a [Commit]/[Abort];
          the coordinator retransmits the decision until acked, which is
          what makes the 2PC tolerate wide-area message loss *)
  | Route_update of {
      chain : int;
      egress_label : int;
      spec : chain_spec;
      routes : route list;
      version : int;
    }
      (** a chain's full committed route set, retained on {!route_topic}
          (normally subscriber-free): the heal point a Local Switchboard
          subscribes to when a {!Route_delta} does not fit its state *)
  | Route_delta of {
      chain : int;
      egress_label : int;
      spec : chain_spec;
      delta : chain_delta;
    }
      (** the O(churn) commit announcement, broadcast on ["/chains"]
          while the full {!Route_update} is retained on {!route_topic} as
          the heal path for participants that detect a version gap (e.g.
          after wide-area loss) *)
  | Instance_info of { vnf : int; site : int; instances : (int * float) list }
      (** fabric VNF-instance ids and load-balancing weights *)
  | Forwarder_info of { vnf : int; site : int; forwarders : (int * float) list }
  | Edge_info of { site : int; edge : int; forwarder : int }
  | Site_telemetry of {
      site : int;
      epoch : int;
      down_links : int list;
          (** topology link ids this site's forwarders observe down *)
      table : int * int * int;
          (** [(count, capacity, max_probe)] of the site's connection
              tables, summed over its forwarders and the shard's lanes —
              flow-table occupancy for capacity planning and the
              cache-cliff analysis (load factor is [count /. capacity]) *)
      chains : chain_telemetry array;
          (** one entry per chain the site's Local Switchboard knows,
              ascending by chain id; an all-zero window is still an
              entry, because to the aggregator silence means loss *)
    }
      (** One site's measurement export for one epoch, on
          {!site_telemetry_topic} — the feedback the telemetry aggregator
          ([sb_adapt]) assembles into a measured traffic matrix
          (Section 4.1). The site-level fields travel once per batch,
          not once per chain. *)
  | Load_advert of {
      site : int;
      epoch : int;
      loads : (int * float) list;
          (** per deployed VNF, the site's currently carried load in
              traffic units, sorted by VNF id *)
      fwd_weights : (int * (int * float) list) list;
          (** per deployed VNF, the site's [(forwarder, weight)] load
              balancing targets (static fabric knowledge, flooded so a
              remote decision process can address this site's instances
              without per-chain 2PC admission) *)
      down_links : int list;
          (** topology link ids this site observes down, sorted *)
    }
      (** One site's flooded link-state/load advertisement for the
          decentralized anycast control arm ([Sb_adapt.Anycast]): flooded
          on {!advert_topic} to every peer site, which keeps the latest
          view, aged out by epoch staleness at the receiver. *)

val chain_request_topic : string

val votes_topic : string
(** The coordinator's one reply topic: every participant's votes and
    decision acks, each naming its txid. *)

val participant_topic : name:string -> string
val route_topic : chain:int -> string

val instances_topic : chain:int -> egress:int -> vnf:int -> site:int -> string
(** ["/c<chain>/e<egress>/vnf_<vnf>/site_<site>_instances"]. *)

val forwarders_topic : chain:int -> egress:int -> vnf:int -> site:int -> string

val site_telemetry_topic : site:int -> string
(** ["/telemetry/s<site>"] — the site's {!msg.Site_telemetry} batches; in
    Switchboard bus mode only sites subscribed to it (the Global
    Switchboard) receive them, one wide-area copy per batch. *)

val advert_topic : site:int -> string
(** ["/advert/s<site>"] — the site's retained {!msg.Load_advert} flood
    topic for the anycast arm; every participating site subscribes to
    every other site's topic (O(sites²) subscriptions, one WAN copy per
    subscribing site per publish). *)

val pp_msg : Format.formatter -> msg -> unit

val msg_size : msg -> int
(** Nominal serialized size in bytes (fixed header + flat field encoding:
    4 B ints, 8 B floats, strings verbatim). The {!Sb_msgbus.Bus} size
    hook — rollout bytes-on-wire measurements compare these across full
    route sets and compiled deltas, so only relative payload scaling
    matters. Telemetry counts are the exception: a {!msg.Site_telemetry}
    prices each stage delta as a zigzag varint (1 B below 64, one more
    byte per further 7 bits), because a window's counts are small and
    mostly zero. A [Prepare] is priced with 5 B more than its fields (the
    empty route list and option tag it once carried), so bus latencies
    stay as calibrated. *)

val topic_class : string -> string
(** Collapse a topic into its bounded family ("/chain/17/route" ->
    "/chain/*/route") so per-topic byte counters stay O(topic families)
    at million-chain scale. Used as the bus accounting's [topic_key]. *)
