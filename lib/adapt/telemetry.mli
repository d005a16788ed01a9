(** Closed-loop telemetry: per-site exporters and the Global Switchboard
    aggregator (the measurement half of the Section 4.1 feedback loop).

    Exporters snapshot the data-plane fabric's per-stage packet/byte
    counters at their site each epoch, compute the window delta against
    their previous snapshot, and publish one {!Sb_ctrl.Types.msg.Site_telemetry}
    batch on the site's telemetry topic: the site's down links and table
    snapshot once, then one entry per chain the site knows. Deltas over
    cumulative counters mean no global counter reset is needed and a lost
    batch costs the site one window, not the baseline.

    The aggregator subscribes (at the Global Switchboard's site) to every
    site's telemetry topic and reassembles a measured per-chain traffic
    matrix plus a link-failure view. It keeps only the freshest sample per
    (chain, site); queries at epoch [e] consider a sample fresh while
    [e - sample_epoch < staleness], so late or dropped batches are papered
    over by the previous window until they age out. *)

module Exporter : sig
  type t

  val start :
    system:Sb_ctrl.System.t ->
    site:int ->
    period:float ->
    ?down_links:(unit -> int list) ->
    unit ->
    t
  (** Schedule the site's export process on the system's engine: first
      export fires [period] after the call and every [period] thereafter,
      numbering epochs from 0. [down_links] is the site's local view of
      failed topology links (e.g. incident link-liveness detection),
      included verbatim in every batch. A site that knows no chain yet
      publishes nothing. *)

  val stop : t -> unit
  (** Stop exporting; the next pending tick becomes a no-op. *)

  val exported : t -> int
  (** Total chain entries published so far, over all batches. *)
end

module Control : sig
  (** Control-plane cost snapshot — what running the control loops
      themselves costs, complementing the data-plane traffic matrix:
      bytes on the wire per topic class from the size-priced bus (every
      {!Sb_ctrl.System} bus prices payloads with
      {!Sb_ctrl.Types.msg_size}), and the data plane's rule-churn
      counters (mutation journal, rule-arena occupancy/compactions).
      The rollout benches read [bus_wan_bytes] before/after an epoch to
      measure what a route update actually shipped. *)

  type report = {
    bus_published : int;
    bus_wan_messages : int;
    bus_published_bytes : int;
    bus_wan_bytes : int;  (** bytes that crossed the wide area *)
    bus_topic_bytes : (string * int * int) list;
        (** per topic class: (class, publishes, bytes) *)
    bus_size_p50 : int;  (** median published payload size *)
    bus_size_p99 : int;
    dp_mutations : int;  (** rule-install journal length (lane 0) *)
    dp_slots_live : int;
    dp_words_used : int;
    dp_words_garbage : int;
    dp_compactions : int;
    churn_scale_outs : int;
        (** deployments elastic placement added ({!Sb_ctrl.System.scale_out}) *)
    churn_removed : int;  (** deployments retracted after a completed drain *)
    churn_drains_completed : int;
    churn_drains_aborted : int;  (** GSB death or timeout mid-drain *)
    churn_draining : int;  (** drains in flight at snapshot time *)
    churn_drain_p50 : float;
        (** median completed-drain duration in sim seconds (0 if none),
            from the {!Sb_ctrl.System.deployment_churn} reservoir *)
    churn_drain_max : float;
  }

  val snapshot : Sb_ctrl.System.t -> report
  (** Counters since the system's last [Bus.reset_stats] /
      construction. *)

  val pp : Format.formatter -> report -> unit
end

module Aggregator : sig
  type t

  val create :
    system:Sb_ctrl.System.t ->
    site:int ->
    chains:int list ->
    num_sites:int ->
    ?staleness:int ->
    unit ->
    t
  (** Subscribe at [site] to the telemetry topic of each of the
      [num_sites] sites, watching the chains in [chains] (system chain
      ids); entries for other chains are ignored. [staleness] (default 3)
      is the number of epochs a (chain, site) sample stays usable. *)

  val ingest : t -> Sb_ctrl.Types.msg -> unit
  (** Apply one delivered message — the subscription callback. A
      {!Sb_ctrl.Types.msg.Site_telemetry} batch is applied entry by entry:
      each watched chain's entry replaces that (chain, site) sample
      unless the sample is newer. Other messages are ignored. *)

  val chain_packets : t -> epoch:int -> chain:int -> int option
  (** Measured stage-0 packets for the chain summed over sites with a
      fresh sample at [epoch] — the chain's offered demand in packets per
      window. [None] when no site has a fresh sample (the caller should
      hold its previous estimate). *)

  val chain_stages : t -> epoch:int -> chain:int -> (int * int) array
  (** Per-stage [(packets, bytes)] summed over fresh sites — the measured
      row of the chain's traffic matrix. *)

  val down_links : t -> epoch:int -> int list
  (** Sorted union of the down-link observations in all fresh samples. *)

  val table_occupancy : t -> epoch:int -> int * int * int
  (** Flow-table [(count, capacity, max_probe)] summed over sites with a
      fresh sample at [epoch] (one sample per site; counts and capacities
      add, probe lengths max) — the deployment-wide connection-state
      occupancy, e.g. for charting throughput against table load factor. *)

  val reports : t -> int
  (** Total watched chain entries received over all batches (including
      superseded ones). *)

  val last_epoch : t -> int
  (** Highest epoch of any batch with a watched entry; [-1] before the
      first. *)
end
