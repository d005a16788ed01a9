(** Weighted load balancing and hierarchical weight composition
    (Section 5.2).

    A forwarder's rule is a weighted list of next hops. Hierarchical
    composition builds the weights the Local Switchboard installs: the
    site-level traffic-engineering fraction [x_czn1n2] multiplied by the
    weight of the forwarder or instance within the site, normalized over
    the site's hops ({!compose}); a forwarder's own published weight is
    the sum of the weights of the VNF instances attached to it
    ([Plane.forwarder_published_weight]). *)

type 'hop rule = ('hop * float) list

val pick : Sb_util.Rng.t -> 'hop rule -> 'hop
(** Weighted random choice. Raises [Invalid_argument] on an empty rule or
    non-positive total weight. *)

val cumulative : float array -> float array * bool
(** [cumulative ws] is [(cum, has_negative)]: the left-to-right
    cumulative sums of [ws] (same float-addition order as {!pick}'s
    accumulation, so a binary-search draw over [cum] — see
    {!Sb_util.Rng.weighted_index_cum} — lands on exactly the index {!pick}
    would choose; the last sum is the total) and whether any weight is
    negative. The compiled dataplane calls this once per rule install
    instead of once per packet. *)

val normalize : 'hop rule -> 'hop rule
(** Scale weights to sum to 1; drops non-positive entries. *)

val compose :
  site_fraction:(int * float) list ->
  per_site:(int -> 'hop rule) ->
  'hop rule
(** [compose ~site_fraction ~per_site] multiplies each site's
    traffic-engineering fraction with the in-site weights of its hops:
    the hierarchical rule installed at a forwarder. *)
