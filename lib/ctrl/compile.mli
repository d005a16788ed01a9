(** Rule compiler: chains to hash-consed decision diagrams, diffed into
    O(churn) rollout deltas (ROADMAP item 2, after Frenetic's NetKAT
    compiler).

    The [(chain, egress, stage) -> targets/weights] rule space a chain
    induces is fully determined by its per-stage {e transition tables}
    [(src_site, dst_site, weight)] (one row per route, in route order) —
    every Local Switchboard rule is a pure function of one stage's table
    plus locally learned instance/forwarder weights. A chain therefore
    compiles to a {e spine}: one interned node per stage, keyed by
    [(action id, tail id)] where the action is the stage's interned
    transition table and the tail the next stage's node. Interning is
    global and shared: two chains that route identically from stage [k]
    on share every node from [k] down, so

    - memory is O(distinct suffixes), not O(chains x stages), and
    - [diff] walks two spines only until their node ids meet — emitting a
      delta costs O(changed stages).

    Snapshots ([t]) are persistent maps from chain to (root, version,
    demand) over the shared interner; the Global Switchboard keeps one
    snapshot per {e committed} state and diffs prepared updates against
    it to build the {!Types.chain_delta} payloads of the delta 2PC. *)

open Types

type transitions = (int * int * float) array
(** One stage's transition table, in route-list order (order is
    load-bearing: installers fold weights in array order, which must
    replicate the full-reinstall float accumulation bit for bit). *)

type t
(** A compiled snapshot of every committed chain. Persistent — [commit]
    returns a new snapshot, sharing the interner. *)

type prepared
(** One chain's compiled next state: root node, target version and
    per-VNF admission demand. Produced when a 2PC starts, turned into the
    committed state by {!commit} when it decides. *)

val empty : unit -> t
(** Fresh snapshot over a fresh interner. A recovered standby starts
    empty — its first re-driven transaction per chain is a full delta,
    resetting participants' version lineage. *)

val version : t -> chain:int -> int
(** Committed version of a chain; 0 when never committed. *)

val prepare :
  ?version:int -> t -> chain:int -> spec:chain_spec -> routes:route list -> prepared
(** Intern the chain's spine for [routes] and compute its demand rows;
    the prepared version defaults to [version t ~chain + 1]. Pass
    [?version] when preparing against an uncommitted base (a queued
    update targets the in-flight transaction's version + 1, however many
    times it is superseded). O(stages) table lookups when the structure
    is already interned. *)

val commit : t -> chain:int -> prepared -> t
(** Snapshot with the chain's committed state replaced by [prepared]. *)

val delta_from_committed : t -> prepared -> chain_delta
(** Diff [prepared] against the chain's committed entry: only stages
    whose diagram path changed and only VNFs whose demand rows changed.
    Full ([cd_full]) when the chain has no committed entry or its VNF
    set/stage count changed. *)

val delta_between : t -> base:prepared -> target:prepared -> chain_delta
(** Like {!delta_from_committed} but against an uncommitted base — used
    to extend a queued update while another transaction is in flight. *)

val compose : chain_delta -> chain_delta -> chain_delta
(** [compose older newer]: the delta equivalent to applying [older] then
    [newer] — per-stage and per-VNF the newer entry wins, the base stays
    [older]'s. This is the merge a superseding queued update must perform
    (replacing, as the route-list queue used to, would silently drop the
    older delta's stages). A [cd_full] newer simply supersedes. *)

val transitions_of_routes : nstages:int -> route list -> transitions array
(** The per-stage transition tables of a route set (route-list order). *)

val demands_of_routes : chain_spec -> route list -> (int * (int * float) list) list
(** Per unique VNF (ascending), the per-site admission demand
    [(site, load)] sorted by site: [load] accumulates [weight *. traffic]
    over the routes in route-list order, once per chain element the VNF
    occupies at that site. These are the rows a delta's [cd_demand] ships
    and VNF controllers admit from; test_compile pins them bit for bit
    against a per-VNF recomputation from the route set. *)

type stats = {
  chains : int;
  nodes : int;  (** interned spine nodes (cumulative; excludes the leaf) *)
  actions : int;  (** interned transition tables (cumulative) *)
  stages_total : int;  (** sum of committed chains' stage counts *)
}

val stats : t -> stats
(** [nodes]/[stages_total] < 1 is the structural-sharing factor across
    chains reusing VNF suffixes. *)

val prepared_version : prepared -> int
