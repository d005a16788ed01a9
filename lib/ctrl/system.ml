module Bus = Sb_msgbus.Bus
module Engine = Sb_sim.Engine
module DP = Sb_dataplane.Shard
module Plane = Sb_dataplane.Plane
module Balancer = Sb_dataplane.Balancer
open Types

let broadcast_topic = "/chains"
let edge_forwarders_topic ~chain ~egress = Printf.sprintf "/c%d/e%d/edge_forwarders" chain egress

type site_info = {
  fab_site : int;
  mutable forwarders : int list; (* newest last; edges attach to the first *)
  mutable edge : int option;
}

type vnf_ctl = {
  v_id : int;
  mutable v_home : int; (* controller location: first deployment site *)
  v_capacity : (int, float) Hashtbl.t; (* site -> admission capacity *)
  v_committed : (int * int, float) Hashtbl.t; (* (chain, site) -> load *)
  v_reserved : (int, int * (int * float) list * bool) Hashtbl.t;
  (* txid -> chain, (site, load) list, republish flag; a commit REPLACES
     the chain's previous allocation (route updates are not additive).
     The flag is false when a compiled delta marked this VNF's demand
     unchanged: the allocation is re-reserved as-is and the Instance_info
     republish is skipped at commit — the O(churn) half of the rollout. *)
  v_voted : (int, int * msg) Hashtbl.t;
  (* txid -> chain and the Vote published, so a retransmitted Prepare (the
     original vote was lost in the wide area) is answered from memory
     instead of re-running admission — duplicate Prepares are idempotent.
     Dropped when the decision arrives. *)
  v_decided : (int, int) Hashtbl.t;
  (* chain -> highest txid whose decision arrived. 2PC is serialized per
     chain in txid order, so a Prepare at or below it is a stale copy of a
     decided transaction: it must not reserve again, and with the vote
     memory gone it is ignored. *)
  v_applied : (int, int) Hashtbl.t;
  (* chain -> highest txid whose Commit was applied. Under loss a Commit
     can be first received out of order (the original copy dropped, the
     retransmission landing after a newer transaction's Commit); applying
     only monotonically keeps every controller's final allocation equal
     to the coordinator's last decision. *)
  v_instances : (int, int list) Hashtbl.t; (* site -> fabric instance ids *)
}

type chain_state = {
  c_id : int;
  mutable c_spec : chain_spec;
  mutable c_routes : route list;
  mutable c_ingress : int option;
  mutable c_egress : int option;
}

type txn = {
  tx_id : int;
  tx_chain : int;
  tx_routes : route list;
  tx_spec : chain_spec;
  tx_prepared : Compile.prepared; (* the compiled target *)
  tx_delta : chain_delta; (* the wire diff *)
  mutable tx_waiting : string list;
  mutable tx_rejected : (int * int) list;
  tx_exclude : (int * int) list;
}

(* A decided transaction whose Commit/Abort has not been acknowledged by
   every participant yet. The coordinator retransmits the decision until
   the unacked set drains — the half of the loss-tolerance story that
   keeps a site from being left with a half-installed route set when a
   wide-area link eats the decision. *)
type decision = {
  d_msg : msg;
  d_spec : chain_spec;
  mutable d_unacked : string list;
}

(* A route set requested while the chain's transaction was still
   collecting votes, with its compiled target and a delta kept valid by
   {!Compile.compose} across supersedes — replacing the delta outright,
   as the old route-list queue did with routes, would silently drop the
   superseded update's changed stages from what eventually ships. *)
type queued = {
  q_routes : route list;
  q_exclude : (int * int) list;
  q_comp : Compile.prepared * chain_delta;
}

(* A Local Switchboard's view of one chain: spec, egress label and the
   per-stage transition tables ([(src_site, dst_site, weight)] in route
   order) that rule computation folds — exactly the decision-diagram
   actions {!Compile} interns, so a partial delta patches [lc_tr] in
   place. [lc_version] is the delta-application guard: a partial delta
   applies only on the exact base version it was diffed against. *)
type local_chain = {
  lc_id : int;
  mutable lc_spec : chain_spec;
  mutable lc_egress : int;
  mutable lc_version : int;
  mutable lc_tr : (int * int * float) array array;
}

(* Per-site Local Switchboard: accumulates route and weight knowledge from
   the bus and converts it into forwarder rules (Section 3, step 5). *)
type local_sb = {
  ls_site : int;
  ls_known : (int, local_chain) Hashtbl.t;
  ls_instance_info : (int * int * int, (int * float) list) Hashtbl.t;
  (* (chain, vnf, site) -> instances *)
  ls_fwd_info : (int * int * int, (int * float) list) Hashtbl.t;
  ls_installed : (int * int * int, (Plane.endpoint * float) list) Hashtbl.t;
  (* (chain, egress, stage) -> last installed rule *)
  ls_installed_rx : (int * int * int, (Plane.endpoint * float) list) Hashtbl.t;
  (* (chain, egress, stage) -> last installed receiver-side rule *)
  ls_published_weight : (int * int, float) Hashtbl.t; (* (chain, vnf) -> weight *)
  ls_subscribed : (string, unit) Hashtbl.t;
}

(* Deployment-churn counters: how much elastic placement has reshaped the
   fabric. Scale-outs and retractions are rare control-plane events, so a
   plain capped list is the drain-duration reservoir. *)
type churn = {
  ch_scale_outs : int;  (** deployments added by {!scale_out} *)
  ch_removed : int;  (** deployments retracted after a completed drain *)
  ch_drains_completed : int;
  ch_drains_aborted : int;  (** GSB death or timeout mid-drain *)
  ch_draining : int;  (** drains in progress right now *)
  ch_drain_durations : float list;
      (** wall-clock (sim) seconds of the most recent completed drains,
          oldest first, capped at 64 *)
}

type t = {
  eng : Engine.t;
  bus : msg Bus.t;
  fabric : DP.t;
  sites : site_info array;
  locals : local_sb array;
  gsb_site : int;
  delay : int -> int -> float;
  install_latency : float;
  retry_interval : float;
  mutable compiled : Compile.t;
  (* The Global Switchboard's committed decision diagrams; prepared
     updates diff against this snapshot to build delta payloads. *)
  vnf_ctls : (int, vnf_ctl) Hashtbl.t;
  chains : (int, chain_state) Hashtbl.t;
  txns : (int, txn) Hashtbl.t;
  decisions : (int, decision) Hashtbl.t;
  chain_inflight : (int, int) Hashtbl.t; (* chain -> txid awaiting votes *)
  queued_routes : (int, queued) Hashtbl.t;
  (* chain -> the newest route set requested while a transaction for the
     chain was still collecting votes. 2PC is serialized per chain so
     that decisions happen in txid order — the participants' monotonic
     apply guard depends on it. *)
  mutable gsb_down : bool;
  attachments : (string, int) Hashtbl.t; (* attachment -> site *)
  mutable next_chain : int;
  mutable next_txid : int;
  mutable route_policy :
    (chain_spec -> exclude:(int * int) list -> route list option) option;
  mutable store : persisted Sb_music.Store.t option;
  mutable persisted_index : int list;
  mutable log_enabled : bool;
  events : (float * string) list ref;
  mutable churn_scale_outs : int;
  mutable churn_removed : int;
  mutable churn_drains_done : int;
  mutable churn_drains_aborted : int;
  mutable churn_draining : int;
  mutable churn_durations : float list; (* newest first, capped at 64 *)
}

(* Lazy logging in the Logs style: [logf t (fun m -> m "fmt" ...)] only
   formats (and only evaluates the arguments' [List.length] etc.) when
   logging is enabled, so the 2PC hot path pays nothing with logs off. *)
let logf t k =
  if t.log_enabled then
    k (fun fmt ->
        Printf.ksprintf
          (fun s -> t.events := (Engine.now t.eng, s) :: !(t.events))
          fmt)

let set_logging t enabled = t.log_enabled <- enabled

let engine t = t.eng
let bus t = t.bus
let shard t = t.fabric
let site_forwarder t s = List.hd t.sites.(s).forwarders
let site_forwarders t s = t.sites.(s).forwarders
let site_edge t s = t.sites.(s).edge
let log t = List.rev !(t.events)

let log_between t lo hi =
  List.filter (fun (ts, _) -> ts >= lo && ts <= hi) (log t)

let chain_elements spec = Array.of_list ((-1) :: spec.vnfs @ [ -2 ])
(* element VNF ids with -1 = ingress edge, -2 = egress edge *)

let compile_stats t = Compile.stats t.compiled

(* ---------------- Local Switchboard rule computation ---------------- *)

let ls_subscribe t ls topic callback =
  if not (Hashtbl.mem ls.ls_subscribed topic) then begin
    Hashtbl.replace ls.ls_subscribed topic ();
    Bus.subscribe t.bus ~site:ls.ls_site ~topic callback
  end

(* The weighted rules at [ls] for one stage of one chain: [None] while
   some required weight information has not arrived yet, [Some (None,
   None)] when the stage's routes do not touch this site. The first
   component is the full rule; the second is the receiver-side rule
   (local deliveries only) installed when this site receives the stage's
   traffic — a packet handed over by a remote forwarder is mid-relay and
   must be delivered into a local element, never balanced onward to yet
   another site (which happens when one site is the sender of one route
   and the receiver of another for the same stage, and would both break
   chain routing and collide in the fabric's role-keyed flow store).

   Both rules are hierarchical (Section 5.2, {!Balancer.compose}): each
   route's site-level fraction times the in-site weights of the next-hop
   site's hops, normalized within that site — its forwarders weighted by
   their published instance weight when the site is remote, the local
   instances (or the egress edge) when it is this one. A site with more
   instances thus takes its share of the route, not more.

   The fold runs over the stage's transition table in route-list order —
   the same floats in the same order whether the table arrived as a
   compiled delta or from the retained full route set (a heal), so a site
   that healed installs bit-identical rules to one that never lost a
   delta. *)
let compute_stage_rule t ls (lc : local_chain) stage =
  let next_vnf = (chain_elements lc.lc_spec).(stage + 1) in
  let missing = ref false in
  let known = function
    | Some (_ :: _ as hops) -> hops
    | Some [] | None ->
      missing := true;
      []
  in
  (* The in-site hops of [site] with their raw weights. *)
  let per_site site =
    if site = ls.ls_site then
      if next_vnf = -2 then
        match t.sites.(site).edge with
        | Some e -> [ (Plane.Edge e, 1.) ]
        | None ->
          missing := true;
          []
      else
        List.map
          (fun (i, w) -> (Plane.Vnf_instance i, w))
          (known (Hashtbl.find_opt ls.ls_instance_info (lc.lc_id, next_vnf, site)))
    else if next_vnf = -2 then [ (Plane.Forwarder (List.hd t.sites.(site).forwarders), 1.) ]
    else
      List.map
        (fun (f, w) -> (Plane.Forwarder f, Float.max w 1e-9))
        (known (Hashtbl.find_opt ls.ls_fwd_info (lc.lc_id, next_vnf, site)))
  in
  (* Site fractions, keyed by each route's next-hop site: the full rule
     takes every route this site sends or receives on, the receiver-side
     rule only those it receives. *)
  let sends = ref [] and receives = ref [] in
  Array.iter
    (fun (s_z, s_z1, weight) ->
      if s_z = ls.ls_site || s_z1 = ls.ls_site then sends := (s_z1, weight) :: !sends;
      if s_z1 = ls.ls_site then receives := (s_z1, weight) :: !receives)
    lc.lc_tr.(stage);
  (* Merge duplicate targets. *)
  let merge lst =
    let merged = Hashtbl.create 8 in
    List.iter
      (fun (tgt, w) ->
        let cur = try Hashtbl.find merged tgt with Not_found -> 0. in
        Hashtbl.replace merged tgt (cur +. w))
      lst;
    Hashtbl.fold (fun tgt w acc -> (tgt, w) :: acc) merged [] |> List.sort compare
  in
  if !sends = [] then Some (None, None)
  else
    let targets = Balancer.compose ~site_fraction:!sends ~per_site in
    let rx_targets = Balancer.compose ~site_fraction:!receives ~per_site in
    if !missing then None
    else Some (Some (merge targets), match rx_targets with [] -> None | rx -> Some (merge rx))

let try_install t ls (lc : local_chain) =
  let egress = lc.lc_egress in
  let changed = ref [] in
  for stage = 0 to Array.length lc.lc_tr - 1 do
    match compute_stage_rule t ls lc stage with
    | None -> ()
    | Some (rule, rx) ->
      let key = (lc.lc_id, egress, stage) in
      let old_rx = Hashtbl.find_opt ls.ls_installed_rx key in
      if Hashtbl.find_opt ls.ls_installed key <> rule || old_rx <> rx then begin
        let set tbl = function
          | Some r -> Hashtbl.replace tbl key r
          | None -> Hashtbl.remove tbl key
        in
        set ls.ls_installed rule;
        set ls.ls_installed_rx rx;
        (* Rules the current routes no longer call for are retracted (an
           empty patch), as a replay of those routes from empty would never
           have installed them. *)
        let rx = if rx = None && old_rx <> None then Some [] else rx in
        changed := (stage, Option.value rule ~default:[], rx) :: !changed
      end
  done;
  match List.rev !changed with
  | [] -> ()
  | changed ->
    (* One batched data-plane transaction for every stage that moved:
       the packed arrays are patched through [DP.apply_delta]'s journal
       instead of one install call per stage. *)
    let patches =
      List.concat_map
        (fun (stage, rule, rx) ->
          { Plane.rp_chain = lc.lc_id; rp_egress = egress; rp_stage = stage;
            rp_rx = false; rp_targets = rule }
          :: (match rx with
             | Some r ->
               [ { Plane.rp_chain = lc.lc_id; rp_egress = egress; rp_stage = stage;
                   rp_rx = true; rp_targets = r } ]
             | None -> []))
        changed
    in
    ignore
      (Engine.schedule t.eng ~delay:t.install_latency (fun () ->
           List.iter
             (fun forwarder -> ignore (DP.apply_delta t.fabric ~forwarder patches))
             t.sites.(ls.ls_site).forwarders;
           List.iter
             (fun (stage, rule, _) ->
               logf t (fun m ->
                   m "site %d: installed rule chain=%d stage=%d (%d targets)"
                     ls.ls_site lc.lc_id stage (List.length rule)))
             changed))

(* Publish this site's forwarder weight for a VNF of a chain once the local
   instance weights are known. *)
let maybe_publish_forwarder_weight t ls (lc : local_chain) vnf =
  match Hashtbl.find_opt ls.ls_instance_info (lc.lc_id, vnf, ls.ls_site) with
  | Some insts when insts <> [] ->
    let egress = lc.lc_egress in
    let weight = List.fold_left (fun a (_, w) -> a +. w) 0. insts in
    let key = (lc.lc_id, vnf) in
    let already =
      match Hashtbl.find_opt ls.ls_published_weight key with
      | Some w -> w = weight
      | None -> false
    in
    if not already then begin
      Hashtbl.replace ls.ls_published_weight key weight;
      ignore weight;
      let per_forwarder =
        List.filter_map
          (fun f ->
            let w = DP.forwarder_published_weight t.fabric f vnf in
            if w > 0. then Some (f, w) else None)
          t.sites.(ls.ls_site).forwarders
      in
      Bus.publish_retained t.bus ~site:ls.ls_site
        ~topic:(forwarders_topic ~chain:lc.lc_id ~egress ~vnf ~site:ls.ls_site)
        (Forwarder_info { vnf; site = ls.ls_site; forwarders = per_forwarder })
    end
  | _ -> ()

(* Subscribe to the weight topics this site needs for the given stages of
   a chain — all of them on a full update, only the changed ones on a
   partial delta (a stage's subscriptions depend only on that stage's
   transitions, so unchanged stages keep the subscriptions they already
   installed). *)
let ls_scan_topics t ls (lc : local_chain) stages =
  let spec = lc.lc_spec in
  let elements = chain_elements spec in
  let egress = lc.lc_egress in
  let need_instances = Hashtbl.create 8 in
  let need_forwarders = Hashtbl.create 8 in
  List.iter
    (fun stage ->
      let next_vnf = elements.(stage + 1) in
      Array.iter
        (fun (s_z, s_z1, _) ->
          if s_z = ls.ls_site && next_vnf >= 0 then
            if s_z1 = ls.ls_site then Hashtbl.replace need_instances (next_vnf, s_z1) ()
            else Hashtbl.replace need_forwarders (next_vnf, s_z1) ();
          (* Sites hosting a VNF element publish their forwarder weight and
             watch local instances. *)
          if s_z1 = ls.ls_site && next_vnf >= 0 then
            Hashtbl.replace need_instances (next_vnf, s_z1) ())
        lc.lc_tr.(stage))
    stages;
  let sub_instances (vnf, site) () =
    ls_subscribe t ls (instances_topic ~chain:lc.lc_id ~egress ~vnf ~site) (function
      | Instance_info { vnf = v; site = s; instances } ->
        Hashtbl.replace ls.ls_instance_info (lc.lc_id, v, s) instances;
        maybe_publish_forwarder_weight t ls lc v;
        try_install t ls lc
      | _ -> ())
  in
  let sub_forwarders (vnf, site) () =
    ls_subscribe t ls (forwarders_topic ~chain:lc.lc_id ~egress ~vnf ~site) (function
      | Forwarder_info { vnf = v; site = s; forwarders } ->
        Hashtbl.replace ls.ls_fwd_info (lc.lc_id, v, s) forwarders;
        try_install t ls lc
      | _ -> ())
  in
  Hashtbl.iter sub_instances need_instances;
  Hashtbl.iter sub_forwarders need_forwarders;
  (* Sites hosting the first VNF listen for edge forwarders appearing at
     new edge sites (Section 6 / Table 2). *)
  let hosts_first_vnf =
    List.mem 0 stages
    && Array.exists (fun (_, s_z1, _) -> s_z1 = ls.ls_site) lc.lc_tr.(0)
  in
  if hosts_first_vnf then
    ls_subscribe t ls (edge_forwarders_topic ~chain:lc.lc_id ~egress) (function
      | Forwarder_info { site; _ } ->
        logf t (fun m ->
            m "site %d: 1st VNF's fwrdr receives edge's fwrdr info (edge site %d)"
              ls.ls_site site);
        logf t (fun m ->
            m "site %d: 1st VNF's fwrdr starts dataplane configuration" ls.ls_site);
        ignore
          (Engine.schedule t.eng ~delay:t.install_latency (fun () ->
               logf t (fun m ->
                   m "site %d: 1st VNF's fwrdr finishes configuration" ls.ls_site)))
      | _ -> ())

let all_stages_of tr = List.init (Array.length tr) Fun.id

(* React to a committed full route set: (re)build the chain's transition
   tables, reset the version lineage, subscribe, install. *)
let ls_apply_full t ls ~chain ~egress ~spec ~version tr =
  let lc =
    match Hashtbl.find_opt ls.ls_known chain with
    | Some lc ->
      lc.lc_spec <- spec;
      lc.lc_egress <- egress;
      lc.lc_version <- version;
      lc.lc_tr <- tr;
      lc
    | None ->
      let lc =
        { lc_id = chain; lc_spec = spec; lc_egress = egress; lc_version = version;
          lc_tr = tr }
      in
      Hashtbl.replace ls.ls_known chain lc;
      lc
  in
  ls_scan_topics t ls lc (all_stages_of tr);
  try_install t ls lc

(* One-time catch-up for a Local Switchboard that received a delta it
   cannot apply (version gap after wide-area loss, or a partial delta for
   a chain it never learned): subscribing to the chain's route topic
   replays the retained full Route_update, and keeps the site on the full
   feed from then on. *)
let ls_heal t ls ~chain =
  ls_subscribe t ls (route_topic ~chain) (function
    | Route_update { chain; egress_label; spec; routes; version } ->
      ls_apply_full t ls ~chain ~egress:egress_label ~spec ~version
        (Compile.transitions_of_routes ~nstages:(List.length spec.vnfs + 1) routes)
    | _ -> ())

(* React to a committed delta: patch the changed stages in place when the
   base version lines up, heal from the retained full state otherwise. A
   full delta (new chain, recovered coordinator) applies unconditionally
   and resets the lineage. *)
let ls_apply_delta t ls ~chain ~egress ~spec (d : chain_delta) =
  if d.cd_full then begin
    let tr = Array.make d.cd_nstages [||] in
    List.iter (fun sd -> tr.(sd.sd_stage) <- sd.sd_tr) d.cd_stages;
    ls_apply_full t ls ~chain ~egress ~spec ~version:d.cd_target tr
  end
  else
    match Hashtbl.find_opt ls.ls_known chain with
    | Some lc when lc.lc_version = d.cd_base && Array.length lc.lc_tr = d.cd_nstages ->
      List.iter (fun sd -> lc.lc_tr.(sd.sd_stage) <- sd.sd_tr) d.cd_stages;
      lc.lc_version <- d.cd_target;
      lc.lc_spec <- spec;
      lc.lc_egress <- egress;
      ls_scan_topics t ls lc (List.map (fun sd -> sd.sd_stage) d.cd_stages);
      try_install t ls lc
    | Some lc when lc.lc_version >= d.cd_target ->
      () (* stale duplicate of an already applied delta *)
    | _ ->
      logf t (fun m ->
          m "site %d: chain %d delta v%d->v%d does not fit local state; healing"
            ls.ls_site chain d.cd_base d.cd_target);
      ls_heal t ls ~chain

(* --------------------------- VNF controller ------------------------- *)

let vnf_committed_at v ~excluding_chain site =
  Hashtbl.fold
    (fun (c, s) load acc -> if s = site && c <> excluding_chain then acc +. load else acc)
    v.v_committed 0.

let vnf_on_prepare t (v : vnf_ctl) ~txid ~chain ~(delta : chain_delta) =
  let ok = ref true in
  let rejected = ref [] in
  let check site load =
    let cap = try Hashtbl.find v.v_capacity site with Not_found -> 0. in
    (* A route update replaces this chain's allocation, so its current
       load does not count against the new demand. *)
    let used = vnf_committed_at v ~excluding_chain:chain site in
    if used +. load > cap +. 1e-9 then begin
      ok := false;
      rejected := (v.v_id, site) :: !rejected
    end
  in
  let reserved =
    match List.assoc_opt v.v_id delta.cd_demand with
    | Some rows ->
      (* The delta ships this VNF's new demand rows
         ([Compile.demands_of_routes]). *)
      List.iter (fun (s, l) -> check s l) rows;
      (chain, rows, true)
    | None ->
      (* This VNF's demand is unchanged by the delta: re-reserve the
         committed allocation (still admission-checked — capacity may
         have shrunk) and skip the Instance_info republish at commit. *)
      let rows =
        Hashtbl.fold
          (fun (c, s) load acc -> if c = chain then (s, load) :: acc else acc)
          v.v_committed []
        |> List.sort compare
      in
      List.iter (fun (s, l) -> check s l) rows;
      (chain, rows, false)
  in
  if !ok then Hashtbl.replace v.v_reserved txid reserved;
  let vote =
    Vote
      {
        txid;
        participant = Printf.sprintf "vnf_%d" v.v_id;
        accept = !ok;
        rejected = !rejected;
      }
  in
  Hashtbl.replace v.v_voted txid (chain, vote);
  Bus.publish t.bus ~site:v.v_home ~topic:votes_topic vote

let vnf_on_commit t (v : vnf_ctl) ~txid ~chain ~egress =
  match Hashtbl.find_opt v.v_reserved txid with
  | None -> ()
  | Some (res_chain, reserved, republish) ->
    Hashtbl.remove v.v_reserved txid;
    let last = try Hashtbl.find v.v_applied res_chain with Not_found -> -1 in
    if txid <= last then () (* late duplicate of a superseded transaction *)
    else begin
    Hashtbl.replace v.v_applied res_chain txid;
    (* Replace the chain's previous allocation. *)
    let stale =
      Hashtbl.fold (fun (c, s) _ acc -> if c = res_chain then (c, s) :: acc else acc)
        v.v_committed []
    in
    List.iter (Hashtbl.remove v.v_committed) stale;
    List.iter
      (fun (site, load) ->
        Hashtbl.replace v.v_committed (res_chain, site) load;
        (* Publish the allocated instances and weights (Section 3 step 4)
           — skipped when the delta marked this VNF untouched, so an
           incremental epoch's bytes scale with its churn. *)
        if republish then begin
          let insts =
            match Hashtbl.find_opt v.v_instances site with Some l -> l | None -> []
          in
          Bus.publish_retained t.bus ~site:v.v_home
            ~topic:(instances_topic ~chain ~egress ~vnf:v.v_id ~site)
            (Instance_info
               { vnf = v.v_id; site; instances = List.map (fun i -> (i, 1.0)) insts })
        end)
      reserved
    end

(* ------------------------- Global Switchboard ----------------------- *)

(* Persist a committed chain (and the chain index) into the MUSIC store so
   a standby Global Switchboard can recover it (Section 4.5). *)
let persist_chain t (cs : chain_state) =
  match (t.store, cs.c_ingress, cs.c_egress) with
  | Some store, Some ingress, Some egress ->
    let record =
      Chain_record
        { cr_spec = cs.c_spec; cr_routes = cs.c_routes; cr_ingress = ingress; cr_egress = egress }
    in
    Sb_music.Store.put store ~from:t.gsb_site
      ~key:(Printf.sprintf "chain/%d" cs.c_id)
      record
      (fun ok ->
        if ok then logf t (fun m -> m "gsb: chain %d persisted to MUSIC" cs.c_id)
        else logf t (fun m -> m "gsb: MUSIC quorum unavailable for chain %d" cs.c_id));
    if not (List.mem cs.c_id t.persisted_index) then begin
      t.persisted_index <- cs.c_id :: t.persisted_index;
      Sb_music.Store.put store ~from:t.gsb_site ~key:"chains/index"
        (Chain_index t.persisted_index)
        (fun _ -> ())
    end
  | _ -> ()

let participants_of spec = "edge" :: List.map (Printf.sprintf "vnf_%d") spec.vnfs

(* Publish a Commit/Abort and retransmit it to un-acked participants every
   [retry_interval] until every ack is in. Safe to retry without bound:
   participant controllers do not fail permanently, loss windows end, and
   a coordinator failover clears [t.decisions] (the recovered coordinator
   re-drives the whole transaction instead). Each retry event checks state
   before rescheduling, so the engine queue drains once acks arrive. *)
let register_decision t ~txid ~spec msg =
  let d = { d_msg = msg; d_spec = spec; d_unacked = participants_of spec } in
  Hashtbl.replace t.decisions txid d;
  List.iter
    (fun name ->
      Bus.publish t.bus ~site:t.gsb_site ~topic:(participant_topic ~name) msg)
    d.d_unacked;
  let rec retry () =
    if not t.gsb_down then
      match Hashtbl.find_opt t.decisions txid with
      | Some d when d.d_unacked <> [] ->
        logf t (fun m ->
            m "gsb: 2pc tx%d retransmitting decision to %d unacked" txid
              (List.length d.d_unacked));
        List.iter
          (fun name ->
            Bus.publish t.bus ~site:t.gsb_site ~topic:(participant_topic ~name)
              d.d_msg)
          d.d_unacked;
        ignore (Engine.schedule t.eng ~delay:t.retry_interval retry)
      | Some _ | None -> ()
  in
  ignore (Engine.schedule t.eng ~delay:t.retry_interval retry)

let gsb_on_ack t ~txid ~participant =
  if not t.gsb_down then
    match Hashtbl.find_opt t.decisions txid with
    | None -> ()
    | Some d ->
      d.d_unacked <- List.filter (fun p -> p <> participant) d.d_unacked;
      if d.d_unacked = [] then Hashtbl.remove t.decisions txid

(* Compile the queued update against the newest pending target — the
   already queued prepared state if any, else the in-flight transaction's
   — and compose it with any delta already queued, so the delta that
   eventually ships covers every superseded update's changed stages. The
   target version is always (in-flight version + 1): a supersede replaces
   the queued update's slot in the commit order, it does not advance it. *)
let compose_queued t (cs : chain_state) routes =
  let base, older =
    match Hashtbl.find_opt t.queued_routes cs.c_id with
    | Some { q_comp = qp, qd; _ } -> (qp, Some qd)
    | None ->
      let tx = Hashtbl.find t.txns (Hashtbl.find t.chain_inflight cs.c_id) in
      (tx.tx_prepared, None)
  in
  let version =
    match older with
    | Some _ -> Compile.prepared_version base (* replace the queued slot *)
    | None -> Compile.prepared_version base + 1 (* first queued update *)
  in
  let p = Compile.prepare t.compiled ~version ~chain:cs.c_id ~spec:cs.c_spec ~routes in
  let d = Compile.delta_between t.compiled ~base ~target:p in
  (p, match older with Some od -> Compile.compose od d | None -> d)

(* [comp] is a queued update's already composed target and delta. *)
let rec gsb_start_2pc ?comp t (cs : chain_state) routes ~exclude =
  if t.gsb_down then
    logf t (fun m -> m "gsb: down; dropping 2pc for chain %d" cs.c_id)
  else if Hashtbl.mem t.chain_inflight cs.c_id then begin
    (* Serialize per chain: a newer request supersedes any queued one and
       starts once the in-flight transaction decides. *)
    logf t (fun m ->
        m "gsb: chain %d transaction in flight; queueing route update" cs.c_id);
    let q_comp = compose_queued t cs routes in
    Hashtbl.replace t.queued_routes cs.c_id
      { q_routes = routes; q_exclude = exclude; q_comp }
  end
  else begin
    let prepared, delta =
      match comp with
      | Some pd -> pd
      | None ->
        let p = Compile.prepare t.compiled ~chain:cs.c_id ~spec:cs.c_spec ~routes in
        (p, Compile.delta_from_committed t.compiled p)
    in
    let txid = t.next_txid in
    t.next_txid <- txid + 1;
    let tx =
      {
        tx_id = txid;
        tx_chain = cs.c_id;
        tx_routes = routes;
        tx_spec = cs.c_spec;
        tx_prepared = prepared;
        tx_delta = delta;
        tx_waiting = participants_of cs.c_spec;
        tx_rejected = [];
        tx_exclude = exclude;
      }
    in
    Hashtbl.replace t.txns txid tx;
    Hashtbl.replace t.chain_inflight cs.c_id txid;
    logf t (fun m ->
        m "gsb: 2pc prepare tx%d for chain %d (%d routes)" txid cs.c_id
          (List.length routes));
    (* The Prepare carries only the compiled diff: the O(churn) payload. *)
    let send_prepares names =
      List.iter
        (fun name ->
          Bus.publish t.bus ~site:t.gsb_site ~topic:(participant_topic ~name)
            (Prepare { txid; chain = cs.c_id; delta; spec = cs.c_spec }))
        names
    in
    send_prepares (participants_of cs.c_spec);
    (* Retransmit the Prepare to participants whose vote has not arrived:
       either the Prepare or the Vote was lost in the wide area. Duplicate
       Prepares are answered from vote memory, duplicate Votes are ignored
       by the waiting-list check, so retrying is idempotent. *)
    let rec retry () =
      if not t.gsb_down then
        match Hashtbl.find_opt t.txns txid with
        | Some tx when tx.tx_waiting <> [] ->
          logf t (fun m ->
              m "gsb: 2pc tx%d retransmitting prepare to %d unvoted" txid
                (List.length tx.tx_waiting));
          send_prepares tx.tx_waiting;
          ignore (Engine.schedule t.eng ~delay:t.retry_interval retry)
        | Some _ | None -> ()
    in
    ignore (Engine.schedule t.eng ~delay:t.retry_interval retry)
  end

and gsb_on_vote t ~txid ~participant ~accept ~rejected =
  if t.gsb_down then ()
  else
    match Hashtbl.find_opt t.txns txid with
    | None -> ()
    | Some tx ->
      if List.mem participant tx.tx_waiting then begin
        tx.tx_waiting <- List.filter (fun p -> p <> participant) tx.tx_waiting;
        if not accept then tx.tx_rejected <- rejected @ tx.tx_rejected;
        if tx.tx_waiting = [] then begin
          Hashtbl.remove t.txns txid;
          Hashtbl.remove t.chain_inflight tx.tx_chain;
          let cs = Hashtbl.find t.chains tx.tx_chain in
          if tx.tx_rejected = [] then begin
            (* Commit. *)
            register_decision t ~txid ~spec:tx.tx_spec (Commit { txid });
            cs.c_routes <- tx.tx_routes;
            t.compiled <- Compile.commit t.compiled ~chain:tx.tx_chain tx.tx_prepared;
            logf t (fun m ->
                m "gsb: 2pc commit tx%d; chain %d routes installed" txid tx.tx_chain);
            persist_chain t cs;
            let egress = Option.get cs.c_egress in
            (* O(churn) announcement on the broadcast topic; the full route
               set stays retained on the chain's route topic — normally
               subscriber-free, so it costs no wide-area bytes — as the
               heal point for version-gapped sites. *)
            Bus.publish t.bus ~site:t.gsb_site ~topic:broadcast_topic
              (Route_delta
                 { chain = cs.c_id; egress_label = egress; spec = cs.c_spec;
                   delta = tx.tx_delta });
            Bus.publish_retained t.bus ~site:t.gsb_site ~topic:(route_topic ~chain:cs.c_id)
              (Route_update
                 { chain = cs.c_id; egress_label = egress; spec = cs.c_spec;
                   routes = tx.tx_routes; version = tx.tx_delta.cd_target })
          end
          else begin
            register_decision t ~txid ~spec:tx.tx_spec (Abort { txid });
            let exclude = tx.tx_rejected @ tx.tx_exclude in
            logf t (fun m ->
                m "gsb: 2pc abort tx%d (%d rejections); recomputing" txid
                  (List.length tx.tx_rejected));
            if List.length exclude <= 32 then begin
              match t.route_policy with
              | Some policy -> (
                match policy tx.tx_spec ~exclude with
                | Some routes -> gsb_start_2pc t cs routes ~exclude
                | None ->
                  logf t (fun m -> m "gsb: no feasible route for chain %d" tx.tx_chain))
              | None ->
                logf t (fun m -> m "gsb: no route policy; chain %d failed" tx.tx_chain)
            end
          end;
          (* The chain is idle unless the decision path re-entered 2PC
             (abort recompute); drain the newest queued route set. *)
          if not (Hashtbl.mem t.chain_inflight tx.tx_chain) then begin
            match Hashtbl.find_opt t.queued_routes tx.tx_chain with
            | Some q -> (
              Hashtbl.remove t.queued_routes tx.tx_chain;
              let p, d = q.q_comp in
              let committed = Compile.version t.compiled ~chain:tx.tx_chain in
              if
                (d.cd_full || d.cd_base = committed)
                && Compile.prepared_version p = committed + 1
              then
                (* The in-flight transaction committed the base this delta
                   was composed against: ship the composed delta as-is. *)
                gsb_start_2pc ~comp:q.q_comp t cs q.q_routes ~exclude:q.q_exclude
              else
                (* Aborted base: recompute against the still-committed
                   state from the stored full routes. *)
                gsb_start_2pc t cs q.q_routes ~exclude:q.q_exclude)
            | None -> ()
          end
        end
      end

let gsb_on_request t ~chain ~spec =
  if t.gsb_down then logf t (fun m -> m "gsb: down; chain request %d lost" chain)
  else begin
  logf t (fun m -> m "gsb: received chain request %s (chain %d)" spec.spec_name chain);
  let resolve a =
    match Hashtbl.find_opt t.attachments a with
    | Some s -> s
    | None -> invalid_arg (Printf.sprintf "System: unknown attachment %s" a)
  in
  let ingress = resolve spec.ingress_attachment in
  let egress = resolve spec.egress_attachment in
  let cs =
    { c_id = chain; c_spec = spec; c_routes = []; c_ingress = Some ingress; c_egress = Some egress }
  in
  Hashtbl.replace t.chains chain cs;
  match t.route_policy with
  | None -> logf t (fun m -> m "gsb: no route policy; chain %d failed" chain)
  | Some policy -> (
    match policy spec ~exclude:[] with
    | Some routes -> gsb_start_2pc t cs routes ~exclude:[]
    | None -> logf t (fun m -> m "gsb: no feasible route for chain %d" chain))
  end

(* ------------------------------ Assembly ---------------------------- *)

let create ?(seed = 11) ?(install_latency = 0.09) ?(egress_rate = 20_000.)
    ?bus_bandwidth ?(retry_interval = 0.5) ?flow_store ?(lanes = 1) ~num_sites ~delay
    ~gsb_site () =
  let eng = Engine.create () in
  let bus =
    Bus.create eng ~mode:Bus.Switchboard ~num_sites ~delay ~egress_rate
      ?bandwidth:bus_bandwidth ~size_fn:msg_size ~topic_key:topic_class ()
  in
  let fabric = DP.create ~seed ?flow_store ~lanes () in
  let sites =
    Array.init num_sites (fun i ->
        let fab_site = DP.add_site fabric (Printf.sprintf "site%d" i) in
        let forwarder = DP.add_forwarder fabric ~site:fab_site in
        { fab_site; forwarders = [ forwarder ]; edge = None })
  in
  let locals =
    Array.init num_sites (fun i ->
        {
          ls_site = i;
          ls_known = Hashtbl.create 8;
          ls_instance_info = Hashtbl.create 16;
          ls_fwd_info = Hashtbl.create 16;
          ls_installed = Hashtbl.create 16;
          ls_installed_rx = Hashtbl.create 16;
          ls_published_weight = Hashtbl.create 8;
          ls_subscribed = Hashtbl.create 16;
        })
  in
  let t =
    {
      eng;
      bus;
      fabric;
      sites;
      locals;
      gsb_site;
      delay;
      install_latency;
      retry_interval;
      compiled = Compile.empty ();
      vnf_ctls = Hashtbl.create 8;
      chains = Hashtbl.create 8;
      txns = Hashtbl.create 8;
      decisions = Hashtbl.create 8;
      chain_inflight = Hashtbl.create 8;
      queued_routes = Hashtbl.create 8;
      gsb_down = false;
      attachments = Hashtbl.create 8;
      next_chain = 0;
      next_txid = 0;
      route_policy = None;
      store = None;
      persisted_index = [];
      log_enabled = true;
      events = ref [];
      churn_scale_outs = 0;
      churn_removed = 0;
      churn_drains_done = 0;
      churn_drains_aborted = 0;
      churn_draining = 0;
      churn_durations = [];
    }
  in
  (* Global Switchboard listens for chain requests. *)
  Bus.subscribe bus ~site:gsb_site ~topic:chain_request_topic (function
    | Chain_request { chain; spec } -> gsb_on_request t ~chain ~spec
    | _ -> ());
  (* It hears every transaction's votes and decision acks on one reply
     topic: each reply names its txid, so nothing is subscribed per
     transaction. *)
  Bus.subscribe bus ~site:gsb_site ~topic:votes_topic (function
    | Vote { txid; participant; accept; rejected } ->
      gsb_on_vote t ~txid ~participant ~accept ~rejected
    | Decision_ack { txid; participant } -> gsb_on_ack t ~txid ~participant
    | _ -> ());
  (* The edge controller trivially accepts two-phase-commit prepares (and,
     being stateless, re-votes identically on retransmitted ones). *)
  Bus.subscribe bus ~site:gsb_site ~topic:(participant_topic ~name:"edge") (function
    | Prepare { txid; _ } ->
      Bus.publish bus ~site:gsb_site ~topic:votes_topic
        (Vote { txid; participant = "edge"; accept = true; rejected = [] })
    | Commit { txid } | Abort { txid } ->
      Bus.publish bus ~site:gsb_site ~topic:votes_topic
        (Decision_ack { txid; participant = "edge" })
    | _ -> ());
  (* Every Local Switchboard watches for committed deltas. *)
  Array.iter
    (fun ls ->
      Bus.subscribe bus ~site:ls.ls_site ~topic:broadcast_topic (function
        | Route_delta { chain; egress_label; spec; delta } ->
          ls_apply_delta t ls ~chain ~egress:egress_label ~spec delta
        | _ -> ()))
    locals;
  t

let set_route_policy t policy = t.route_policy <- Some policy

let deploy_vnf t ~vnf ~site ~capacity ~instances =
  let v =
    match Hashtbl.find_opt t.vnf_ctls vnf with
    | Some v -> v
    | None ->
      let v =
        {
          v_id = vnf;
          v_home = site;
          v_capacity = Hashtbl.create 4;
          v_committed = Hashtbl.create 4;
          v_reserved = Hashtbl.create 4;
          v_voted = Hashtbl.create 4;
          v_decided = Hashtbl.create 4;
          v_applied = Hashtbl.create 4;
          v_instances = Hashtbl.create 4;
        }
      in
      Hashtbl.replace t.vnf_ctls vnf v;
      let name = Printf.sprintf "vnf_%d" vnf in
      let ack txid =
        Bus.publish t.bus ~site:v.v_home ~topic:votes_topic
          (Decision_ack { txid; participant = name })
      in
      let last_decided chain =
        Option.value (Hashtbl.find_opt v.v_decided chain) ~default:(-1)
      in
      (* The decision frees the transaction's vote memory; a duplicate
         decision finds none and is only acked again. *)
      let decided txid =
        match Hashtbl.find_opt v.v_voted txid with
        | None -> None
        | Some (chain, _) ->
          Hashtbl.remove v.v_voted txid;
          if txid > last_decided chain then Hashtbl.replace v.v_decided chain txid;
          Some chain
      in
      Bus.subscribe t.bus ~site ~topic:(participant_topic ~name) (function
        | Prepare { txid; chain; delta; _ } -> (
          match Hashtbl.find_opt v.v_voted txid with
          | Some (_, vote) ->
            (* Retransmitted Prepare: the original Vote was lost. Answer
               from memory — recomputing could double-reserve. *)
            Bus.publish t.bus ~site:v.v_home ~topic:votes_topic vote
          | None -> if txid > last_decided chain then vnf_on_prepare t v ~txid ~chain ~delta)
        | Commit { txid } ->
          (match decided txid with
          | Some chain -> (
            match Hashtbl.find_opt t.chains chain with
            | Some cs -> vnf_on_commit t v ~txid ~chain ~egress:(Option.get cs.c_egress)
            | None -> ())
          | None -> ());
          ack txid
        | Abort { txid } ->
          ignore (decided txid);
          Hashtbl.remove v.v_reserved txid;
          ack txid
        | _ -> ());
      v
  in
  Hashtbl.replace v.v_capacity site capacity;
  let fwds = Array.of_list t.sites.(site).forwarders in
  let ids =
    List.init instances (fun i ->
        DP.add_vnf_instance t.fabric ~vnf ~site:t.sites.(site).fab_site
          ~forwarder:fwds.(i mod Array.length fwds) ())
  in
  let existing = match Hashtbl.find_opt v.v_instances site with Some l -> l | None -> [] in
  Hashtbl.replace v.v_instances site (existing @ ids)

let register_edge t ~site ~attachment =
  let info = t.sites.(site) in
  let edge =
    match info.edge with
    | Some e -> e
    | None ->
      let e = DP.add_edge t.fabric ~site:info.fab_site ~forwarder:(List.hd info.forwarders) in
      info.edge <- Some e;
      e
  in
  ignore edge;
  Hashtbl.replace t.attachments attachment site

let request_chain t spec =
  let chain = t.next_chain in
  t.next_chain <- chain + 1;
  let origin =
    match Hashtbl.find_opt t.attachments spec.ingress_attachment with
    | Some s -> s
    | None -> t.gsb_site
  in
  ignore
    (Engine.schedule t.eng ~delay:0. (fun () ->
         Bus.publish t.bus ~site:origin ~topic:chain_request_topic
           (Chain_request { chain; spec })));
  chain

let chain_routes t ~chain =
  match Hashtbl.find_opt t.chains chain with Some cs -> cs.c_routes | None -> []

let chain_egress_site t ~chain =
  match Hashtbl.find_opt t.chains chain with Some cs -> cs.c_egress | None -> None

let chain_ingress_site t ~chain =
  match Hashtbl.find_opt t.chains chain with Some cs -> cs.c_ingress | None -> None

let add_route t ~chain route =
  match Hashtbl.find_opt t.chains chain with
  | None -> invalid_arg "System.add_route: unknown chain"
  | Some cs ->
    logf t (fun m -> m "gsb: route addition requested for chain %d" chain);
    (* Rebalance weights evenly across old and new routes. *)
    let all = cs.c_routes @ [ route ] in
    let n = float_of_int (List.length all) in
    let routes = List.map (fun r -> { r with weight = 1. /. n }) all in
    gsb_start_2pc t cs routes ~exclude:[]

let update_routes t ~chain routes =
  match Hashtbl.find_opt t.chains chain with
  | None -> invalid_arg "System.update_routes: unknown chain"
  | Some cs ->
    logf t (fun m ->
        m "gsb: route update requested for chain %d (%d routes)" chain
          (List.length routes));
    gsb_start_2pc t cs routes ~exclude:[]

let add_edge_site t ~chain ~site =
  match Hashtbl.find_opt t.chains chain with
  | None -> invalid_arg "System.add_edge_site: unknown chain"
  | Some cs ->
    let egress = Option.get cs.c_egress in
    let ls = t.locals.(site) in
    (* Step 1 (0 ms): choose the first VNF's site on the least-latency
       existing route. *)
    let best_route =
      List.fold_left
        (fun best r ->
          let d = t.delay site r.element_sites.(1) in
          match best with
          | Some (_, bd) when bd <= d -> best
          | _ -> Some (r, d))
        None cs.c_routes
    in
    (match best_route with
    | None -> logf t (fun m -> m "site %d: no route to extend for chain %d" site chain)
    | Some (r, _) ->
      let s1 = r.element_sites.(1) in
      let first_vnf = List.hd cs.c_spec.vnfs in
      logf t (fun m ->
          m "site %d: Local SB chose 1st VNF's site %d for chain %d" site s1 chain);
      (* Step 2: pull the first VNF's forwarder info (retained topic). *)
      ls_subscribe t ls (forwarders_topic ~chain ~egress ~vnf:first_vnf ~site:s1)
        (function
        | Forwarder_info { forwarders; _ } ->
          logf t (fun m ->
              m "site %d: edge instance's fwrdr received 1st VNF's info" site);
          (* Step 3: configure the edge forwarder's data plane (stage-0
             rule + tunnel towards the first VNF's forwarder). *)
          ignore
            (Engine.schedule t.eng ~delay:t.install_latency (fun () ->
                 let rule =
                   List.map (fun (f, w) -> (Plane.Forwarder f, Float.max w 1.)) forwarders
                 in
                 List.iter
                   (fun forwarder ->
                     DP.install_rule t.fabric ~forwarder ~chain_label:chain
                       ~egress_label:egress ~stage:0 rule)
                   t.sites.(site).forwarders;
                 logf t (fun m ->
                     m "site %d: edge instance's fwrdr dataplane configured" site);
                 (* Step 4: announce this edge's forwarder so the first
                    VNF's forwarder can configure the return side. *)
                 Bus.publish_retained t.bus ~site
                   ~topic:(edge_forwarders_topic ~chain ~egress)
                   (Forwarder_info
                      {
                        vnf = -1;
                        site;
                        forwarders = [ (List.hd t.sites.(site).forwarders, 1.) ];
                      })))
        | _ -> ()))

let add_forwarder t ~site =
  let info = t.sites.(site) in
  let forwarder = DP.add_forwarder t.fabric ~site:info.fab_site in
  info.forwarders <- info.forwarders @ [ forwarder ];
  (* The Local Switchboard replays the site's current rules onto the new
     forwarder once it is configured. *)
  let ls = t.locals.(site) in
  ignore
    (Engine.schedule t.eng ~delay:t.install_latency (fun () ->
         Hashtbl.iter
           (fun (chain, egress, stage) rule ->
             DP.install_rule t.fabric ~forwarder ~chain_label:chain
               ~egress_label:egress ~stage rule)
           ls.ls_installed;
         Hashtbl.iter
           (fun (chain, egress, stage) rule ->
             DP.install_rx_rule t.fabric ~forwarder ~chain_label:chain
               ~egress_label:egress ~stage rule)
           ls.ls_installed_rx;
         logf t (fun m ->
             m "site %d: forwarder %d joined and configured (%d rules)" site forwarder
               (Hashtbl.length ls.ls_installed))));
  forwarder

let scale_vnf_instances t ~vnf ~site ~count =
  let v =
    match Hashtbl.find_opt t.vnf_ctls vnf with
    | Some v -> v
    | None -> invalid_arg "System.scale_vnf_instances: unknown vnf"
  in
  if not (Hashtbl.mem v.v_capacity site) then
    invalid_arg "System.scale_vnf_instances: vnf not deployed at site";
  let fwds = Array.of_list t.sites.(site).forwarders in
  let existing = match Hashtbl.find_opt v.v_instances site with Some l -> l | None -> [] in
  let fresh =
    List.init count (fun i ->
        DP.add_vnf_instance t.fabric ~vnf ~site:t.sites.(site).fab_site
          ~forwarder:fwds.((List.length existing + i) mod Array.length fwds)
          ())
  in
  Hashtbl.replace v.v_instances site (existing @ fresh);
  logf t (fun m ->
      m "vnf %d: scaled to %d instances at site %d" vnf
        (List.length existing + count) site);
  (* Republish instance weights for every chain allocated here so Local
     Switchboards rebalance onto the new instances. *)
  let chains_here =
    Hashtbl.fold
      (fun (chain, s) _ acc -> if s = site then chain :: acc else acc)
      v.v_committed []
    |> List.sort_uniq compare
  in
  let all = existing @ fresh in
  List.iter
    (fun chain ->
      match Hashtbl.find_opt t.chains chain with
      | Some { c_egress = Some egress; _ } ->
        Bus.publish_retained t.bus ~site:v.v_home
          ~topic:(instances_topic ~chain ~egress ~vnf ~site)
          (Instance_info { vnf; site; instances = List.map (fun i -> (i, 1.0)) all })
      | Some _ | None -> ())
    chains_here

let probe_chain t ~chain ?ingress_site tuple =
  match Hashtbl.find_opt t.chains chain with
  | None -> Error Plane.Not_an_edge
  | Some cs -> (
    let site =
      match ingress_site with
      | Some s -> s
      | None -> ( match cs.c_ingress with Some s -> s | None -> 0)
    in
    match (t.sites.(site).edge, cs.c_egress) with
    | Some edge, Some egress ->
      DP.send_forward t.fabric ~ingress:edge ~chain_label:chain ~egress_label:egress
        tuple
    | _ -> Error Plane.Not_an_edge)

let chain_measurements t ~chain =
  match Hashtbl.find_opt t.chains chain with
  | Some { c_egress = Some egress; c_spec; _ } ->
    let stages = List.length c_spec.vnfs + 1 in
    Array.init stages (fun stage ->
        DP.stage_counters t.fabric ~chain_label:chain ~egress_label:egress ~stage)
  | Some _ | None -> [||]

(* Per-site view of the same counters, via the Local Switchboard's chain
   knowledge: the Global Switchboard's table is NOT consulted, so this is
   exactly what a site-local exporter can see. *)
let site_known_chains t ~site =
  Hashtbl.fold
    (fun id (lc : local_chain) acc ->
      (id, lc.lc_egress, List.length lc.lc_spec.vnfs + 1) :: acc)
    t.locals.(site).ls_known []
  |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b)

let site_chain_measurements_into t ~site ~chain ~pkts ~bytes =
  match Hashtbl.find_opt t.locals.(site).ls_known chain with
  | Some lc ->
    let stages = List.length lc.lc_spec.vnfs + 1 in
    if Array.length pkts < stages || Array.length bytes < stages then
      invalid_arg "System.site_chain_measurements_into: buffers too small";
    DP.site_stage_counters_into t.fabric ~site:t.sites.(site).fab_site
      ~chain_label:chain ~egress_label:lc.lc_egress ~pkts ~bytes;
    stages
  | None -> -1

let site_chain_version t ~site ~chain =
  Option.map
    (fun lc -> lc.lc_version)
    (Hashtbl.find_opt t.locals.(site).ls_known chain)

let reset_measurements t = DP.reset_counters t.fabric

let site_flow_table_stats t ~site =
  (* Lane-aggregated occupancy of every connection table at the site:
     entries, open-addressing capacity and worst probe length. *)
  List.fold_left
    (fun (c, k, m) forwarder ->
      let c', k', m' = DP.flow_table_stats t.fabric ~forwarder in
      (c + c', k + k', max m m'))
    (0, 0, 0) t.sites.(site).forwarders

let vnf_committed_load t ~vnf ~site =
  match Hashtbl.find_opt t.vnf_ctls vnf with
  | None -> 0.
  | Some v ->
    Hashtbl.fold
      (fun (_, s) load acc -> if s = site then acc +. load else acc)
      v.v_committed 0.

(* ------------------- Elastic placement lifecycle -------------------- *)

let deployment_churn t =
  {
    ch_scale_outs = t.churn_scale_outs;
    ch_removed = t.churn_removed;
    ch_drains_completed = t.churn_drains_done;
    ch_drains_aborted = t.churn_drains_aborted;
    ch_draining = t.churn_draining;
    ch_drain_durations = List.rev t.churn_durations;
  }

let scale_out t ~vnf ~site ~capacity ~instances =
  deploy_vnf t ~vnf ~site ~capacity ~instances;
  t.churn_scale_outs <- t.churn_scale_outs + 1;
  logf t (fun m ->
      m "vnf %d: scale-out at site %d (capacity %g, %d instances)" vnf site
        capacity instances)

let drain_and_remove t ~vnf ~site ?(poll_interval = 0.25) ?timeout ?on_done () =
  let v =
    match Hashtbl.find_opt t.vnf_ctls vnf with
    | Some v -> v
    | None -> invalid_arg "System.drain_and_remove: unknown vnf"
  in
  let ids =
    match Hashtbl.find_opt v.v_instances site with
    | Some ((_ :: _) as l) -> l
    | Some [] | None ->
      invalid_arg "System.drain_and_remove: vnf not deployed at site"
  in
  let started = Engine.now t.eng in
  let saved = List.map (fun i -> (i, DP.instance_weight t.fabric i)) ids in
  (* Phase 1: stop new-flow assignment. Zeroing the balancer weights hides
     the instances from decentralized pickers ([site_vnf_instances]); the
     routed path stops sending new connections because the caller has
     already committed a route set that excludes this site through the
     delta 2PC. Established connections keep their flow-table pins (flow
     affinity) and bleed away through the expiry clock. *)
  List.iter (fun i -> DP.set_instance_weight t.fabric i 0.) ids;
  t.churn_draining <- t.churn_draining + 1;
  logf t (fun m ->
      m "vnf %d: draining %d instance(s) at site %d" vnf (List.length ids) site);
  let finish ok =
    t.churn_draining <- t.churn_draining - 1;
    if ok then begin
      (* Phase 2: retract. No flow-table cell (any lane, any replica)
         pins a connection to these instances and the VNF controller
         holds no committed load here, so failing them blackholes
         nothing — the drain-safety invariant sb_chaos checks. *)
      List.iter (fun i -> DP.fail_instance t.fabric i) ids;
      Hashtbl.remove v.v_instances site;
      Hashtbl.remove v.v_capacity site;
      t.churn_removed <- t.churn_removed + 1;
      t.churn_drains_done <- t.churn_drains_done + 1;
      let dur = Engine.now t.eng -. started in
      t.churn_durations <-
        dur :: List.filteri (fun i _ -> i < 63) t.churn_durations;
      logf t (fun m ->
          m "vnf %d: drained and retracted site %d after %.2fs" vnf site dur)
    end
    else begin
      (* Abort: restore the saved weights — the deployment stays exactly
         as it was before the drain started. Atomicity under coordinator
         failure: a half-done drain never retracts anything. *)
      List.iter (fun (i, w) -> DP.set_instance_weight t.fabric i w) saved;
      t.churn_drains_aborted <- t.churn_drains_aborted + 1;
      logf t (fun m -> m "vnf %d: drain aborted at site %d" vnf site)
    end;
    match on_done with Some f -> f ok | None -> ()
  in
  let rec poll () =
    if t.gsb_down then finish false
    else if
      match timeout with
      | Some tmo -> Engine.now t.eng -. started > tmo
      | None -> false
    then finish false
    else begin
      let committed = vnf_committed_load t ~vnf ~site in
      let occ =
        List.fold_left (fun a i -> a + DP.instance_flow_count t.fabric i) 0 ids
      in
      if committed <= 1e-9 && occ = 0 then finish true
      else ignore (Engine.schedule t.eng ~delay:poll_interval poll)
    end
  in
  ignore (Engine.schedule t.eng ~delay:poll_interval poll)

let set_gsb_down t down =
  if down && not t.gsb_down then begin
    t.gsb_down <- true;
    (* The coordinator's volatile state dies with it: in-flight
       transactions, un-acked decisions and the compiled diagrams are
       lost. Participants keep their reservations and vote memory for the
       lost transactions (harmless: admission counts only committed load;
       bounded by the transactions the crash interrupted); the recovered
       coordinator re-drives
       every persisted chain with fresh transactions — full deltas from
       an empty snapshot, resetting every site's version lineage — via
       [recover_from_store]. *)
    Hashtbl.reset t.txns;
    Hashtbl.reset t.decisions;
    Hashtbl.reset t.chain_inflight;
    Hashtbl.reset t.queued_routes;
    t.compiled <- Compile.empty ();
    logf t (fun m -> m "gsb: down (in-flight transactions lost)")
  end
  else if (not down) && t.gsb_down then begin
    t.gsb_down <- false;
    logf t (fun m -> m "gsb: standby taking over")
  end

let gsb_is_down t = t.gsb_down

let chain_ids t =
  Hashtbl.fold (fun id _ acc -> id :: acc) t.chains [] |> List.sort compare

let chain_spec t ~chain =
  Option.map (fun cs -> cs.c_spec) (Hashtbl.find_opt t.chains chain)

let txns_in_flight t =
  Hashtbl.length t.txns + Hashtbl.length t.decisions + Hashtbl.length t.queued_routes

let participant_txn_state t =
  Hashtbl.fold
    (fun _ v acc -> acc + Hashtbl.length v.v_voted + Hashtbl.length v.v_reserved)
    t.vnf_ctls 0

let site_installed_rules t ~site =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.locals.(site).ls_installed []
  |> List.sort compare

(* ---------------------- decentralized mechanism ---------------------- *)

(* Static infrastructure knowledge (see the interface header: identities
   of sites, forwarders, edges and VNF instances are static) plus raw
   counter/rule access, exposed so a decentralized decision process
   ([Sb_adapt.Anycast]) can run the fabric without the Global Switchboard
   or per-chain 2PC admission. *)

let site_vnf_instances t ~site ~vnf =
  match Hashtbl.find_opt t.vnf_ctls vnf with
  | None -> []
  | Some v -> (
    match Hashtbl.find_opt v.v_instances site with
    | None -> []
    | Some ids ->
      List.sort compare ids
      |> List.filter_map (fun id ->
             if DP.instance_alive t.fabric id then
               let w = DP.instance_weight t.fabric id in
               if w > 0. then Some (id, w) else None
             else None))

let site_vnf_instance_ids t ~site ~vnf =
  match Hashtbl.find_opt t.vnf_ctls vnf with
  | None -> []
  | Some v -> (
    match Hashtbl.find_opt v.v_instances site with
    | None -> []
    | Some ids -> List.sort compare ids)

let site_vnf_forwarder_weights t ~site ~vnf =
  List.filter_map
    (fun f ->
      let w = DP.forwarder_published_weight t.fabric f vnf in
      if w > 0. then Some (f, w) else None)
    t.sites.(site).forwarders

let site_deployed_vnfs t ~site =
  Hashtbl.fold
    (fun vnf v acc ->
      match Hashtbl.find_opt v.v_instances site with
      | Some (_ :: _) -> vnf :: acc
      | _ -> acc)
    t.vnf_ctls []
  |> List.sort compare

let site_stage_packets t ~site ~chain ~egress ~stage =
  fst
    (DP.site_stage_counters t.fabric ~site:t.sites.(site).fab_site
       ~chain_label:chain ~egress_label:egress ~stage)

let apply_site_patches t ~site patches =
  if patches <> [] then
    ignore
      (Engine.schedule t.eng ~delay:t.install_latency (fun () ->
           List.iter
             (fun forwarder -> ignore (DP.apply_delta t.fabric ~forwarder patches))
             t.sites.(site).forwarders))

let attach_store t store = t.store <- Some store

let recover_from_store t store ~on_done =
  Sb_music.Store.get store ~from:t.gsb_site ~key:"chains/index" (function
    | Some (Chain_index ids) ->
      let pending = ref (List.length ids) in
      let recovered = ref [] in
      if !pending = 0 then on_done []
      else
        List.iter
          (fun id ->
            Sb_music.Store.get store ~from:t.gsb_site
              ~key:(Printf.sprintf "chain/%d" id)
              (fun result ->
                (match result with
                | Some (Chain_record r) ->
                  let cs =
                    {
                      c_id = id;
                      c_spec = r.cr_spec;
                      c_routes = r.cr_routes;
                      c_ingress = Some r.cr_ingress;
                      c_egress = Some r.cr_egress;
                    }
                  in
                  Hashtbl.replace t.chains id cs;
                  if id >= t.next_chain then t.next_chain <- id + 1;
                  if not (List.mem id t.persisted_index) then
                    t.persisted_index <- id :: t.persisted_index;
                  recovered := id :: !recovered;
                  logf t (fun m -> m "gsb(standby): recovered chain %d from MUSIC" id);
                  (* Re-drive the two-phase commit with the recovered
                     routes: VNF controllers re-admit and republish their
                     instance weights, Local Switchboards reinstall rules. *)
                  gsb_start_2pc t cs r.cr_routes ~exclude:[]
                | Some (Chain_index _) | None ->
                  logf t (fun m -> m "gsb(standby): chain %d unrecoverable" id));
                decr pending;
                if !pending = 0 then on_done (List.sort compare !recovered)))
          ids
    | Some (Chain_record _) | None ->
      logf t (fun m -> m "gsb(standby): no chain index in MUSIC");
      on_done [])
