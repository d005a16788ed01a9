(* Decentralized anycast control arm (Wion et al., "Distributed Function
   Chaining with Anycast Routing"): every site runs its own decision
   process over a local view assembled from flooded load advertisements —
   no Global Switchboard, no 2PC. Each site owns the rules for the chain
   elements it hosts (plus stage 0 at the chain's ingress) and re-points
   them greedily at the least-cost advertised instance of the next
   element; the end-to-end path is whatever emerges hop by hop. *)

module Engine = Sb_sim.Engine
module Bus = Sb_msgbus.Bus
module System = Sb_ctrl.System
module Ct = Sb_ctrl.Types
module Model = Sb_core.Model
module Greedy = Sb_core.Greedy
module Plane = Sb_dataplane.Plane
module Topology = Sb_net.Topology

(* ----------------------------- local view ---------------------------- *)

type advert = {
  ad_epoch : int;
  ad_loads : (int * float) list;
  ad_fwd : (int * (int * float) list) list;
  ad_down : int list;
}

type view = {
  v_site : int;
  v_staleness : int;
  v_adverts : advert option array;
  mutable v_epoch : int;
  mutable v_received : int;
}

let create_view ~site ~num_sites ~staleness =
  {
    v_site = site;
    v_staleness = staleness;
    v_adverts = Array.make num_sites None;
    v_epoch = -1;
    v_received = 0;
  }

let observe v ~site ~epoch ~loads ~fwd_weights ~down =
  if site >= 0 && site < Array.length v.v_adverts then begin
    v.v_received <- v.v_received + 1;
    let newer =
      match v.v_adverts.(site) with None -> true | Some a -> epoch >= a.ad_epoch
    in
    if newer then
      v.v_adverts.(site) <-
        Some { ad_epoch = epoch; ad_loads = loads; ad_fwd = fwd_weights; ad_down = down }
  end

let set_epoch v e = v.v_epoch <- e
let epoch v = v.v_epoch
let received v = v.v_received

(* Same age-out rule as the telemetry aggregator: an advert is usable for
   [staleness] epochs, then the peer might as well have said nothing. *)
let fresh v a = a.ad_epoch > v.v_epoch - v.v_staleness

let vnf_load v ~site ~vnf =
  match v.v_adverts.(site) with
  | Some a when fresh v a -> List.assoc_opt vnf a.ad_loads
  | _ -> None

(* Forwarder identities and weights are quasi-static fabric facts, so the
   latest advert is used even past the staleness window — a stale identity
   beats addressing a site blind. *)
let fwd_weights v ~site ~vnf =
  match v.v_adverts.(site) with
  | Some a -> (
    match List.assoc_opt vnf a.ad_fwd with
    | Some (_ :: _ as ws) -> Some ws
    | _ -> None)
  | None -> None

let down_union v =
  Array.fold_left
    (fun acc cell ->
      match cell with
      | Some a when fresh v a ->
        List.fold_left
          (fun acc l -> if List.mem l acc then acc else l :: acc)
          acc a.ad_down
      | _ -> acc)
    [] v.v_adverts
  |> List.sort compare

(* A candidate site is taken out of rotation when every link incident to
   its node appears down in the fresh flooded view — with the backbone's
   single-homed PoPs one advertised dead uplink suffices. *)
let blocked v m =
  match down_union v with
  | [] -> fun _ -> false
  | down ->
    let topo = Model.topology m in
    let links = Topology.links topo in
    let n = Model.num_sites m in
    let b = Array.make n false in
    for s = 0 to n - 1 do
      let node = Model.site_node m s in
      let incident = ref [] in
      Array.iter
        (fun (l : Topology.link) ->
          if l.Topology.src = node || l.Topology.dst = node then
            incident := l.Topology.id :: !incident)
        links;
      b.(s) <- !incident <> [] && List.for_all (fun l -> List.mem l down) !incident
    done;
    fun s -> b.(s)

(* ------------------------------ chooser ------------------------------ *)

let site_of_exn m n =
  match Model.site_of_node m n with
  | Some s -> s
  | None -> invalid_arg "Anycast: routed node without a site"

(* Every agent decides from the same flooded snapshot, so "nearest site
   under capacity" sends every chain in a region to the same instance and
   the loads seesaw an epoch behind. The spill rule damps the herd: the
   nearest under-capacity site wins outright only while it has real
   headroom; past half load the choice spreads deterministically by
   (chain, stage) hash over the nearest under-capacity sites — stable
   across epochs (no view-dependent input), identical in the agents and in
   the evaluation walk. *)
let spill_fraction = 0.5
let spread_width = 4

(* Three-pass greedy choice over the delay-sorted candidates:
   1. nearest site with a fresh advert, not cut off, and advertised load
      under its capacity (spilling to close-by peers once half full);
   2. everything advertised is saturated — spread to the least relatively
      loaded advertised site;
   3. no usable load information at all (partition, cold start) — pure
      delay anycast, which is exactly {!Greedy.anycast}'s choice. *)
let choose_node view m ~chain ~stage ~current candidates =
  let ordered = Greedy.by_delay m current candidates in
  let vnf =
    match Model.stage_dst_vnf m ~chain ~stage with
    | Some v -> v
    | None -> invalid_arg "Anycast.choose_node: egress stage has no candidates"
  in
  let blocked = blocked view m in
  let cap s = Model.vnf_site_capacity m ~vnf ~site:s in
  let admissible =
    List.filter_map
      (fun n ->
        let s = site_of_exn m n in
        match vnf_load view ~site:s ~vnf with
        | Some load when (not (blocked s)) && load < cap s -> Some (n, load, cap s)
        | _ -> None)
      ordered
  in
  match admissible with
  | (n, load, c) :: _ when load <= spill_fraction *. c -> n
  | _ :: _ ->
    let arr = Array.of_list admissible in
    let k = min spread_width (Array.length arr) in
    let h = (chain * 2654435761) lxor (stage * 40503) in
    let n, _, _ = arr.(abs h mod k) in
    n
  | [] -> (
    let best = ref None in
    List.iteri
      (fun i n ->
        let s = site_of_exn m n in
        match vnf_load view ~site:s ~vnf with
        | Some load when not (blocked s) ->
          let c = cap s in
          let ratio = if c > 0. then load /. c else Float.infinity in
          (match !best with
          | Some (r, j, _) when (r, j) <= (ratio, i) -> ()
          | _ -> best := Some (ratio, i, n))
        | _ -> ())
      ordered;
    match !best with
    | Some (_, _, n) -> n
    | None -> (
      match List.filter (fun n -> not (blocked (site_of_exn m n))) ordered with
      | n :: _ -> n
      | [] -> (
        match ordered with
        | n :: _ -> n
        | [] -> invalid_arg "Anycast.choose_node: VNF with no deployment")))

let choose view m : Greedy.choose =
 fun _state chain stage current candidates ->
  choose_node view m ~chain ~stage ~current candidates

(* The emergent routing: re-run every hop's decision with the view of the
   site the packet is at — the same function of the same views each
   deciding site evaluated when it installed its rules, so this walk IS
   the installed behavior. *)
let route m view_of =
  Greedy.route m (fun _state chain stage current candidates ->
      choose_node (view_of (site_of_exn m current)) m ~chain ~stage ~current candidates)

(* --------------------------- per-site agent --------------------------- *)

module Agent = struct
  type nonrec t = {
    sys : System.t;
    m : Model.t;
    site : int;
    view : view;
    ids : int array; (* model chain -> system chain id *)
    ingress : int array; (* ingress site per chain *)
    egress : int array; (* egress site (= egress label) per chain *)
    pkts_per_unit : int;
    local_down : unit -> int list;
    deployed : int list; (* VNF ids with instances at this site *)
    prev_pkts : int array array;
        (* per chain, per element position p (index p-1): cumulative
           packets delivered into that element at this site *)
    installed : (int * int * bool, (Plane.endpoint * float) list) Hashtbl.t;
    mutable adverts_sent : int;
    mutable moves : int;
  }

  let create ~sys ~model ~site ~ids ~staleness ~pkts_per_unit ~down_links () =
    let m = model in
    let n = Model.num_chains m in
    let num_sites = Model.num_sites m in
    let t =
      {
        sys;
        m;
        site;
        view = create_view ~site ~num_sites ~staleness;
        ids;
        ingress = Array.init n (fun c -> site_of_exn m (Model.chain_ingress m c));
        egress = Array.init n (fun c -> site_of_exn m (Model.chain_egress m c));
        pkts_per_unit;
        local_down = down_links;
        deployed = System.site_deployed_vnfs sys ~site;
        prev_pkts =
          Array.init n (fun c -> Array.make (Array.length (Model.chain_vnfs m c)) 0);
        installed = Hashtbl.create 64;
        adverts_sent = 0;
        moves = 0;
      }
    in
    for s' = 0 to num_sites - 1 do
      if s' <> site then
        Bus.subscribe (System.bus sys) ~site ~topic:(Ct.advert_topic ~site:s')
          (function
            | Ct.Load_advert { site = from; epoch; loads; fwd_weights; down_links } ->
              observe t.view ~site:from ~epoch ~loads ~fwd_weights ~down:down_links
            | _ -> ())
    done;
    t

  let view t = t.view
  let adverts_sent t = t.adverts_sent

  (* Measure this site's per-VNF load from its own forwarders' stage
     counters — the packet path counts a packet once per stage at the
     forwarder delivering it into the stage's destination element, so the
     delivery count at this site IS the load its instances absorbed — and
     flood it (retained) with the locally observed down links. *)
  let advertise t ~epoch =
    let n = Model.num_chains t.m in
    let acc = List.map (fun v -> (v, ref 0.)) t.deployed in
    for c = 0 to n - 1 do
      let vnfs = Model.chain_vnfs t.m c in
      Array.iteri
        (fun i v ->
          match List.assoc_opt v acc with
          | None -> ()
          | Some r ->
            let now =
              System.site_stage_packets t.sys ~site:t.site ~chain:t.ids.(c)
                ~egress:t.egress.(c) ~stage:i
            in
            let d = now - t.prev_pkts.(c).(i) in
            t.prev_pkts.(c).(i) <- now;
            r := !r +. (float_of_int d /. float_of_int t.pkts_per_unit))
        vnfs
    done;
    let loads = List.map (fun (v, r) -> (v, !r)) acc in
    let fwd_weights =
      List.map
        (fun v -> (v, System.site_vnf_forwarder_weights t.sys ~site:t.site ~vnf:v))
        t.deployed
    in
    let down = t.local_down () in
    t.adverts_sent <- t.adverts_sent + 1;
    observe t.view ~site:t.site ~epoch ~loads ~fwd_weights ~down;
    Bus.publish (System.bus t.sys) ~site:t.site ~topic:(Ct.advert_topic ~site:t.site)
      (Ct.Load_advert { site = t.site; epoch; loads; fwd_weights; down_links = down })

  (* Targets of this site's forward rule for [stage]: the hop out of chain
     element [stage], decided from this site's view. Local choices target
     the instances directly; remote ones the chosen site's advertised
     forwarder weights (static fabric identity, fallback to its first
     forwarder when never heard from). *)
  let stage_targets t ~chain ~stage =
    let m = t.m in
    let vnfs = Model.chain_vnfs m chain in
    if stage = Array.length vnfs then begin
      let e = t.egress.(chain) in
      if e = t.site then
        match System.site_edge t.sys e with
        | Some edge -> [ (Plane.Edge edge, 1.0) ]
        | None -> [ (Plane.Forwarder (System.site_forwarder t.sys e), 1.0) ]
      else [ (Plane.Forwarder (System.site_forwarder t.sys e), 1.0) ]
    end
    else begin
      let v = vnfs.(stage) in
      let candidates = Model.stage_dst_nodes m ~chain ~stage in
      let current = Model.site_node m t.site in
      let node = choose_node t.view m ~chain ~stage ~current candidates in
      let s' = site_of_exn m node in
      if s' = t.site then
        match System.site_vnf_instances t.sys ~site:s' ~vnf:v with
        | [] -> [ (Plane.Forwarder (System.site_forwarder t.sys s'), 1.0) ]
        | insts -> List.map (fun (id, w) -> (Plane.Vnf_instance id, w)) insts
      else
        match fwd_weights t.view ~site:s' ~vnf:v with
        | Some ws -> List.map (fun (f, w) -> (Plane.Forwarder f, w)) ws
        | None -> [ (Plane.Forwarder (System.site_forwarder t.sys s'), 1.0) ]
    end

  (* One decision tick: age the view to [epoch], recompute every owned
     rule, and batch-install whatever moved through the local rule path
     ([System.apply_site_patches], same install latency as the Local
     Switchboard). Returns the number of forward rules re-pointed. *)
  let decide t ~epoch =
    set_epoch t.view epoch;
    let m = t.m in
    let n = Model.num_chains m in
    let patches = ref [] in
    let changed = ref 0 in
    for c = 0 to n - 1 do
      let vnfs = Model.chain_vnfs m c in
      let nl = Array.length vnfs in
      let owned = ref [] in
      if t.ingress.(c) = t.site then owned := (0, false) :: !owned;
      Array.iteri
        (fun i v ->
          if List.mem v t.deployed then begin
            (* hosts element i+1: deliver into it, forward out of it *)
            owned := (i, true) :: (i + 1, false) :: !owned
          end)
        vnfs;
      if t.egress.(c) = t.site then owned := (nl, true) :: !owned;
      List.iter
        (fun (stage, rx) ->
          let targets =
            if rx then
              if stage = nl then
                match System.site_edge t.sys t.site with
                | Some edge -> [ (Plane.Edge edge, 1.0) ]
                | None -> []
              else
                List.map
                  (fun (id, w) -> (Plane.Vnf_instance id, w))
                  (System.site_vnf_instances t.sys ~site:t.site ~vnf:vnfs.(stage))
            else stage_targets t ~chain:c ~stage
          in
          if targets <> [] then begin
            let key = (c, stage, rx) in
            if Hashtbl.find_opt t.installed key <> Some targets then begin
              Hashtbl.replace t.installed key targets;
              if not rx then incr changed;
              patches :=
                {
                  Plane.rp_chain = t.ids.(c);
                  rp_egress = t.egress.(c);
                  rp_stage = stage;
                  rp_rx = rx;
                  rp_targets = targets;
                }
                :: !patches
            end
          end)
        (List.sort_uniq compare !owned)
    done;
    t.moves <- t.moves + !changed;
    System.apply_site_patches t.sys ~site:t.site (List.rev !patches);
    !changed
end
