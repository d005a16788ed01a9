module Rng = Sb_util.Rng
module Model = Sb_core.Model
module W = Sb_net.Workload
module Schedule = Sb_chaos.Schedule
module Tg = Sb_dataplane.Traffic_gen
module Shard = Sb_dataplane.Shard

type config = {
  seed : int;
  ticks : int;
  epoch_len : float;
  num_chains : int;
  window : int;
  pkts_per_tick : int;
  lanes : int;
  idle_ticks : int;
}

let default_config =
  {
    seed = 7;
    ticks = 16;
    epoch_len = 1.0;
    num_chains = 40;
    window = 160_000;
    pkts_per_tick = 120_000;
    lanes = 1;
    idle_ticks = 2;
  }

let smoke_config =
  {
    seed = 7;
    ticks = 8;
    epoch_len = 1.0;
    num_chains = 16;
    window = 4_096;
    pkts_per_tick = 20_000;
    lanes = 1;
    idle_ticks = 2;
  }

type metrics = {
  m_scenario : string;
  m_packets : int;
  m_delivered : int;
  m_distinct_flows : int;
  m_live_flows : int;
  m_peak_entries : int;
  m_final_entries : int;
  m_expired : int;
  m_unroutable : int;
  m_p99_latency_ms : float;
  m_bus_delivered : int;
  m_satisfied : float;
  m_oracle : float;
  m_ratio : float;
}

let backbone25 cfg =
  let rng = Rng.create cfg.seed in
  let topo = Sb_net.Topology.backbone ~rng ~num_core:5 ~pops_per_core:4 () in
  let model =
    Sb_core.Workload.synthesize ~rng topo
      { Sb_core.Workload.default with num_chains = cfg.num_chains }
  in
  Model.with_scaled_traffic model 0.75

(* ------------------------- scenario catalog -------------------------- *)

let regions = 5

(* Demand and faults built in lockstep: the sites taken out by the outage
   are the ingress sites of exactly the chains (key mod regions =
   fail_region) whose demand the workload zeroes — the users of the dark
   region reconnect through chains homed elsewhere. *)
let failover_parts cfg model =
  let keys = cfg.num_chains and ticks = cfg.ticks in
  let fail_region = Rng.int (Rng.split ~stream:11 (Rng.create cfg.seed)) regions in
  let fail_at = ticks / 3 in
  let w =
    W.regional_failover ~seed:cfg.seed ~ticks ~keys ~regions ~fail_region ~fail_at ()
  in
  let nodes =
    List.init keys Fun.id
    |> List.filter_map (fun c ->
           if c mod regions = fail_region then Some (Model.chain_ingress model c)
           else None)
    |> List.sort_uniq compare
  in
  let sites = List.filter_map (Model.site_of_node model) nodes in
  let horizon = float_of_int ticks *. cfg.epoch_len in
  let sched =
    Schedule.regional_outage ~seed:cfg.seed ~num_sites:(Model.num_sites model)
      ~horizon ~sites
      ~start:(float_of_int fail_at *. cfg.epoch_len)
      ~stop:horizon
  in
  (w, Some sched)

let catalog cfg model =
  let seed = cfg.seed and ticks = cfg.ticks and keys = cfg.num_chains in
  let failover, outage = failover_parts cfg model in
  let half = ticks / 2 in
  let diurnal = W.diurnal ~seed ~ticks ~keys ~period:ticks () in
  [
    ("flash_crowd", W.flash_crowd ~seed ~ticks ~keys (), None);
    ( "ddos",
      W.ddos ~seed ~ticks ~keys
        ~targets:(max 1 (keys / 8))
        ~magnitude:30.
        ~start:(ticks / 4)
        ~stop:(ticks - (ticks / 4))
        (),
      None );
    ("elephant_mice", W.elephant_mice ~seed ~ticks ~keys (), None);
    ("regional_failover", failover, outage);
    ("diurnal_drift", diurnal, None);
    ( "diurnal_flash_overlay",
      W.overlay diurnal
        (W.shift half
           (W.scale 0.5 (W.flash_crowd ~seed:(seed + 1) ~ticks:(ticks - half) ~keys ()))),
      None );
  ]

let scenario_names =
  [
    "flash_crowd";
    "ddos";
    "elephant_mice";
    "regional_failover";
    "diurnal_drift";
    "diurnal_flash_overlay";
  ]

(* --------------------------- control side ---------------------------- *)

let percentile p xs =
  match xs with
  | [] -> 0.
  | xs ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    a.(min (n - 1) (max 0 (int_of_float (p *. float_of_int (n - 1)))))

(* Site outages as the closed loop sees them: every link incident to the
   site's node fails at the outage's start epoch ([Loop]'s failure model
   is cumulative, matching the no-recovery outage windows the catalog
   builds). *)
let failures_of_schedule cfg model sched =
  let topo = Model.topology model in
  let links_at node =
    Sb_net.Topology.links topo |> Array.to_list
    |> List.filter_map (fun (l : Sb_net.Topology.link) ->
           if l.src = node || l.dst = node then Some l.id else None)
  in
  let by_epoch = Hashtbl.create 8 in
  List.iter
    (function
      | Schedule.Site_outage { site; start; _ } ->
        let epoch =
          max 0 (min (cfg.ticks - 1) (int_of_float (start /. cfg.epoch_len)))
        in
        let prev = Option.value ~default:[] (Hashtbl.find_opt by_epoch epoch) in
        Hashtbl.replace by_epoch epoch (links_at (Model.site_node model site) @ prev)
      | _ -> ())
    sched.Schedule.faults;
  Hashtbl.fold (fun e ls acc -> (e, List.sort_uniq compare ls) :: acc) by_epoch []
  |> List.sort compare

let run_control cfg model w faults =
  let sc_failures =
    match faults with
    | None -> []
    | Some sched -> failures_of_schedule cfg model sched
  in
  let sc =
    {
      Loop.sc_model = model;
      sc_epochs = cfg.ticks;
      sc_epoch_len = cfg.epoch_len;
      sc_demand = (fun ~epoch ~chain -> W.demand w ~tick:epoch ~key:chain);
      sc_failures;
    }
  in
  let params = { Loop.default_params with seed = cfg.seed } in
  let sys = ref None in
  let closed = Loop.run ~params ~on_system:(fun s -> sys := Some s) sc Loop.Closed_loop in
  let oracle = Loop.run ~params sc Loop.Oracle in
  let mean r =
    let eps = r.Loop.epochs in
    List.fold_left (fun a e -> a +. e.Loop.ep_supported) 0. eps
    /. float_of_int (max 1 (List.length eps))
  in
  let p99, bus_delivered =
    match !sys with
    | None -> (0., 0)
    | Some s ->
      let st = Sb_msgbus.Bus.stats (Sb_ctrl.System.bus s) in
      (1000. *. percentile 0.99 st.Sb_msgbus.Bus.latencies, st.Sb_msgbus.Bus.delivered)
  in
  (mean closed, mean oracle, p99, bus_delivered)

(* ------------------- controller-outage sweep ------------------------- *)

type outage_point = {
  op_fraction : float;
  op_arm : string;
  op_pre : float;
  op_during : float;
  op_stretch : float;
  op_rerouted : int;
}

let outage_start_epoch cfg = cfg.ticks / 4

(* The failure a stalled controller cannot paper over: the whole site
   carrying the most VNF traffic under the epoch-0 solve goes dark (every
   incident link). Candidates are restricted to sites whose hosted VNFs
   all have an alternative deployment elsewhere, so the lost COMPUTE is
   fully replaceable — an arm that keeps adapting reroutes the through
   traffic around it, an arm frozen mid-outage keeps forwarding into the
   hole. Chains that ingress or egress at the dead site lose their demand
   in every arm alike (a constant offset that cancels out of the arm
   comparison); the controller's home site is excluded only to keep the
   GSB-outage variable independent of the link failure. *)
let sacrificial_site model demand0 =
  let topo = Model.topology model in
  let m0 = Model.with_chain_traffic_factors model demand0 in
  let ls0 = Sb_core.Routing.load_state (Sb_core.Dp_routing.solve m0) in
  let replaceable s =
    let ok = ref true in
    for f = 0 to Model.num_vnfs model - 1 do
      let sites = Model.vnf_sites model f in
      if List.mem_assoc s sites && List.length sites < 2 then ok := false
    done;
    !ok
  in
  let best = ref (-1., None) in
  for s = 1 to Model.num_sites model - 1 do
    if replaceable s then begin
      let load = Sb_core.Load_state.site_load ls0 s in
      if load > fst !best then best := (load, Some s)
    end
  done;
  match snd !best with
  | None -> []
  | Some s ->
    let node = Model.site_node model s in
    Sb_net.Topology.links topo |> Array.to_list
    |> List.filter_map (fun (l : Sb_net.Topology.link) ->
           if l.src = node || l.dst = node then Some l.id else None)

(* The decentralization experiment: one diurnal-drift scenario on the
   shared backbone, all four {!Loop} arms, and a Global Switchboard
   outage covering a growing fraction of the run. One epoch into the
   outage window the {!sacrificial_site} goes dark — the event a stalled
   controller cannot react to: the closed loop's frozen routes keep
   pushing traffic into the dead site while the anycast agents flood the
   down-link observation and re-point around it. Static and
   oracle never touch the controller, so they anchor the sweep (computed
   once); the per-point windows are fixed by the config alone — the
   "during" mean for [fraction = 0] falls back to the whole post-start
   tail so every arm has a defined y-value at the origin. *)
let outage_scenario cfg =
  let model = backbone25 cfg in
  let ticks = cfg.ticks in
  let w = W.diurnal ~seed:cfg.seed ~ticks ~keys:cfg.num_chains ~period:ticks () in
  let demand ~epoch ~chain = W.demand w ~tick:epoch ~key:chain in
  let fail_links =
    sacrificial_site model
      (Array.init cfg.num_chains (fun c -> demand ~epoch:0 ~chain:c))
  in
  {
    Loop.sc_model = model;
    sc_epochs = ticks;
    sc_epoch_len = cfg.epoch_len;
    sc_demand = demand;
    sc_failures = [ (outage_start_epoch cfg + 1, fail_links) ];
  }

let outage_sweep ?(fractions = [ 0.; 0.25; 0.5; 0.75; 1.0 ]) cfg =
  let sc = outage_scenario cfg in
  let model = sc.Loop.sc_model in
  let ticks = cfg.ticks in
  let params = { Loop.default_params with seed = cfg.seed; lanes = cfg.lanes } in
  let horizon = float_of_int ticks *. cfg.epoch_len in
  let start_e = outage_start_epoch cfg in
  let start = float_of_int start_e *. cfg.epoch_len in
  let epochs_in lo hi r =
    List.filter (fun ep -> ep.Loop.ep_epoch >= lo && ep.Loop.ep_epoch < hi) r.Loop.epochs
  in
  let mean f = function
    | [] -> 0.
    | eps -> List.fold_left (fun a e -> a +. f e) 0. eps /. float_of_int (List.length eps)
  in
  let run_armed arm fraction =
    if fraction <= 0. then Loop.run ~params sc arm
    else
      let sched =
        Schedule.gsb_outage ~seed:cfg.seed ~num_sites:(Model.num_sites model) ~horizon
          ~start ~fraction
      in
      let rng = Rng.split ~stream:77 (Rng.create cfg.seed) in
      Loop.run ~params ~on_system:(fun sys -> Sb_chaos.Inject.arm ~sys ~rng sched) sc arm
  in
  let stop_epoch fraction =
    if fraction <= 0. then ticks
    else
      let stop = Float.min horizon (start +. (fraction *. (horizon -. start))) in
      min ticks (int_of_float (Float.ceil (stop /. cfg.epoch_len)))
  in
  let static = Loop.run ~params sc Loop.Static in
  let oracle = Loop.run ~params sc Loop.Oracle in
  List.concat_map
    (fun fraction ->
      let closed = run_armed Loop.Closed_loop fraction in
      let anycast = run_armed Loop.Anycast_dist fraction in
      let hi = stop_epoch fraction in
      let oracle_rtt = mean (fun e -> e.Loop.ep_mean_rtt) (epochs_in start_e hi oracle) in
      let point name r =
        {
          op_fraction = fraction;
          op_arm = name;
          op_pre = mean (fun e -> e.Loop.ep_supported) (epochs_in 0 start_e r);
          op_during = mean (fun e -> e.Loop.ep_supported) (epochs_in start_e hi r);
          op_stretch =
            (let rtt = mean (fun e -> e.Loop.ep_mean_rtt) (epochs_in start_e hi r) in
             if oracle_rtt > 0. then rtt /. oracle_rtt else 1.);
          op_rerouted = r.Loop.total_rerouted;
        }
      in
      [
        point "static" static;
        point "oracle" oracle;
        point "closed-loop" closed;
        point "anycast" anycast;
      ])
    fractions

let pp_outage_point ppf p =
  Format.fprintf ppf
    "fraction=%.2f arm=%s pre=%.4f during=%.4f stretch=%.4f rerouted=%d"
    p.op_fraction p.op_arm p.op_pre p.op_during p.op_stretch p.op_rerouted

(* ---------------- elastic-placement sweep (DESIGN.md §16) ------------ *)

type placement_point = {
  pl_arm : string;
  pl_mean : float;
  pl_flash : float;
  pl_rerouted : int;
  pl_scale_actions : int;
}

(* The operator's footprint: each VNF keeps only its two highest-capacity
   deployments. The full backbone25 provisioning (every VNF at half the
   sites) leaves so much compute slack that no demand event re-routing can
   follow would ever saturate a whole VNF; the sparse footprint is the
   premise elastic placement exists for — provision the baseline, let the
   control loop open deployments for the tail. *)
let placement_keep = 2
let placement_flash_mag = 4.0

let flash_window cfg = (cfg.ticks / 4, cfg.ticks - (cfg.ticks / 4))

let sparse_footprint model ~keep =
  let drop = ref [] and kept = ref [] in
  for f = 0 to Model.num_vnfs model - 1 do
    let deps =
      Model.vnf_sites model f
      |> List.sort (fun (sa, ca) (sb, cb) ->
             match compare cb ca with 0 -> compare sa sb | c -> c)
    in
    List.iteri
      (fun i (s, c) ->
        drop := (f, s) :: !drop;
        if i < keep then kept := (f, s, c) :: !kept)
      deps
  done;
  Model.with_extra_deployments (Model.without_deployments model !drop)
    (List.rev !kept)

(* The flash crowd's epicentre: the ingress node whose chains carry the
   most base demand (ties to the lowest node id) — a crowd on a
   negligible-traffic PoP would vanish into the VNFs' headroom. *)
let hot_pop model =
  let weight = Hashtbl.create 16 in
  for c = 0 to Model.num_chains model - 1 do
    let i = Model.chain_ingress model c in
    let w = Model.fwd_traffic model ~chain:c ~stage:0 in
    Hashtbl.replace weight i
      (w +. Option.value ~default:0. (Hashtbl.find_opt weight i))
  done;
  fst
    (Hashtbl.fold
       (fun node w ((bn, bw) as best) ->
         if w > bw || (w = bw && node < bn) then (node, w) else best)
       weight (-1, 0.))

let placement_scenario cfg =
  let model = sparse_footprint (backbone25 cfg) ~keep:placement_keep in
  let n = cfg.num_chains in
  let lo, hi = flash_window cfg in
  let w = W.diurnal ~seed:cfg.seed ~ticks:cfg.ticks ~keys:n ~period:cfg.ticks () in
  let hot = hot_pop model in
  let is_hot = Array.init n (fun c -> Model.chain_ingress model c = hot) in
  (* Inside the window a hot chain's crowd rides on top of wherever its
     diurnal curve sits, never below nominal — a flash crowd in the
     night-time trough is still a crowd. *)
  let demand ~epoch ~chain =
    let d = W.demand w ~tick:epoch ~key:chain in
    if is_hot.(chain) && epoch >= lo && epoch < hi then
      placement_flash_mag *. Float.max 1. d
    else d
  in
  let sc =
    {
      Loop.sc_model = model;
      sc_epochs = cfg.ticks;
      sc_epoch_len = cfg.epoch_len;
      sc_demand = demand;
      sc_failures = [];
    }
  in
  (* The oracle's perfect-knowledge extras: place against the flash-peak
     demand with the same scorer and the same open budget the online
     planner gets, so the oracle bounds what elastic placement could do —
     not what an unboundedly provisioned network could. *)
  let peak =
    Array.init n (fun c -> if is_hot.(c) then placement_flash_mag else 1.0)
  in
  let mp = Model.with_chain_traffic_factors model peak in
  let ls = Sb_core.Routing.load_state (Sb_core.Dp_routing.solve mp) in
  let sugg =
    Sb_core.Placement.suggest_inst ~load:ls
      (Sb_core.Instance.compile mp)
      ~new_sites_per_vnf:1
  in
  (* Most-pressed VNFs first: rank each suggestion by the utilization of
     its VNF's LEAST-loaded existing deployment (the planner's own firing
     signal — a VNF saturated everywhere has no routing fix). *)
  let pressure f =
    List.fold_left
      (fun a (s, _) -> Float.min a (Sb_core.Load_state.vnf_utilization ls ~vnf:f ~site:s))
      infinity (Model.vnf_sites model f)
  in
  let ranked =
    List.stable_sort
      (fun (fa, _, _) (fb, _, _) -> Float.compare (pressure fb) (pressure fa))
      sugg
  in
  let extras =
    List.filteri (fun i _ -> i < Place.default_params.Place.max_extra) ranked
  in
  (sc, extras)

let placement_sweep cfg =
  let sc, extras = placement_scenario cfg in
  let lo, hi = flash_window cfg in
  let mean f = function
    | [] -> 0.
    | eps -> List.fold_left (fun a e -> a +. f e) 0. eps /. float_of_int (List.length eps)
  in
  let point name (r : Loop.run_result) =
    let flash =
      List.filter (fun ep -> ep.Loop.ep_epoch >= lo && ep.Loop.ep_epoch < hi) r.Loop.epochs
    in
    {
      pl_arm = name;
      pl_mean = mean (fun e -> e.Loop.ep_supported) r.Loop.epochs;
      pl_flash = mean (fun e -> e.Loop.ep_supported) flash;
      pl_rerouted = r.Loop.total_rerouted;
      pl_scale_actions = r.Loop.total_scale_actions;
    }
  in
  let params = { Loop.default_params with seed = cfg.seed; lanes = cfg.lanes } in
  let route_only = Loop.run ~params sc Loop.Closed_loop in
  let placed =
    Loop.run
      ~params:{ params with Loop.placement = Some Place.default_params }
      sc Loop.Closed_loop
  in
  (* The oracle arm is the IDENTICAL closed loop on the model pre-extended
     with the perfect-knowledge placements: same resolver, same telemetry
     lag, same rollout latency — the provisioning is the only variable, so
     [placement/oracle] reads as "how much of perfect advance provisioning
     does elastic placement recover online". (A full per-epoch re-solve
     would fold resolver quality into the denominator and measure the
     wrong thing.) *)
  let oracle =
    Loop.run ~params
      { sc with Loop.sc_model = Model.with_extra_deployments sc.Loop.sc_model extras }
      Loop.Closed_loop
  in
  [ point "route-only" route_only; point "placement" placed; point "oracle" oracle ]

let pp_placement_point ppf p =
  Format.fprintf ppf "arm=%s mean=%.4f flash=%.4f rerouted=%d scale_actions=%d"
    p.pl_arm p.pl_mean p.pl_flash p.pl_rerouted p.pl_scale_actions

(* -------------------------- dataplane side --------------------------- *)

type fabric = {
  fb_shard : Shard.t;
  fb_fwd : int array;  (* forwarder id per model site *)
  fb_entry : (int * int * int) option array;
      (* per chain: (ingress edge, chain label, egress label) *)
}

(* Stress fabric from the model's SB-DP routes: one forwarder + edge per
   site, each chain's highest-weight decomposed path installed stage by
   stage (same-site hops target the instance/edge directly; cross-site
   hops relay through the destination forwarder with an rx rule). The
   fabric stays on these routes for the whole run — it is the
   flow-table stress rig, not a mirror of the closed loop's re-routing. *)
let build_fabric cfg model =
  let routing = Sb_core.Dp_routing.solve model in
  let shard = Shard.create ~seed:cfg.seed ~lanes:cfg.lanes () in
  let nsites = Model.num_sites model in
  let site =
    Array.init nsites (fun s -> Shard.add_site shard (Printf.sprintf "site%d" s))
  in
  let fwd = Array.map (fun s -> Shard.add_forwarder shard ~site:s) site in
  let edge = Array.init nsites (fun s -> Shard.add_edge shard ~site:site.(s) ~forwarder:fwd.(s)) in
  let insts = Hashtbl.create 64 in
  let inst_at vnf s =
    match Hashtbl.find_opt insts (vnf, s) with
    | Some id -> id
    | None ->
      let id = Shard.add_vnf_instance shard ~vnf ~site:site.(s) ~forwarder:fwd.(s) () in
      Hashtbl.add insts (vnf, s) id;
      id
  in
  let site_of_node nd =
    match Model.site_of_node model nd with
    | Some s -> s
    | None -> invalid_arg "Scenario.build_fabric: route visits a siteless node"
  in
  let n = Model.num_chains model in
  let entry = Array.make n None in
  for c = 0 to n - 1 do
    match Sb_core.Routing.decompose_paths routing ~chain:c with
    | [] -> ()
    | paths ->
      let nodes, _ =
        List.fold_left
          (fun (bn, bw) (nd, w) -> if w > bw then (nd, w) else (bn, bw))
          ([||], -1.) paths
      in
      let sites_of = Array.map site_of_node nodes in
      let vnfs = Model.chain_vnfs model c in
      let len = Array.length nodes in
      let egress_label = sites_of.(len - 1) in
      let chain_label = c + 1 in
      for z = 0 to len - 2 do
        let src = sites_of.(z) and dst = sites_of.(z + 1) in
        let targets =
          if z = len - 2 then [ (Shard.Edge edge.(egress_label), 1.0) ]
          else [ (Shard.Vnf_instance (inst_at vnfs.(z) dst), 1.0) ]
        in
        if src = dst then
          Shard.install_rule shard ~forwarder:fwd.(src) ~chain_label ~egress_label
            ~stage:z targets
        else begin
          Shard.install_rule shard ~forwarder:fwd.(src) ~chain_label ~egress_label
            ~stage:z
            [ (Shard.Forwarder fwd.(dst), 1.0) ];
          Shard.install_rx_rule shard ~forwarder:fwd.(dst) ~chain_label ~egress_label
            ~stage:z targets
        end
      done;
      entry.(c) <- Some (edge.(sites_of.(0)), chain_label, egress_label)
  done;
  { fb_shard = shard; fb_fwd = fwd; fb_entry = entry }

let total_entries shard fwds =
  Array.fold_left
    (fun acc f ->
      let count, _, _ = Shard.flow_table_stats shard ~forwarder:f in
      acc + count)
    0 fwds

let apply_faults fab ~time = function
  | None -> ()
  | Some sched ->
    List.iter
      (function
        | Schedule.Site_outage { site; start; stop } ->
          let down = time >= start && time < stop in
          let f = fab.fb_fwd.(site) in
          if down && Shard.forwarder_alive fab.fb_shard f then
            Shard.fail_forwarder fab.fb_shard f
          else if (not down) && not (Shard.forwarder_alive fab.fb_shard f) then
            Shard.revive_forwarder fab.fb_shard f
        | _ -> ())
      sched.Schedule.faults

let run_dataplane cfg model w faults =
  let fab = build_fabric cfg model in
  let shard = fab.fb_shard in
  let n = Model.num_chains model in
  let per_chain_window = max 1 (cfg.window / max 1 n) in
  let gens =
    Array.init n (fun c ->
        Tg.create_stream ~seed:(cfg.seed + (1_000_003 * (c + 1))) ~window:per_chain_window ())
  in
  let dem = Array.make n 0. in
  let packets = ref 0 and delivered = ref 0 and expired = ref 0 and peak = ref 0 in
  for e = 0 to cfg.ticks - 1 do
    apply_faults fab ~time:(float_of_int e *. cfg.epoch_len) faults;
    Shard.set_clock shard e;
    W.demand_into w ~tick:e dem;
    let tot = Array.fold_left ( +. ) 0. dem in
    let churn_rate = W.churn w ~tick:e in
    for c = 0 to n - 1 do
      match fab.fb_entry.(c) with
      | None -> ()
      | Some (ingress, chain_label, egress_label) when dem.(c) > 0. ->
        let g = gens.(c) in
        (* Flow turnover first: every fresh flow sends its first packet,
           so the distinct-flow count the generator reports is exactly
           the set the flow tables absorbed. *)
        let turnover =
          int_of_float (Float.round (churn_rate *. float_of_int (Tg.live_flows g)))
        in
        Tg.churn g
          ~opened:(fun tp ->
            incr packets;
            if Shard.drive shard ~ingress ~chain_label ~egress_label ~size:64 tp then
              incr delivered)
          turnover;
        (* Then the tick's sustained traffic, split by demand share. *)
        let npkts =
          if tot <= 0. then 0
          else
            int_of_float
              (Float.round (dem.(c) /. tot *. float_of_int cfg.pkts_per_tick))
        in
        for _ = 1 to npkts do
          let tp, size = Tg.next g in
          incr packets;
          if Shard.drive shard ~ingress ~chain_label ~egress_label ~size tp then
            incr delivered
        done
      | Some _ -> ()
    done;
    if e >= cfg.idle_ticks then
      expired := !expired + Shard.expire_flows shard ~idle_before:(e - cfg.idle_ticks + 1);
    let occ = total_entries shard fab.fb_fwd in
    if occ > !peak then peak := occ
  done;
  let final_entries = total_entries shard fab.fb_fwd in
  Shard.shutdown shard;
  let unroutable =
    Array.fold_left (fun a e -> if e = None then a + 1 else a) 0 fab.fb_entry
  in
  let distinct = Array.fold_left (fun a g -> a + Tg.distinct_flows g) 0 gens in
  let live = Array.fold_left (fun a g -> a + Tg.live_flows g) 0 gens in
  (!packets, !delivered, distinct, live, !peak, final_entries, !expired, unroutable)

(* ------------------------------ matrix ------------------------------- *)

let run_one cfg model (name, w, faults) =
  let packets, delivered, distinct, live, peak, final, expired, unroutable =
    run_dataplane cfg model w faults
  in
  let satisfied, oracle, p99, bus_delivered = run_control cfg model w faults in
  {
    m_scenario = name;
    m_packets = packets;
    m_delivered = delivered;
    m_distinct_flows = distinct;
    m_live_flows = live;
    m_peak_entries = peak;
    m_final_entries = final;
    m_expired = expired;
    m_unroutable = unroutable;
    m_p99_latency_ms = p99;
    m_bus_delivered = bus_delivered;
    m_satisfied = satisfied;
    m_oracle = oracle;
    m_ratio = (if oracle > 0. then satisfied /. oracle else 1.);
  }

let run_matrix ?names cfg =
  let model = backbone25 cfg in
  let entries = catalog cfg model in
  let entries =
    match names with
    | None -> entries
    | Some wanted -> List.filter (fun (n, _, _) -> List.mem n wanted) entries
  in
  List.map (run_one cfg model) entries

let pp_metrics ppf m =
  Format.fprintf ppf
    "@[<v>%s:@,\
    \  dataplane: packets=%d delivered=%d distinct_flows=%d live_flows=%d@,\
    \  flow_tables: peak_entries=%d final_entries=%d expired=%d unroutable=%d@,\
    \  control: p99_bus_ms=%.3f bus_delivered=%d satisfied=%.4f oracle=%.4f \
     ratio=%.4f@]"
    m.m_scenario m.m_packets m.m_delivered m.m_distinct_flows m.m_live_flows
    m.m_peak_entries m.m_final_entries m.m_expired m.m_unroutable m.m_p99_latency_ms
    m.m_bus_delivered m.m_satisfied m.m_oracle m.m_ratio
