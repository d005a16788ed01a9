module Engine = Sb_sim.Engine
module System = Sb_ctrl.System
module Ct = Sb_ctrl.Types
module Model = Sb_core.Model
module Instance = Sb_core.Instance
module Load_state = Sb_core.Load_state
module Routing = Sb_core.Routing
module Dp = Sb_core.Dp_routing
module Greedy = Sb_core.Greedy
module Paths = Sb_net.Paths
module Topology = Sb_net.Topology
module Packet = Sb_dataplane.Packet
module E2e = Sb_flowsim.E2e
module Rng = Sb_util.Rng

type scenario = {
  sc_model : Model.t;
  sc_epochs : int;
  sc_epoch_len : float;
  sc_demand : epoch:int -> chain:int -> float;
  sc_failures : (int * int list) list;
}

type arm = Static | Closed_loop | Oracle | Anycast_dist

let arm_name = function
  | Static -> "static"
  | Closed_loop -> "closed-loop"
  | Oracle -> "oracle"
  | Anycast_dist -> "anycast"

type params = {
  hysteresis : float;
  churn_budget : int;
  util_weight : float;
  pkts_per_unit : int;
  staleness : int;
  control_lag : float;
  vnf_headroom : float;
  lanes : int;
  seed : int;
  placement : Place.params option;
}

(* Defaults from the bench sweep on the tier-1 TE scenario: a low
   hysteresis with a moderate churn budget tracks diurnal drift at ~100%
   of the oracle and recovers from a core-link failure within two control
   epochs; utilization weighted 2x the solver default keeps the
   incremental moves away from the post-failure hot links. *)
let default_params =
  {
    hysteresis = 0.05;
    churn_budget = 6;
    util_weight = 0.10;
    pkts_per_unit = 16;
    staleness = 3;
    control_lag = 0.5;
    vnf_headroom = 4.0;
    lanes = 1;
    seed = 42;
    placement = None;
  }

type epoch_report = {
  ep_epoch : int;
  ep_supported : float;
  ep_throughput : float;
  ep_mean_rtt : float;
  ep_rerouted : int;
  ep_down_links : int;
  ep_reports : int;
}

type run_result = {
  epochs : epoch_report list;
  total_rerouted : int;
  total_scale_actions : int;
}

let diurnal_demand ?(amplitude = 0.8) ?(period = 8) ~seed n =
  let rng = Rng.create seed in
  let phases = Array.init n (fun _ -> Rng.float rng (2. *. Float.pi)) in
  fun ~epoch ~chain ->
    1.
    +. amplitude
       *. sin (phases.(chain) +. (2. *. Float.pi *. float_of_int epoch /. float_of_int period))

let failed_at sc e =
  List.fold_left
    (fun acc (ef, links) ->
      if ef <= e then
        List.fold_left (fun acc l -> if List.mem l acc then acc else l :: acc) acc links
      else acc)
    [] sc.sc_failures
  |> List.sort compare

(* Ground truth at epoch [e]: failures first (rebuilds the topology), then
   the demand factors on top. *)
let truth sc e =
  let n = Model.num_chains sc.sc_model in
  let m =
    match failed_at sc e with
    | [] -> sc.sc_model
    | failed -> Model.with_failed_links sc.sc_model failed
  in
  Model.with_chain_traffic_factors m
    (Array.init n (fun c -> sc.sc_demand ~epoch:e ~chain:c))

(* Re-materialize a set of per-chain paths on a (possibly different but
   structurally identical) model and measure it. The headline is SATISFIED
   demand, [min(1, max_alpha) * reachable demand]: a routing with alpha >= 1
   carries everything the epoch offers, an overloaded one only its feasible
   fraction — spare headroom beyond alpha = 1 earns nothing. A path with a
   hop the failed topology cannot connect (an element at a fully isolated
   site) delivers NOTHING: it is dropped before the alpha evaluation and
   its share of the chain's demand is forfeited — the underlay load model
   would otherwise charge a disconnected hop zero capacity anywhere, i.e.
   silently credit blackholed traffic as satisfied. *)
let measure tm paths_per_chain =
  (* One compiled instance backs the packed routing AND the alpha
     evaluation arena — the epoch loop no longer re-walks the model. *)
  let inst = Instance.compile tm in
  let r = Routing.of_instance inst in
  let up = Model.paths tm in
  let connected nodes =
    let ok = ref true in
    for z = 0 to Array.length nodes - 2 do
      if
        nodes.(z) <> nodes.(z + 1)
        && not (Float.is_finite (Paths.delay up nodes.(z) nodes.(z + 1)))
      then ok := false
    done;
    !ok
  in
  let reachable = ref 0. in
  Array.iteri
    (fun c paths ->
      let demand_c = ref 0. in
      for z = 0 to Model.num_stages tm c - 1 do
        demand_c :=
          !demand_c
          +. Model.fwd_traffic tm ~chain:c ~stage:z
          +. Model.rev_traffic tm ~chain:c ~stage:z
      done;
      let live = ref 0. in
      List.iter
        (fun (nodes, frac) ->
          if connected nodes then begin
            live := !live +. frac;
            Routing.add_path r ~chain:c ~nodes ~frac
          end)
        paths;
      reachable := !reachable +. (Float.min 1. !live *. !demand_c))
    paths_per_chain;
  let alpha = Routing.max_alpha_into (Load_state.of_instance inst) r in
  let satisfied = Float.min 1. alpha *. !reachable in
  let e2e = E2e.evaluate r in
  (satisfied, e2e.E2e.total_throughput, e2e.E2e.mean_rtt)

let paths_of routing n =
  Array.init n (fun c -> Routing.decompose_paths routing ~chain:c)

(* -------------------------- the epoch driver -------------------------- *)

(* Per-run state shared by the driver and the arms. *)
type ctx = {
  sc : scenario;
  p : params;
  moved : int array;  (* chains re-routed going into each epoch *)
  failed_now : int list ref;  (* ground-truth failed links at the last probe tick *)
}

(* The one epoch driver: grid, probes, scoring and report; an arm passes
   only the stages that differ. In epoch [e] from [te]: probes into the
   [probed] system at [te + 0.05T], [advertise] at [te + 0.90T], scoring
   of [paths e truth] against [score_model truth] at [te + 0.95T],
   [control] at [te + T + control_lag] (not after the last epoch), and
   [stop] just after the last epoch. The probe tick first drives the
   system's flow-expiry clock: connections idle for two epochs age out, so
   the forwarders' per-connection state is bounded by the live probe
   window however long the run, and a drain can complete. *)
let drive ctx ?probed ?advertise ?control ?(score_model = Fun.id)
    ?(down_links = fun e -> List.length (failed_at ctx.sc e)) ?(reports = fun () -> 0) ?stop
    ?(scale_actions = fun () -> 0) eng paths =
  let sc = ctx.sc and p = ctx.p in
  let m = sc.sc_model in
  let rng = Rng.split ~stream:1 (Rng.create p.seed) in
  let probe e =
    ctx.failed_now := failed_at sc e;
    Option.iter
      (fun (sys, ids) ->
        let sh = System.shard sys in
        Sb_dataplane.Shard.set_clock sh e;
        if e >= 2 then ignore (Sb_dataplane.Shard.expire_flows sh ~idle_before:(e - 2));
        Array.iteri
          (fun c id ->
            let units =
              sc.sc_demand ~epoch:e ~chain:c *. Model.fwd_traffic m ~chain:c ~stage:0
            in
            let count = Float.round (float_of_int p.pkts_per_unit *. units) in
            for _ = 1 to max 1 (int_of_float count) do
              ignore (System.probe_chain sys ~chain:id (Packet.random_tuple rng))
            done)
          ids)
      probed
  in
  let results = ref [] in
  let score e =
    let tm = truth sc e in
    let paths = paths e tm in
    let supported, tput, rtt = measure (score_model tm) paths in
    results :=
      {
        ep_epoch = e;
        ep_supported = supported;
        ep_throughput = tput;
        ep_mean_rtt = rtt;
        ep_rerouted = ctx.moved.(e);
        ep_down_links = down_links e;
        ep_reports = reports ();
      }
      :: !results
  in
  let tlen = sc.sc_epoch_len and t0 = Engine.now eng in
  let at time f = ignore (Engine.schedule_at eng ~time f) in
  for e = 0 to sc.sc_epochs - 1 do
    let te = t0 +. (float_of_int e *. tlen) in
    at (te +. (0.05 *. tlen)) (fun () -> probe e);
    Option.iter (fun f -> at (te +. (0.90 *. tlen)) (fun () -> f e)) advertise;
    at (te +. (0.95 *. tlen)) (fun () -> score e);
    if e < sc.sc_epochs - 1 then
      Option.iter (fun f -> at (te +. tlen +. p.control_lag) (fun () -> f e)) control
  done;
  Option.iter (at (t0 +. (float_of_int sc.sc_epochs *. tlen) +. (0.01 *. tlen))) stop;
  Engine.run eng;
  {
    epochs = List.rev !results;
    total_rerouted = Array.fold_left ( + ) 0 ctx.moved;
    total_scale_actions = scale_actions ();
  }

(* The offline arms only choose paths, on a bare engine (no system). *)
let static ctx =
  let paths = paths_of (Dp.solve (truth ctx.sc 0)) (Model.num_chains ctx.sc.sc_model) in
  drive ctx (Engine.create ()) (fun _ _ -> paths)

(* The oracle re-solves from scratch each epoch with perfect knowledge; the
   sequential DP is order-sensitive, so take the best of a few seeded chain
   orders to make it a credible upper bound. *)
let oracle_solve tm =
  let best = ref None in
  for seed = 0 to 4 do
    let r =
      if seed = 0 then Dp.solve tm else Dp.solve ~rng:(Rng.create seed) tm
    in
    let score = Float.min 1. (Routing.max_alpha r) in
    match !best with
    | Some (s, _) when s >= score -> ()
    | _ -> best := Some (score, r)
  done;
  match !best with Some (_, r) -> r | None -> assert false

let oracle ctx =
  let prev = ref [||] in
  drive ctx (Engine.create ()) (fun e tm ->
      let paths = paths_of (oracle_solve tm) (Model.num_chains tm) in
      if e > 0 then
        Array.iteri (fun c p -> if p <> !prev.(c) then ctx.moved.(e) <- ctx.moved.(e) + 1)
          paths;
      prev := paths;
      paths)

(* Shared establishment for the live arms (closed loop and decentralized
   anycast): assemble the control plane, provision every deployment from
   the model, register the edges and commit the initial routing [r0]
   through the normal 2PC — chain admission is a control-plane act either
   way; the arms differ in who adapts the routes afterwards. The caller's
   [on_system] then sees the established system before any arm stage is
   built. *)
let establish ?(on_system = ignore) sc p r0 =
  let m = sc.sc_model in
  let n = Model.num_chains m in
  let num_sites = Model.num_sites m in
  let site_of node =
    match Model.site_of_node m node with
    | Some s -> s
    | None ->
      invalid_arg "Loop.run: the live arms need a site at every routed node"
  in
  let base_paths = Model.paths m in
  let delay a b =
    if a = b then 0.
    else
      let d = Paths.delay base_paths (Model.site_node m a) (Model.site_node m b) in
      if Float.is_finite d then d else 0.05
  in
  let sys = System.create ~seed:p.seed ~lanes:p.lanes ~num_sites ~delay ~gsb_site:0 () in
  (* Nothing here reads the control-plane event log, which would otherwise
     grow by a few lines per transaction for the whole run. *)
  System.set_logging sys false;
  (* Provision every deployment from the model, with headroom over the
     model's capacity so the VNF controllers' admission (keyed to the
     static per-chain spec traffic) never vetoes a re-route the resolver
     already found capacity-feasible (DESIGN.md section 8). *)
  for f = 0 to Model.num_vnfs m - 1 do
    List.iter
      (fun (site, cap) ->
        System.deploy_vnf sys ~vnf:f ~site ~capacity:(p.vnf_headroom *. cap) ~instances:2)
      (Model.vnf_sites m f)
  done;
  for s = 0 to num_sites - 1 do
    System.register_edge sys ~site:s ~attachment:(Printf.sprintf "site%d" s)
  done;
  let routes_of routing chain =
    List.map
      (fun (nodes, frac) ->
        { Ct.element_sites = Array.map site_of nodes; weight = frac })
      (Routing.decompose_paths routing ~chain)
  in
  let initial = Array.init n (fun c -> routes_of r0 c) in
  let chain_of_name = Hashtbl.create n in
  System.set_route_policy sys (fun spec ~exclude:_ ->
      match Hashtbl.find_opt chain_of_name spec.Ct.spec_name with
      | Some c -> ( match initial.(c) with [] -> None | routes -> Some routes)
      | None -> None);
  let ids =
    Array.init n (fun c ->
        let name = Printf.sprintf "c%d" c in
        Hashtbl.replace chain_of_name name c;
        System.request_chain sys
          {
            Ct.spec_name = name;
            ingress_attachment =
              Printf.sprintf "site%d" (site_of (Model.chain_ingress m c));
            egress_attachment =
              Printf.sprintf "site%d" (site_of (Model.chain_egress m c));
            vnfs = Array.to_list (Model.chain_vnfs m c);
            traffic = Model.fwd_traffic m ~chain:c ~stage:0;
          })
  in
  Engine.run (System.engine sys);
  (* Hand the assembled system to the caller before the epochs are laid
     out: [sb_chaos] arms its fault schedule and invariant probes here. *)
  on_system sys;
  (sys, ids, routes_of)

(* The ground-truth failed links incident to site [s]: a site observes the
   liveness of its own links only. *)
let incident ctx s =
  let m = ctx.sc.sc_model in
  let node = Model.site_node m s in
  List.filter
    (fun l ->
      let lk = Topology.link (Model.topology m) l in
      lk.Topology.src = node || lk.Topology.dst = node)
    !(ctx.failed_now)

(* The closed loop's control tick is sense -> decide -> actuate: the
   aggregator's measured traffic matrix and failure view, then the optional
   [Place] planner, then an incremental resolve rolled out through the 2PC.
   Scoring reads the INSTALLED routes (post two-phase commit), not what the
   resolver intends: rollout latency is part of the loop. *)
let closed_loop ?on_system ctx =
  let sc = ctx.sc and p = ctx.p in
  let m = sc.sc_model in
  let n = Model.num_chains m in
  let num_sites = Model.num_sites m in
  let r0 = Dp.solve (truth sc 0) in
  let sys, ids, routes_of = establish ?on_system sc p r0 in
  let planner = Option.map (fun pp -> Place.create ~params:pp ()) p.placement in
  let exporters =
    List.init num_sites (fun s ->
        Telemetry.Exporter.start ~system:sys ~site:s ~period:sc.sc_epoch_len
          ~down_links:(fun () -> incident ctx s)
          ())
  in
  let agg =
    Telemetry.Aggregator.create ~system:sys ~site:0 ~chains:(Array.to_list ids)
      ~num_sites ~staleness:p.staleness ()
  in
  let factors_meas = Array.make n 1.0 in
  let down_at = Array.make sc.sc_epochs 0 in
  let sense e =
    for c = 0 to n - 1 do
      match Telemetry.Aggregator.chain_packets agg ~epoch:e ~chain:ids.(c) with
      | Some pkts ->
        let base = float_of_int p.pkts_per_unit *. Model.fwd_traffic m ~chain:c ~stage:0 in
        if base > 0. then factors_meas.(c) <- float_of_int pkts /. base
      | None -> () (* stale chain: hold the previous estimate *)
    done;
    let down = Telemetry.Aggregator.down_links agg ~epoch:e in
    down_at.(e) <- List.length down;
    let base = match down with [] -> m | _ -> Model.with_failed_links m down in
    Model.with_chain_traffic_factors base (Array.copy factors_meas)
  in
  let cur = ref r0 in
  (* Plan against the measured model, apply the actions through the control
     plane, and hand on the model including the planner's opens so the
     resolver can steer load onto (or off) the changed deployments. A
     scale-in's deployment vanishes from that model, so its chains re-route
     with infinite gain; the drain completes once their updates commit and
     the established flows idle out. *)
  let place pl measured =
    List.iter
      (function
        | Place.Scale_out { vnf; site; capacity } ->
          System.scale_out sys ~vnf ~site ~capacity:(p.vnf_headroom *. capacity)
            ~instances:2
        | Place.Scale_in { vnf; site } ->
          System.drain_and_remove sys ~vnf ~site ~timeout:(4. *. sc.sc_epoch_len)
            ~on_done:(fun ok ->
              if ok then Place.note_drain_done pl ~vnf ~site
              else Place.note_drain_aborted pl ~vnf ~site)
            ())
      (Place.plan pl ~measured ~paths:(paths_of !cur n));
    match Place.extra pl with
    | [] -> measured
    | ex -> Model.with_extra_deployments measured ex
  in
  let decide = match planner with None -> Fun.id | Some pl -> place pl in
  let actuate e measured =
    let r', stats =
      Dp.resolve ~util_weight:p.util_weight ~hysteresis:p.hysteresis
        ~churn_budget:p.churn_budget ~prev:!cur measured
    in
    cur := r';
    ctx.moved.(e + 1) <- List.length stats.Dp.rerouted;
    List.iter
      (fun c ->
        match routes_of r' c with
        | [] -> ()
        | routes -> System.update_routes sys ~chain:ids.(c) routes)
      stats.Dp.rerouted
  in
  let installed () =
    Array.map
      (fun id ->
        List.filter_map
          (fun (r : Ct.route) ->
            if r.Ct.weight <= 0. then None
            else Some (Array.map (Model.site_node m) r.Ct.element_sites, r.Ct.weight))
          (System.chain_routes sys ~chain:id))
      ids
  in
  (* A dead Global Switchboard adapts nothing: the aggregator and the
     resolver live with it, and its 2PC would drop the rollout anyway.
     Routes freeze at the last committed set until the standby takes over. *)
  let control e = if not (System.gsb_is_down sys) then actuate e (decide (sense e)) in
  (* The ground truth carries the operator's provisioning only; the
     deployments placement has physically opened (including drains still
     serving established flows) must back the paths that use them. *)
  let score_model tm =
    match Option.map Place.live planner with
    | None | Some [] -> tm
    | Some ex -> Model.with_extra_deployments tm ex
  in
  drive ctx (System.engine sys)
    (fun _ _ -> installed ())
    ~probed:(sys, ids) ~control ~score_model
    ~down_links:(fun e -> if e = 0 then 0 else down_at.(e - 1))
    ~reports:(fun () -> Telemetry.Aggregator.reports agg)
    ~stop:(fun () -> List.iter Telemetry.Exporter.stop exporters)
    ~scale_actions:(fun () -> Option.fold ~none:0 ~some:Place.actions_emitted planner)

(* The decentralized arm: no aggregator, no resolver, no 2PC after
   establishment. Every site runs an [Anycast.Agent] that floods a
   [Load_advert] late in each epoch and re-points its owned rules at the
   decision tick; scoring reads the emergent hop-by-hop walk of the same
   views ([Anycast.route]), i.e. exactly what the installed rules forward.
   The initial commit is the pure delay-anycast routing — the fixed point
   of the agents' no-information fallback — so epoch 0 is consistent before
   any advert has flooded. *)
let anycast ?on_system ctx =
  let sc = ctx.sc and p = ctx.p in
  let m = sc.sc_model in
  let r0 = Greedy.anycast (truth sc 0) in
  let sys, ids, _ = establish ?on_system sc p r0 in
  let agents =
    Array.init (Model.num_sites m) (fun s ->
        Anycast.Agent.create ~sys ~model:m ~site:s ~ids ~staleness:p.staleness
          ~pkts_per_unit:p.pkts_per_unit
          ~down_links:(fun () -> incident ctx s)
          ())
  in
  let n = Model.num_chains m in
  let paths = ref (paths_of r0 n) in
  let decide e =
    ctx.moved.(e + 1) <-
      Array.fold_left (fun acc a -> acc + Anycast.Agent.decide a ~epoch:e) 0 agents;
    paths := paths_of (Anycast.route m (fun s -> Anycast.Agent.view agents.(s))) n
  in
  drive ctx (System.engine sys)
    (fun _ _ -> !paths)
    ~probed:(sys, ids) ~control:decide
    ~advertise:(fun e -> Array.iter (Anycast.Agent.advertise ~epoch:e) agents)
    ~reports:(fun () ->
      Array.fold_left (fun acc a -> acc + Anycast.received (Anycast.Agent.view a)) 0 agents)

(* Reject up front what would hang or collapse the grid, or be silently
   ignored (a negative budget, a NaN hysteresis, a planner nobody runs). *)
let validate params sc arm on_system =
  let bad fmt = Printf.ksprintf invalid_arg ("Loop.run: " ^^ fmt) in
  if sc.sc_epochs <= 0 then bad "sc_epochs must be positive";
  if not (Float.is_finite sc.sc_epoch_len && sc.sc_epoch_len > 0.) then
    bad "sc_epoch_len must be finite and positive (got %g)" sc.sc_epoch_len;
  if params.churn_budget < 0 then
    bad "churn_budget must be non-negative (got %d)" params.churn_budget;
  if Float.is_nan params.hysteresis || params.hysteresis < 0. then
    bad "hysteresis must be a non-negative number (got %g)" params.hysteresis;
  match (arm, on_system, params.placement) with
  | (Static | Oracle), Some _, _ ->
    bad
      "~on_system is only honoured by the live arms (closed-loop, anycast); the %s arm \
       never assembles a system"
      (arm_name arm)
  | (Static | Oracle | Anycast_dist), _, Some _ ->
    bad "params.placement is only honoured by the closed-loop arm; the %s arm would \
         ignore it"
      (arm_name arm)
  | _ -> ()

let run ?(params = default_params) ?on_system sc arm =
  validate params sc arm on_system;
  let ctx = { sc; p = params; moved = Array.make sc.sc_epochs 0; failed_now = ref [] } in
  match arm with
  | Static -> static ctx
  | Oracle -> oracle ctx
  | Closed_loop -> closed_loop ?on_system ctx
  | Anycast_dist -> anycast ?on_system ctx
