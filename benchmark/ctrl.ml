(* The control-loop workloads: [Loop.run Closed_loop] over a scenario.

   The untraced pass calls [Loop.run] itself and takes epoch boundaries
   from an [Engine.on_fire] observer that reads the clock only when sim
   time crosses into a new epoch. [Loop]'s internals are private, so the
   traced pass runs [traced_closed] below: the same public calls in the
   same order as [Loop.run_closed], each wrapped in a span. A run fails
   unless that copy reproduces [Loop.run]'s result and bus statistics bit
   for bit. *)

module Loop = Sb_adapt.Loop
module Place = Sb_adapt.Place
module Telemetry = Sb_adapt.Telemetry
module Engine = Sb_sim.Engine
module System = Sb_ctrl.System
module Ct = Sb_ctrl.Types
module Bus = Sb_msgbus.Bus
module Model = Sb_core.Model
module Instance = Sb_core.Instance
module Load_state = Sb_core.Load_state
module Routing = Sb_core.Routing
module Dp = Sb_core.Dp_routing
module Paths = Sb_net.Paths
module Topology = Sb_net.Topology
module Packet = Sb_dataplane.Packet
module E2e = Sb_flowsim.E2e
module Rng = Sb_util.Rng

let now = Trace.now_ns
let secs = Trace.secs

(* What two runs of the same scenario must agree on bit for bit. *)
type outcome = { result : Loop.run_result; bus : Bus.stats }

(* A 48-bit fingerprint of the whole outcome (exact as a float), so the
   bit-for-bit comparison rides along with the other exact outputs. *)
let digest (o : outcome) =
  let d = Digest.string (Marshal.to_string o [ Marshal.No_sharing ]) in
  Int64.to_float (Int64.shift_right_logical (String.get_int64_le d 0) 16)

(* Offered demand over the run: every stage's forward plus reverse
   traffic at each epoch's demand factors. *)
let offered (sc : Loop.scenario) =
  let m = sc.Loop.sc_model in
  let n = Model.num_chains m in
  let total = ref 0. in
  for e = 0 to sc.Loop.sc_epochs - 1 do
    total :=
      !total
      +. Model.total_demand
           (Model.with_chain_traffic_factors m
              (Array.init n (fun c -> sc.Loop.sc_demand ~epoch:e ~chain:c)))
  done;
  !total

(* The bus p99 exactly as [Scenario] reports it: the order statistic at
   [int (0.99 * (n - 1))] of the latency reservoir, in ms. *)
let bus_p99_ms (st : Bus.stats) =
  match st.Bus.latencies with
  | [] -> 0.
  | xs ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    1000. *. a.(min (n - 1) (int_of_float (0.99 *. float_of_int (n - 1))))

let exact_of sc ~offered o =
  let st = o.bus and r = o.result in
  let f = float_of_int in
  let supported = List.fold_left (fun a e -> a +. e.Loop.ep_supported) 0. r.Loop.epochs in
  [
    ("satisfied_frac", supported /. offered, "ratio");
    ("bus_p99_ms", bus_p99_ms st, "sim_ms");
    ("wan_kb_per_epoch", f st.Bus.wan_bytes /. 1000. /. f sc.Loop.sc_epochs, "KB");
    ("epochs", f (List.length r.Loop.epochs), "count");
    ("rerouted", f r.Loop.total_rerouted, "count");
    ("scale_actions", f r.Loop.total_scale_actions, "count");
    ("bus_published", f st.Bus.published, "count");
    ("bus_delivered", f st.Bus.delivered, "count");
    ("bus_dropped", f (st.Bus.dropped + st.Bus.fault_dropped), "count");
    ("outcome_digest", digest o, "hash");
  ]

(* [Loop.run] offers no set-up-only entry point; raising from [on_system]
   stops it right after the chains are established. *)
exception Established

let setup_only mk params =
  let t0 = now () in
  let sc = mk () in
  match Loop.run ~params ~on_system:(fun _ -> raise Established) sc Loop.Closed_loop with
  | _ -> invalid_arg "Ctrl.setup_only: Loop.run never established"
  | exception Established -> secs (now () - t0)

let untraced_pass mk params =
  let t_setup = now () in
  let sc = mk () in
  let epochs = sc.Loop.sc_epochs and tlen = sc.Loop.sc_epoch_len in
  let marks = Array.make (epochs + 1) 0 in
  let sys = ref None and t_sys = ref 0 in
  let on_system s =
    t_sys := now ();
    sys := Some s;
    let eng = System.engine s in
    let t0 = Engine.now eng in
    let next = ref 0 in
    Engine.on_fire eng (fun ts ->
        if !next <= epochs && ts >= t0 +. (float_of_int !next *. tlen) then begin
          let c = now () in
          while !next <= epochs && ts >= t0 +. (float_of_int !next *. tlen) do
            marks.(!next) <- c;
            incr next
          done
        end)
  in
  let result = Loop.run ~params ~on_system sc Loop.Closed_loop in
  let t_end = now () in
  let heap_peak_mb = Report.heap_peak_mb () in
  let s = match !sys with Some s -> s | None -> invalid_arg "Ctrl.pass: no system" in
  let o = { result; bus = Bus.stats (System.bus s) } in
  {
    Report.empty_pass with
    setup_s = [ secs (!t_sys - t_setup) ];
    steps = List.init epochs (fun e -> (1, secs (marks.(e + 1) - marks.(e))));
    body_s = secs (t_end - !t_sys);
    heap_peak_mb;
    ops = epochs;
    failed = epochs - List.length result.Loop.epochs;
    exact = exact_of sc ~offered:(offered sc) o;
  }

(* ---------------- traced copy of Loop.run_closed ---------------- *)

let failed_at (sc : Loop.scenario) e =
  List.fold_left
    (fun acc (ef, links) ->
      if ef <= e then
        List.fold_left (fun acc l -> if List.mem l acc then acc else l :: acc) acc links
      else acc)
    [] sc.Loop.sc_failures
  |> List.sort compare

let truth (sc : Loop.scenario) e =
  let n = Model.num_chains sc.Loop.sc_model in
  let m =
    match failed_at sc e with
    | [] -> sc.Loop.sc_model
    | failed -> Model.with_failed_links sc.Loop.sc_model failed
  in
  Model.with_chain_traffic_factors m (Array.init n (fun c -> sc.Loop.sc_demand ~epoch:e ~chain:c))

let paths_of routing n = Array.init n (fun c -> Routing.decompose_paths routing ~chain:c)

(* [Loop]'s epoch scoring, with the alpha evaluation and the flow-level
   evaluation as two spans. *)
let measure tr ~i_alpha ~i_e2e ~step tm paths_per_chain =
  let r, alpha, reachable =
    Trace.span tr i_alpha ~step (fun () ->
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
        (r, alpha, !reachable))
  in
  let satisfied = Float.min 1. alpha *. reachable in
  let e2e = Trace.span tr i_e2e ~step (fun () -> E2e.evaluate r) in
  (satisfied, e2e.E2e.total_throughput, e2e.E2e.mean_rtt)

(* Per-layer counters the traced copy collects alongside its spans. *)
type counters = {
  mutable probes : int;
  mutable events : int;
  mutable considered : int;
  mutable over_threshold : int;
  mutable resolved : int;
  mutable actions : int;
}

let traced_closed tr (sc : Loop.scenario) (p : Loop.params) =
  let nm = Trace.name tr in
  let i_probe = nm "system.probe" and i_gen = nm "traffic_gen" and i_expire = nm "shard.expire" in
  let i_agg = nm "telemetry.aggregator" and i_derive = nm "model.derive" in
  let i_plan = nm "place.plan" and i_actuate = nm "system.actuate" in
  let i_resolve = nm "dp_routing.resolve" and i_alpha = nm "score.alpha" in
  let i_e2e = nm "e2e.evaluate" in
  let i_run = nm "run" and i_other = nm "engine.other" and i_callback = nm "ctrl.callback" in
  let k =
    {
      probes = 0;
      events = 0;
      considered = 0;
      over_threshold = 0;
      resolved = 0;
      actions = 0;
    }
  in
  let m = sc.Loop.sc_model in
  let n = Model.num_chains m in
  let num_sites = Model.num_sites m in
  (* set-up: the same establishment [Loop] performs, untraced *)
  let r0 = Dp.solve (truth sc 0) in
  let site_of node =
    match Model.site_of_node m node with
    | Some s -> s
    | None -> invalid_arg "Ctrl.traced_closed: a routed node has no site"
  in
  let base_paths = Model.paths m in
  let delay a b =
    if a = b then 0.
    else
      let d = Paths.delay base_paths (Model.site_node m a) (Model.site_node m b) in
      if Float.is_finite d then d else 0.05
  in
  let sys = System.create ~seed:p.Loop.seed ~lanes:p.Loop.lanes ~num_sites ~delay ~gsb_site:0 () in
  for f = 0 to Model.num_vnfs m - 1 do
    List.iter
      (fun (site, cap) ->
        System.deploy_vnf sys ~vnf:f ~site ~capacity:(p.Loop.vnf_headroom *. cap) ~instances:2)
      (Model.vnf_sites m f)
  done;
  for s = 0 to num_sites - 1 do
    System.register_edge sys ~site:s ~attachment:(Printf.sprintf "site%d" s)
  done;
  let routes_of routing chain =
    List.map
      (fun (nodes, frac) -> { Ct.element_sites = Array.map site_of nodes; weight = frac })
      (Routing.decompose_paths routing ~chain)
  in
  let initial = Array.init n (fun c -> routes_of r0 c) in
  let chain_of_name = Hashtbl.create n in
  System.set_route_policy sys (fun spec ~exclude:_ ->
      match Hashtbl.find_opt chain_of_name spec.Ct.spec_name with
      | Some c -> ( match initial.(c) with [] -> None | routes -> Some routes)
      | None -> None);
  let ids_c =
    Array.init n (fun c ->
        let name = Printf.sprintf "c%d" c in
        Hashtbl.replace chain_of_name name c;
        System.request_chain sys
          {
            Ct.spec_name = name;
            ingress_attachment = Printf.sprintf "site%d" (site_of (Model.chain_ingress m c));
            egress_attachment = Printf.sprintf "site%d" (site_of (Model.chain_egress m c));
            vnfs = Array.to_list (Model.chain_vnfs m c);
            traffic = Model.fwd_traffic m ~chain:c ~stage:0;
          })
  in
  let eng = System.engine sys in
  Engine.run eng;
  (* timed region: from here to the end of the run *)
  let t_timed = now () in
  let planner = Option.map (fun pp -> Place.create ~params:pp ()) p.Loop.placement in
  let t0 = Engine.now eng in
  let tlen = sc.Loop.sc_epoch_len in
  let epoch_of ts = max 0 (min (sc.Loop.sc_epochs - 1) (int_of_float ((ts -. t0) /. tlen))) in
  (* Every event opens an [engine.other] span; a callback this copy
     scheduled claims it under its own name, so what stays [engine.other]
     is exactly the events the copy did not schedule. *)
  let cur = ref (-1) in
  Engine.on_fire eng (fun ts ->
      k.events <- k.events + 1;
      if !cur >= 0 then Trace.leave tr !cur;
      cur := Trace.enter tr i_other ~step:(epoch_of ts));
  let callback f () =
    let i = !cur in
    cur := -1;
    Trace.rename tr i i_callback;
    f ();
    Trace.leave tr i
  in
  let root = Trace.enter tr i_run ~step:0 in
  let failed_now = ref [] in
  let exporters =
    List.init num_sites (fun s ->
        let node = Model.site_node m s in
        Telemetry.Exporter.start ~system:sys ~site:s ~period:tlen
          ~down_links:(fun () ->
            List.filter
              (fun l ->
                let lk = Topology.link (Model.topology m) l in
                lk.Topology.src = node || lk.Topology.dst = node)
              !failed_now)
          ())
  in
  let agg =
    Telemetry.Aggregator.create ~system:sys ~site:0 ~chains:(Array.to_list ids_c) ~num_sites
      ~staleness:p.Loop.staleness ()
  in
  let rng = Rng.split ~stream:1 (Rng.create p.Loop.seed) in
  let batch = ref [||] in
  let inject e =
    failed_now := failed_at sc e;
    (match planner with
    | Some _ ->
      Trace.span tr i_expire ~step:e (fun () ->
          let sh = System.shard sys in
          Sb_dataplane.Shard.set_clock sh e;
          if e >= 2 then ignore (Sb_dataplane.Shard.expire_flows sh ~idle_before:(e - 2)))
    | None -> ());
    for c = 0 to n - 1 do
      (* generating the chain's probe tuples first draws [rng] in the same
         order as interleaving them with the probes *)
      Trace.span tr i_gen ~step:e (fun () ->
          let units = sc.Loop.sc_demand ~epoch:e ~chain:c *. Model.fwd_traffic m ~chain:c ~stage:0 in
          let count =
            max 1 (int_of_float (Float.round (float_of_int p.Loop.pkts_per_unit *. units)))
          in
          batch := Array.init count (fun _ -> Packet.random_tuple rng));
      Trace.span tr i_probe ~step:e (fun () ->
          Array.iter (fun tp -> ignore (System.probe_chain sys ~chain:ids_c.(c) tp)) !batch);
      k.probes <- k.probes + Array.length !batch
    done
  in
  let factors_meas = Array.make n 1.0 in
  let rerouted_at = Array.make sc.Loop.sc_epochs 0 in
  let down_at = Array.make sc.Loop.sc_epochs 0 in
  let cur_r = ref r0 in
  let total_rerouted = ref 0 in
  let control e =
    if not (System.gsb_is_down sys) then begin
      let down =
        Trace.span tr i_agg ~step:e (fun () ->
            for c = 0 to n - 1 do
              match Telemetry.Aggregator.chain_packets agg ~epoch:e ~chain:ids_c.(c) with
              | Some pkts ->
                let base = float_of_int p.Loop.pkts_per_unit *. Model.fwd_traffic m ~chain:c ~stage:0 in
                if base > 0. then factors_meas.(c) <- float_of_int pkts /. base
              | None -> ()
            done;
            Telemetry.Aggregator.down_links agg ~epoch:e)
      in
      down_at.(e) <- List.length down;
      let measured =
        Trace.span tr i_derive ~step:e (fun () ->
            let base = match down with [] -> m | _ -> Model.with_failed_links m down in
            Model.with_chain_traffic_factors base (Array.copy factors_meas))
      in
      let measured =
        match planner with
        | None -> measured
        | Some pl ->
          let acts =
            Trace.span tr i_plan ~step:e (fun () ->
                Place.plan pl ~measured ~paths:(paths_of !cur_r n))
          in
          k.actions <- k.actions + List.length acts;
          Trace.span tr i_actuate ~step:e (fun () ->
              List.iter
                (function
                  | Place.Scale_out { vnf; site; capacity } ->
                    System.scale_out sys ~vnf ~site ~capacity:(p.Loop.vnf_headroom *. capacity)
                      ~instances:2
                  | Place.Scale_in { vnf; site } ->
                    System.drain_and_remove sys ~vnf ~site ~timeout:(4. *. tlen)
                      ~on_done:(fun ok ->
                        if ok then Place.note_drain_done pl ~vnf ~site
                        else Place.note_drain_aborted pl ~vnf ~site)
                      ())
                acts);
          Trace.span tr i_derive ~step:e (fun () ->
              match Place.extra pl with
              | [] -> measured
              | ex -> Model.with_extra_deployments measured ex)
      in
      let r', stats =
        Trace.span tr i_resolve ~step:e (fun () ->
            Dp.resolve ~util_weight:p.Loop.util_weight ~hysteresis:p.Loop.hysteresis
              ~churn_budget:p.Loop.churn_budget ~prev:!cur_r measured)
      in
      k.considered <- k.considered + stats.Dp.considered;
      k.over_threshold <- k.over_threshold + stats.Dp.over_threshold;
      cur_r := r';
      rerouted_at.(e) <- List.length stats.Dp.rerouted;
      k.resolved <- k.resolved + rerouted_at.(e);
      total_rerouted := !total_rerouted + rerouted_at.(e);
      Trace.span tr i_actuate ~step:e (fun () ->
          List.iter
            (fun c ->
              match routes_of r' c with
              | [] -> ()
              | routes -> System.update_routes sys ~chain:ids_c.(c) routes)
            stats.Dp.rerouted)
    end
  in
  let results = Array.make sc.Loop.sc_epochs None in
  let eval e =
    let tm =
      Trace.span tr i_derive ~step:e (fun () ->
          let tm = truth sc e in
          match planner with
          | None -> tm
          | Some pl -> (
            match Place.live pl with [] -> tm | ex -> Model.with_extra_deployments tm ex))
    in
    let installed =
      Array.init n (fun c ->
          List.filter_map
            (fun (r : Ct.route) ->
              if r.Ct.weight <= 0. then None
              else Some (Array.map (Model.site_node m) r.Ct.element_sites, r.Ct.weight))
            (System.chain_routes sys ~chain:ids_c.(c)))
    in
    let supported, tput, rtt = measure tr ~i_alpha ~i_e2e ~step:e tm installed in
    results.(e) <-
      Some
        {
          Loop.ep_epoch = e;
          ep_supported = supported;
          ep_throughput = tput;
          ep_mean_rtt = rtt;
          ep_rerouted = (if e = 0 then 0 else rerouted_at.(e - 1));
          ep_down_links = (if e = 0 then 0 else down_at.(e - 1));
          ep_reports = Telemetry.Aggregator.reports agg;
        }
  in
  for e = 0 to sc.Loop.sc_epochs - 1 do
    let te = t0 +. (float_of_int e *. tlen) in
    ignore (Engine.schedule_at eng ~time:(te +. (0.05 *. tlen)) (callback (fun () -> inject e)));
    ignore (Engine.schedule_at eng ~time:(te +. (0.95 *. tlen)) (callback (fun () -> eval e)));
    if e < sc.Loop.sc_epochs - 1 then
      ignore
        (Engine.schedule_at eng
           ~time:(te +. tlen +. p.Loop.control_lag)
           (callback (fun () -> control e)))
  done;
  ignore
    (Engine.schedule_at eng
       ~time:(t0 +. (float_of_int sc.Loop.sc_epochs *. tlen) +. (0.01 *. tlen))
       (callback (fun () -> List.iter Telemetry.Exporter.stop exporters)));
  let gc0 = Gc.quick_stat () in
  Engine.run eng;
  if !cur >= 0 then Trace.leave tr !cur;
  Trace.leave tr root;
  let gc1 = Gc.quick_stat () in
  let gc = (gc1.Gc.minor_words -. gc0.Gc.minor_words, gc1.Gc.major_collections - gc0.Gc.major_collections) in
  let timed_s = secs (now () - t_timed) in
  let result =
    {
      Loop.epochs = Array.to_list results |> List.filter_map (fun r -> r);
      total_rerouted = !total_rerouted;
      total_scale_actions =
        (match planner with Some pl -> Place.actions_emitted pl | None -> 0);
    }
  in
  (sys, { result; bus = Bus.stats (System.bus sys) }, k, timed_s, gc)

(* Per-layer counts of a traced run; the bus counters cover the whole run,
   establishment included. *)
let layers sys sc (k : counters) ~gc:(minor, major) =
  let st = Bus.stats (System.bus sys) in
  let cls prefix =
    List.fold_left
      (fun a (c, _, b) -> if String.starts_with ~prefix c then a + b else a)
      0 st.Bus.topic_bytes
  in
  let ctl = Telemetry.Control.snapshot sys in
  let f = float_of_int in
  [
    ("system.probe.pkts", f k.probes);
    ("engine.events", f k.events);
    ("place.actions", f k.actions);
    ("dp_routing.considered", f k.considered);
    ("dp_routing.over_threshold", f k.over_threshold);
    ("dp_routing.rerouted", f k.resolved);
    ("bus.published", f st.Bus.published);
    ("bus.wan_bytes", f st.Bus.wan_bytes);
    ("bus.telemetry.bytes", f (cls "/telemetry/"));
    ("bus.votes.bytes", f (cls "/gsb/votes/"));
    ("bus.ctl.bytes", f (cls "/ctl/"));
    ("bus.route.bytes", f (cls "/chain/"));
    ("plane.mutations", f ctl.Telemetry.Control.dp_mutations);
    ("compile.nodes", f (System.compile_stats sys).Sb_ctrl.Compile.nodes);
    ("gc.minor_words_per_epoch", minor /. f sc.Loop.sc_epochs);
    ("gc.major_collections", f major);
  ]

let traced_pass tr mk params =
  let sc = mk () in
  let sys, o, k, timed_s, gc = traced_closed tr sc params in
  {
    Report.empty_pass with
    body_s = timed_s;
    ops = sc.Loop.sc_epochs;
    failed = sc.Loop.sc_epochs - List.length o.result.Loop.epochs;
    exact = exact_of sc ~offered:(offered sc) o;
    layers = layers sys sc k ~gc;
  }

(* Untraced passes run [Loop.run] itself; traced ones run the copy, whose
   exact outputs (the outcome digest among them) must equal [Loop.run]'s. *)
let pass ?tr mk params =
  match tr with None -> untraced_pass mk params | Some tr -> traced_pass tr mk params

let check_copy mk params =
  (untraced_pass mk params).Report.exact = (traced_pass (Trace.create ()) mk params).Report.exact
