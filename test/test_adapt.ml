module Engine = Sb_sim.Engine
module Model = Sb_core.Model
module Routing = Sb_core.Routing
module Dp = Sb_core.Dp_routing
module Workload = Sb_core.Workload
module Topology = Sb_net.Topology
module System = Sb_ctrl.System
module Ct = Sb_ctrl.Types
module Packet = Sb_dataplane.Packet
module Telemetry = Sb_adapt.Telemetry
module Loop = Sb_adapt.Loop
module Place = Sb_adapt.Place
module Scenario = Sb_adapt.Scenario

let small_model ?(seed = 11) ?(chains = 10) () =
  let rng = Sb_util.Rng.create seed in
  let topo = Topology.backbone ~rng ~num_core:4 ~pops_per_core:2 () in
  Workload.synthesize ~rng topo
    { Workload.default with Workload.num_chains = chains; coverage = 0.5 }

(* --------------------------- Dp_routing.resolve --------------------------- *)

let test_resolve_noop_under_infinite_hysteresis () =
  let m = small_model () in
  let prev = Dp.solve m in
  let r, stats = Dp.resolve ~hysteresis:infinity ~prev m in
  Alcotest.(check (list int)) "nothing re-routed" [] stats.Dp.rerouted;
  Alcotest.(check int) "every routed chain scanned" (Model.num_chains m)
    stats.Dp.considered;
  for c = 0 to Model.num_chains m - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "chain %d paths preserved" c)
      true
      (Routing.decompose_paths r ~chain:c = Routing.decompose_paths prev ~chain:c)
  done;
  Alcotest.(check (float 1e-9)) "identical alpha" (Routing.max_alpha prev)
    (Routing.max_alpha r)

let test_resolve_respects_churn_budget () =
  let m = small_model () in
  let prev = Dp.solve m in
  (* Invert the traffic mix so many chains want to move, then cap churn. *)
  let n = Model.num_chains m in
  let m' =
    Model.with_chain_traffic_factors m
      (Array.init n (fun c -> if c mod 2 = 0 then 3.0 else 0.25))
  in
  let _, unbounded = Dp.resolve ~hysteresis:0.0 ~prev m' in
  let _, bounded = Dp.resolve ~hysteresis:0.0 ~churn_budget:2 ~prev m' in
  Alcotest.(check bool) "shift creates pressure" true
    (unbounded.Dp.over_threshold > 2);
  Alcotest.(check int) "budget binds" 2 (List.length bounded.Dp.rerouted);
  Alcotest.(check int) "threshold count unchanged by budget"
    unbounded.Dp.over_threshold bounded.Dp.over_threshold;
  (* The budget takes the highest-gain chains: the bounded pick is a
     prefix of the unbounded gain ranking. *)
  List.iteri
    (fun i c ->
      Alcotest.(check int)
        (Printf.sprintf "rank %d matches" i)
        (List.nth unbounded.Dp.rerouted i)
        c)
    bounded.Dp.rerouted

let test_resolve_deterministic () =
  let m = small_model () in
  let prev = Dp.solve m in
  let m' =
    Model.with_chain_traffic_factors m
      (Array.init (Model.num_chains m) (fun c -> 1. +. (0.3 *. float_of_int (c mod 3))))
  in
  let r1, s1 = Dp.resolve ~prev m' in
  let r2, s2 = Dp.resolve ~prev m' in
  Alcotest.(check (list int)) "same chains moved" s1.Dp.rerouted s2.Dp.rerouted;
  Alcotest.(check (float 0.)) "same alpha" (Routing.max_alpha r1) (Routing.max_alpha r2)

let hottest_duplex m routing =
  let ls = Routing.load_state routing in
  let topo = Model.topology m in
  let links = Topology.links topo in
  let best = ref (-1., []) in
  Array.iter
    (fun (l : Topology.link) ->
      if l.Topology.src < l.Topology.dst then begin
        let ids =
          Array.to_list links
          |> List.filter_map (fun (k : Topology.link) ->
                 if
                   (k.Topology.src = l.Topology.src && k.Topology.dst = l.Topology.dst)
                   || (k.Topology.src = l.Topology.dst && k.Topology.dst = l.Topology.src)
                 then Some k.Topology.id
                 else None)
        in
        let load =
          List.fold_left
            (fun acc i -> acc +. Sb_core.Load_state.link_sb_load ls i)
            0. ids
        in
        if load > fst !best then best := (load, ids)
      end)
    links;
  snd !best

(* Every stage's flows in insertion order, fractions as bits. *)
let routing_bits m r =
  List.init (Model.num_chains m) (fun chain ->
      List.init (Model.num_stages m chain) (fun stage ->
          let acc = ref [] in
          Routing.iter_stage r ~chain ~stage (fun src dst frac ->
              acc := (src, dst, Int64.bits_of_float frac) :: !acc);
          List.rev !acc))

(* qcheck: [resolve]'s delay-lower-bound prune is exact. Its scan lifts
   every chain out of the load, which leaves ~1e-16 negative residues on
   links, and its re-route runs on those states; the pruned sweep must
   still give the full sweep's routing bit for bit, and the same stats.
   Random backbones, demand shifts and link failures, at the default
   hysteresis and at 0 (every chain with any gain moves). *)
let prop_resolve_prune_exact =
  QCheck.Test.make ~name:"pruned resolve = unpruned resolve, bit for bit" ~count:40
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Sb_util.Rng.create seed in
      let m = small_model ~seed ~chains:(6 + Sb_util.Rng.int rng 10) () in
      let prev = Dp.solve m in
      let m' =
        Model.with_chain_traffic_factors m
          (Array.init (Model.num_chains m) (fun _ -> 0.25 +. Sb_util.Rng.float rng 2.75))
      in
      let m' = if Sb_util.Rng.bool rng then Model.with_failed_links m' (hottest_duplex m prev) else m' in
      List.for_all
        (fun (util_weight, hysteresis) ->
          let r1, s1 = Dp.resolve ~util_weight ~hysteresis ~prev m' in
          let r2, s2 = Dp.resolve_unpruned ~util_weight ~hysteresis ~prev m' in
          s1 = s2 && routing_bits m' r1 = routing_bits m' r2)
        [ (Dp.default_util_weight, 0.1); (Dp.default_util_weight, 0.); (1., 0.) ])

let test_resolve_reacts_to_link_failure () =
  let m = small_model () in
  let prev = Dp.solve m in
  let failed = hottest_duplex m prev in
  Alcotest.(check bool) "some loaded duplex exists" true (failed <> []);
  let m' = Model.with_failed_links m failed in
  let r, stats = Dp.resolve ~hysteresis:0.05 ~prev m' in
  Alcotest.(check bool) "failure triggers re-routes" true (stats.Dp.rerouted <> []);
  (match Routing.validate r with
  | Ok () -> ()
  | Error e -> Alcotest.failf "resolved routing invalid: %s" e);
  (* The re-solve must do at least as well as leaving the old routes in
     place on the degraded topology. *)
  let stale = Routing.create m' in
  for c = 0 to Model.num_chains m - 1 do
    List.iter
      (fun (nodes, frac) -> Routing.add_path stale ~chain:c ~nodes ~frac)
      (Routing.decompose_paths prev ~chain:c)
  done;
  Alcotest.(check bool) "alpha not worse than stale routes" true
    (Routing.max_alpha r >= Routing.max_alpha stale -. 1e-9)

(* ------------------------- telemetry round trip ------------------------- *)

(* Two sites 10 ms apart; one single-VNF chain ingress at 0, VNF and egress
   at 1. Epoch length 1 s. *)
let make_system () =
  let sys =
    System.create ~seed:5 ~num_sites:2
      ~delay:(fun a b -> if a = b then 0. else 0.010)
      ~gsb_site:0 ()
  in
  System.deploy_vnf sys ~vnf:0 ~site:1 ~capacity:100. ~instances:1;
  System.register_edge sys ~site:0 ~attachment:"in";
  System.register_edge sys ~site:1 ~attachment:"out";
  System.set_route_policy sys (fun _ ~exclude:_ ->
      Some [ { Ct.element_sites = [| 0; 1; 1 |]; weight = 1.0 } ]);
  let chain =
    System.request_chain sys
      {
        Ct.spec_name = "t";
        ingress_attachment = "in";
        egress_attachment = "out";
        vnfs = [ 0 ];
        traffic = 5.;
      }
  in
  Engine.run (System.engine sys);
  (sys, chain)

let test_telemetry_roundtrip_and_staleness () =
  let sys, chain = make_system () in
  let eng = System.engine sys in
  let exporters =
    List.map
      (fun site -> Telemetry.Exporter.start ~system:sys ~site ~period:1.0 ())
      [ 0; 1 ]
  in
  let agg =
    Telemetry.Aggregator.create ~system:sys ~site:0 ~chains:[ chain ] ~num_sites:2
      ~staleness:2 ()
  in
  let t0 = Engine.now eng in
  let rng = Sb_util.Rng.create 9 in
  let inject count =
    for _ = 1 to count do
      ignore (System.probe_chain sys ~chain (Packet.random_tuple rng))
    done
  in
  ignore (Engine.schedule_at eng ~time:(t0 +. 0.2) (fun () -> inject 7));
  ignore (Engine.schedule_at eng ~time:(t0 +. 1.2) (fun () -> inject 11));
  (* The aggregator retains only the freshest sample per (chain, site), so
     each epoch must be read at its control tick — shortly after the
     epoch's exports land — exactly as the control loop does. *)
  let q = Array.make 3 None in
  let stages1 = ref [||] in
  for e = 0 to 2 do
    ignore
      (Engine.schedule_at eng
         ~time:(t0 +. float_of_int (e + 1) +. 0.3)
         (fun () ->
           q.(e) <- Telemetry.Aggregator.chain_packets agg ~epoch:e ~chain;
           if e = 1 then stages1 := Telemetry.Aggregator.chain_stages agg ~epoch:1 ~chain))
  done;
  ignore
    (Engine.schedule_at eng ~time:(t0 +. 3.5) (fun () ->
         List.iter Telemetry.Exporter.stop exporters));
  Engine.run eng;
  (* Windows 0/1/2 were exported (the stop lands before the epoch-3 tick). *)
  Alcotest.(check int) "last epoch seen" 2 (Telemetry.Aggregator.last_epoch agg);
  Alcotest.(check bool) "reports flowed" true (Telemetry.Aggregator.reports agg > 0);
  Alcotest.(check (option int)) "epoch 0 packets" (Some 7) q.(0);
  Alcotest.(check (option int)) "epoch 1 packets (delta, not cumulative)" (Some 11) q.(1);
  Alcotest.(check (option int)) "quiet window still reports" (Some 0) q.(2);
  (* Per-stage view: a 1-VNF chain has stages 0 (into the VNF) and 1 (to
     the egress), both carrying every probe of the window. *)
  Alcotest.(check int) "two stages" 2 (Array.length !stages1);
  Array.iteri
    (fun i (pkts, _) -> Alcotest.(check int) (Printf.sprintf "stage %d" i) 11 pkts)
    !stages1;
  (* Staleness: with staleness 2, the epoch-2 samples serve queries up to
     epoch 3 and age out at epoch 4. *)
  Alcotest.(check (option int)) "held one epoch past last report" (Some 0)
    (Telemetry.Aggregator.chain_packets agg ~epoch:3 ~chain);
  Alcotest.(check (option int)) "aged out after staleness window" None
    (Telemetry.Aggregator.chain_packets agg ~epoch:4 ~chain)

(* --------------------- Site_telemetry batch semantics ------------------- *)

(* The aggregator only needs a system for its bus subscriptions; the
   batches below are handed to [ingest] directly. *)
let agg_system =
  lazy (System.create ~seed:5 ~num_sites:4 ~delay:(fun _ _ -> 0.01) ~gsb_site:0 ())

let watched = [ 0; 1; 2; 3; 4 ]

let batch_gen =
  let open QCheck.Gen in
  let counts =
    int_range 0 3 >>= fun n ->
    pair (array_size (return n) (int_bound 300)) (array_size (return n) (int_bound 90_000))
  in
  (* Chain 5 is not watched: its entries must be ignored. *)
  let entries =
    flatten_l
      (List.init 6 (fun chain ->
           opt (counts >|= fun (ct_pkts, ct_bytes) -> { Ct.ct_chain = chain; ct_pkts; ct_bytes })))
    >|= fun es -> Array.of_list (List.filter_map Fun.id es)
  in
  map
    (fun ((site, epoch), (down_links, (table, chains))) ->
      Ct.Site_telemetry { site; epoch; down_links; table; chains })
    (pair
       (pair (int_bound 3) (int_bound 6))
       (pair (small_list (int_bound 9))
          (pair (triple (int_bound 50) (int_bound 64) (int_bound 8)) entries)))

let print_batch = function
  | Ct.Site_telemetry { site; epoch; down_links; table = c, k, m; chains } ->
    Printf.sprintf "site%d epoch%d down[%s] table(%d,%d,%d) {%s}" site epoch
      (String.concat ";" (List.map string_of_int down_links))
      c k m
      (String.concat " "
         (Array.to_list
            (Array.map
               (fun (e : Ct.chain_telemetry) ->
                 Printf.sprintf "c%d:[%s|%s]" e.Ct.ct_chain
                   (String.concat ";" (Array.to_list (Array.map string_of_int e.Ct.ct_pkts)))
                   (String.concat ";" (Array.to_list (Array.map string_of_int e.Ct.ct_bytes))))
               chains)))
  | m -> Format.asprintf "%a" Ct.pp_msg m

(* Everything the aggregator answers, at every epoch the batches touch. *)
let aggregator_view agg =
  ( Telemetry.Aggregator.reports agg,
    Telemetry.Aggregator.last_epoch agg,
    List.init 9 (fun epoch ->
        ( List.map
            (fun chain ->
              ( Telemetry.Aggregator.chain_packets agg ~epoch ~chain,
                Telemetry.Aggregator.chain_stages agg ~epoch ~chain ))
            (watched @ [ 5 ]),
          Telemetry.Aggregator.table_occupancy agg ~epoch,
          Telemetry.Aggregator.down_links agg ~epoch )) )

let batch_equals_its_entries =
  QCheck.Test.make ~name:"a Site_telemetry batch = its entries one by one" ~count:300
    (QCheck.make
       ~print:(fun bs -> String.concat "\n" (List.map print_batch bs))
       QCheck.Gen.(list_size (int_range 1 12) batch_gen))
    (fun batches ->
      let system = Lazy.force agg_system in
      let create () =
        Telemetry.Aggregator.create ~system ~site:0 ~chains:watched ~num_sites:4
          ~staleness:2 ()
      in
      let whole = create () and split = create () in
      List.iter
        (fun b ->
          Telemetry.Aggregator.ingest whole b;
          match b with
          | Ct.Site_telemetry r ->
            Array.iter
              (fun e ->
                Telemetry.Aggregator.ingest split (Ct.Site_telemetry { r with chains = [| e |] }))
              r.chains
          | _ -> ())
        batches;
      aggregator_view whole = aggregator_view split)

(* Site 1's batches stop after epoch 1 (lost on the wire): with staleness
   2 all of its chains drop out at epoch 3 together, while sites 0 and 2
   keep every chain fresh. *)
let test_lost_batch_ages_out_one_site () =
  let system = Lazy.force agg_system in
  let chains = [ 0; 1; 2 ] in
  let agg =
    Telemetry.Aggregator.create ~system ~site:0 ~chains ~num_sites:3 ~staleness:2 ()
  in
  let pkts site chain = (100 * site) + chain + 1 in
  let batch site epoch =
    Ct.Site_telemetry
      {
        site;
        epoch;
        down_links = [ 10 + site ];
        table = (site + 1, 64, 1);
        chains =
          Array.of_list
            (List.map
               (fun chain ->
                 { Ct.ct_chain = chain; ct_pkts = [| pkts site chain; 0 |]; ct_bytes = [| 0; 0 |] })
               chains);
      }
  in
  for epoch = 0 to 5 do
    List.iter
      (fun site -> if site <> 1 || epoch <= 1 then Telemetry.Aggregator.ingest agg (batch site epoch))
      [ 0; 1; 2 ];
    let sites = if epoch <= 2 then [ 0; 1; 2 ] else [ 0; 2 ] in
    List.iter
      (fun chain ->
        Alcotest.(check (option int))
          (Printf.sprintf "epoch %d chain %d packets" epoch chain)
          (Some (List.fold_left (fun a s -> a + pkts s chain) 0 sites))
          (Telemetry.Aggregator.chain_packets agg ~epoch ~chain))
      chains;
    Alcotest.(check (list int))
      (Printf.sprintf "epoch %d down links" epoch)
      (List.map (fun s -> 10 + s) sites)
      (Telemetry.Aggregator.down_links agg ~epoch);
    Alcotest.(check (triple int int int))
      (Printf.sprintf "epoch %d table" epoch)
      (List.fold_left (fun a s -> a + s + 1) 0 sites, 64 * List.length sites, 1)
      (Telemetry.Aggregator.table_occupancy agg ~epoch)
  done;
  Alcotest.(check int) "every chain entry counted" ((3 * 6 * 2) + (3 * 2))
    (Telemetry.Aggregator.reports agg)

let test_update_routes_rollout () =
  let sys, chain = make_system () in
  let eng = System.engine sys in
  System.update_routes sys ~chain [ { Ct.element_sites = [| 0; 1; 1 |]; weight = 0.5 } ];
  Engine.run eng;
  match
    List.filter (fun (r : Ct.route) -> r.Ct.weight > 0.) (System.chain_routes sys ~chain)
  with
  | [ r ] ->
    Alcotest.(check (float 1e-9)) "new weight installed" 0.5 r.Ct.weight;
    Alcotest.(check (array int)) "sites preserved" [| 0; 1; 1 |] r.Ct.element_sites
  | rs -> Alcotest.failf "expected 1 installed route, got %d" (List.length rs)

(* ----------------------------- closed loop ----------------------------- *)

let smoke_scenario () =
  let m = small_model ~seed:3 ~chains:8 () in
  {
    Loop.sc_model = m;
    sc_epochs = 4;
    sc_epoch_len = 1.0;
    sc_demand = (fun ~epoch:_ ~chain:_ -> 1.0);
    sc_failures = [];
  }

let test_closed_loop_smoke_deterministic () =
  let sc = smoke_scenario () in
  let params = { Loop.default_params with Loop.churn_budget = 3 } in
  let r1 = Loop.run ~params sc Loop.Closed_loop in
  let r2 = Loop.run ~params sc Loop.Closed_loop in
  Alcotest.(check int) "all epochs evaluated" 4 (List.length r1.Loop.epochs);
  List.iter2
    (fun (a : Loop.epoch_report) (b : Loop.epoch_report) ->
      Alcotest.(check (float 0.)) "supported deterministic" a.Loop.ep_supported
        b.Loop.ep_supported;
      Alcotest.(check int) "churn deterministic" a.Loop.ep_rerouted b.Loop.ep_rerouted;
      Alcotest.(check bool) "traffic flows" true (a.Loop.ep_supported > 0.);
      Alcotest.(check bool) "churn within budget" true
        (a.Loop.ep_rerouted <= params.Loop.churn_budget))
    r1.Loop.epochs r2.Loop.epochs

let test_closed_loop_tracks_static_on_steady_demand () =
  (* Constant demand and no failures: the closed loop has nothing to
     exploit, so it must at least match the static arm (it may micro-tune
     the greedy initial solution but never regress it). *)
  let sc = smoke_scenario () in
  let closed = Loop.run sc Loop.Closed_loop in
  let static = Loop.run sc Loop.Static in
  List.iter2
    (fun (c : Loop.epoch_report) (s : Loop.epoch_report) ->
      Alcotest.(check bool)
        (Printf.sprintf "epoch %d closed >= 0.99 static" c.Loop.ep_epoch)
        true
        (c.Loop.ep_supported >= (0.99 *. s.Loop.ep_supported) -. 1e-9))
    closed.Loop.epochs static.Loop.epochs

(* ----------------------------- anycast arm ----------------------------- *)

module Anycast = Sb_adapt.Anycast
module Greedy = Sb_core.Greedy
module Schedule = Sb_chaos.Schedule
module Inject = Sb_chaos.Inject

(* Fresh epoch-0 views for every site: each peer advertised every VNF it
   hosts at [load vnf site] this epoch, no down links — the perfect-flood
   fixture the equivalence property needs. *)
let fresh_views m ~load =
  let n = Model.num_sites m in
  let loads_of = Array.make n [] in
  for f = 0 to Model.num_vnfs m - 1 do
    List.iter
      (fun (s, _cap) -> loads_of.(s) <- (f, load f s) :: loads_of.(s))
      (Model.vnf_sites m f)
  done;
  Array.init n (fun site ->
      let v = Anycast.create_view ~site ~num_sites:n ~staleness:3 in
      for peer = 0 to n - 1 do
        Anycast.observe v ~site:peer ~epoch:0 ~loads:loads_of.(peer) ~fwd_weights:[]
          ~down:[]
      done;
      Anycast.set_epoch v 0;
      v)

let model_arb =
  QCheck.(pair (int_range 1 10_000) (int_range 4 12))
  |> QCheck.map ~rev:(fun _ -> (11, 10)) (fun (seed, chains) ->
         (seed, chains, small_model ~seed ~chains ()))
  |> QCheck.set_print (fun (seed, chains, _) ->
         Printf.sprintf "seed=%d chains=%d" seed chains)

(* Whatever the flooded loads say — under-loaded, saturated, mixed — the
   emergent per-hop routing must stay well-formed: every chain fully
   routed, flow conserved, stage endpoints legal, elements only on
   deployment nodes (i.e. chain-order-conformant and loop-free by
   construction of the stage walk). *)
let anycast_routing_valid =
  QCheck.Test.make ~name:"anycast route from flooded views is a valid routing"
    ~count:25 model_arb (fun (seed, _chains, m) ->
      (* Deterministic mixed loads: some sites idle, some past capacity. *)
      let load f s =
        let cap = Model.vnf_site_capacity m ~vnf:f ~site:s in
        cap *. (float_of_int ((seed + (31 * f) + (17 * s)) mod 5) /. 3.)
      in
      let views = fresh_views m ~load in
      let r = Anycast.route m (fun s -> views.(s)) in
      (match Routing.validate r with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_reportf "invalid routing: %s" e);
      for c = 0 to Model.num_chains m - 1 do
        let paths = Routing.decompose_paths r ~chain:c in
        let total = List.fold_left (fun a (_, f) -> a +. f) 0. paths in
        if Float.abs (total -. 1.) > 1e-9 then
          QCheck.Test.fail_reportf "chain %d routes %.6f of its demand" c total;
        List.iter
          (fun (nodes, _) ->
            if Array.length nodes <> Model.chain_length m c + 2 then
              QCheck.Test.fail_reportf "chain %d: path skips or repeats a stage" c)
          paths
      done;
      true)

(* With perfect information — every site freshly advertising zero load —
   the decentralized walk must coincide with the centralized ANYCAST
   baseline: nearest admissible instance at every stage. *)
let anycast_matches_centralized =
  QCheck.Test.make
    ~name:"fresh unloaded views: anycast arm = centralized Greedy.anycast" ~count:25
    model_arb (fun (_seed, _chains, m) ->
      let views = fresh_views m ~load:(fun _ _ -> 0.) in
      let dist = Anycast.route m (fun s -> views.(s)) in
      let central = Greedy.anycast m in
      for c = 0 to Model.num_chains m - 1 do
        if
          Routing.decompose_paths dist ~chain:c
          <> Routing.decompose_paths central ~chain:c
        then QCheck.Test.fail_reportf "chain %d diverges from the baseline" c
      done;
      true)

let test_anycast_smoke_deterministic () =
  let sc = smoke_scenario () in
  let r1 = Loop.run sc Loop.Anycast_dist in
  let r2 = Loop.run sc Loop.Anycast_dist in
  Alcotest.(check int) "all epochs evaluated" 4 (List.length r1.Loop.epochs);
  Alcotest.(check int) "same total churn" r1.Loop.total_rerouted r2.Loop.total_rerouted;
  List.iter2
    (fun (a : Loop.epoch_report) (b : Loop.epoch_report) ->
      Alcotest.(check (float 0.)) "supported bit-identical" a.Loop.ep_supported
        b.Loop.ep_supported;
      Alcotest.(check (float 0.)) "rtt bit-identical" a.Loop.ep_mean_rtt
        b.Loop.ep_mean_rtt;
      Alcotest.(check int) "re-points identical" a.Loop.ep_rerouted b.Loop.ep_rerouted;
      Alcotest.(check int) "advert count identical" a.Loop.ep_reports b.Loop.ep_reports;
      Alcotest.(check bool) "traffic flows" true (a.Loop.ep_supported > 0.))
    r1.Loop.epochs r2.Loop.epochs;
  (* Adverts flood from the first advertise tick on. *)
  match List.rev r1.Loop.epochs with
  | last :: _ -> Alcotest.(check bool) "adverts flowed" true (last.Loop.ep_reports > 0)
  | [] -> Alcotest.fail "no epochs"

(* The offline arms never assemble a control plane, so handing them a
   chaos hook must be an error, not a silent no-op. *)
let test_on_system_rejected_on_offline_arms () =
  let sc = smoke_scenario () in
  List.iter
    (fun arm ->
      match Loop.run ~on_system:(fun _ -> ()) sc arm with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%s arm accepted ~on_system" (Loop.arm_name arm))
    [ Loop.Static; Loop.Oracle ]

(* [Loop.run] validates its inputs once, up front: each value below used to
   hang the epoch grid (NaN or infinite epoch length), collapse it (zero),
   crash inside the engine (negative), or silently disable re-routing or
   placement. Each must raise before any arm is built. *)
let validation_cases =
  let d = Loop.default_params in
  let placed = { d with Loop.placement = Some Place.default_params } in
  let epoch_len = "sc_epoch_len must be finite and positive (got " in
  let placement arm =
    Printf.sprintf
      "params.placement is only honoured by the closed-loop arm; the %s arm would ignore it"
      arm
  in
  List.map
    (fun (name, params, arm, len, msg) ->
      Alcotest.test_case name `Quick (fun () ->
          let sc = { (smoke_scenario ()) with Loop.sc_epoch_len = len } in
          Alcotest.check_raises name (Invalid_argument ("Loop.run: " ^ msg)) (fun () ->
              ignore (Loop.run ~params sc arm))))
    [
      ("NaN epoch length", d, Loop.Closed_loop, Float.nan, epoch_len ^ "nan)");
      ("infinite epoch length", d, Loop.Closed_loop, Float.infinity, epoch_len ^ "inf)");
      ("zero epoch length", d, Loop.Closed_loop, 0., epoch_len ^ "0)");
      ("negative epoch length", d, Loop.Closed_loop, -1., epoch_len ^ "-1)");
      ( "negative churn budget", { d with Loop.churn_budget = -1 }, Loop.Closed_loop, 1.,
        "churn_budget must be non-negative (got -1)" );
      ( "NaN hysteresis", { d with Loop.hysteresis = Float.nan }, Loop.Closed_loop, 1.,
        "hysteresis must be a non-negative number (got nan)" );
      ( "negative hysteresis", { d with Loop.hysteresis = -0.1 }, Loop.Closed_loop, 1.,
        "hysteresis must be a non-negative number (got -0.1)" );
      ("placement on static", placed, Loop.Static, 1., placement "static");
      ("placement on oracle", placed, Loop.Oracle, 1., placement "oracle");
      ("placement on anycast", placed, Loop.Anycast_dist, 1., placement "anycast");
    ]

(* Fault-injection path through the closed loop: a GSB outage covering the
   whole run means no control tick ever fires — the loop is frozen at its
   initial solve and scores exactly like the static arm, even as demand
   drifts under it. *)
let test_closed_loop_frozen_under_full_gsb_outage () =
  let m = small_model ~seed:3 ~chains:8 () in
  let sc =
    {
      Loop.sc_model = m;
      sc_epochs = 4;
      sc_epoch_len = 1.0;
      sc_demand =
        (fun ~epoch ~chain -> 1.0 +. (0.2 *. float_of_int ((epoch + chain) mod 3)));
      sc_failures = [];
    }
  in
  (* Horizon past the last control tick (epoch 2's, at 3.0 + control_lag). *)
  let sched =
    Schedule.gsb_outage ~seed:1 ~num_sites:(Model.num_sites m) ~horizon:6. ~start:0.
      ~fraction:1.
  in
  let rng = Sb_util.Rng.create 5 in
  let frozen =
    Loop.run ~on_system:(fun sys -> Inject.arm ~sys ~rng sched) sc Loop.Closed_loop
  in
  let static = Loop.run sc Loop.Static in
  Alcotest.(check int) "no control tick fires" 0 frozen.Loop.total_rerouted;
  List.iter2
    (fun (f : Loop.epoch_report) (s : Loop.epoch_report) ->
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "epoch %d frozen = static" f.Loop.ep_epoch)
        s.Loop.ep_supported f.Loop.ep_supported)
    frozen.Loop.epochs static.Loop.epochs

(* ------------- elastic placement: acceptance (ISSUE 10) -------------- *)

(* The flash-crowd sweep at CI scale (12 ticks so the planner's observe
   window fits inside the flash window; ~0.4 s). Acceptance: where the
   route-only loop saturates, the placement-armed loop recovers at least
   90% of what perfect advance provisioning (the oracle arm) achieves —
   measured 104.6% over the flash window and 100.6% over the whole run,
   since the planner may open several sites per VNF where the oracle
   extras are capped at one — while route-only is left well behind
   (measured 65.0% of oracle over the flash), and the deployment churn
   stays within the planner's budget. *)
let placement_cfg = { Scenario.smoke_config with Scenario.ticks = 12 }

let placement_arm name points =
  match List.find_opt (fun p -> p.Scenario.pl_arm = name) points with
  | Some p -> p
  | None -> Alcotest.failf "sweep missing arm %s" name

let test_placement_recovers_oracle_provisioning () =
  let points = Scenario.placement_sweep placement_cfg in
  let route_only = placement_arm "route-only" points in
  let placed = placement_arm "placement" points in
  let oracle = placement_arm "oracle" points in
  (* The crowd actually saturates the sparse footprint: route-only loses
     at least a quarter of the oracle's flash-window demand. *)
  Alcotest.(check bool) "route-only saturates during the flash" true
    (route_only.Scenario.pl_flash <= 0.75 *. oracle.Scenario.pl_flash);
  (* Elastic placement recovers >= 90% of perfect provisioning. *)
  Alcotest.(check bool) "placement >= 0.9 oracle (flash window)" true
    (placed.Scenario.pl_flash >= 0.9 *. oracle.Scenario.pl_flash);
  Alcotest.(check bool) "placement >= 0.9 oracle (whole run)" true
    (placed.Scenario.pl_mean >= 0.9 *. oracle.Scenario.pl_mean);
  (* The planner acts, and within its churn budget. *)
  let budget = 2 * Place.default_params.Place.max_extra in
  Alcotest.(check bool) "planner emitted actions" true
    (placed.Scenario.pl_scale_actions > 0);
  Alcotest.(check bool) "churn within budget" true
    (placed.Scenario.pl_scale_actions <= budget);
  Alcotest.(check int) "route-only never scales" 0
    route_only.Scenario.pl_scale_actions;
  Alcotest.(check int) "oracle never scales" 0 oracle.Scenario.pl_scale_actions

let test_placement_sweep_deterministic () =
  let show points =
    String.concat "\n"
      (List.map
         (fun p -> Format.asprintf "%a" Scenario.pp_placement_point p)
         points)
  in
  Alcotest.(check string) "two runs bit-identical"
    (show (Scenario.placement_sweep placement_cfg))
    (show (Scenario.placement_sweep placement_cfg))

(* ------------------------------- long run ------------------------------- *)

(* What a live arm's system holds at the end of a run, once the engine has
   quiesced: bus subscription topics, retained topics, per-transaction
   control state (the coordinator's open transactions and un-acked
   decisions, the VNF controllers' vote memory and reservations) and live
   flow-table entries over every site. *)
type held = { subscribed : int; retained : int; txn_state : int; flows : int }

let long_run_held arm ~epochs =
  let m = small_model ~seed:3 ~chains:8 () in
  let sc =
    {
      Loop.sc_model = m;
      sc_epochs = epochs;
      sc_epoch_len = 1.0;
      sc_demand = Loop.diurnal_demand ~period:10 ~seed:5 (Model.num_chains m);
      sc_failures = [];
    }
  in
  let sys = ref None in
  let r = Loop.run ~on_system:(fun s -> sys := Some s) sc arm in
  let sys = Option.get !sys in
  let bus = System.bus sys in
  let flows = ref 0 in
  for site = 0 to Model.num_sites m - 1 do
    let count, _, _ = System.site_flow_table_stats sys ~site in
    flows := !flows + count
  done;
  ( sc,
    r,
    {
      subscribed = Sb_msgbus.Bus.subscribed_topics bus;
      retained = Sb_msgbus.Bus.retained_topics bus;
      txn_state = System.txns_in_flight sys + System.participant_txn_state sys;
      flows = !flows;
    } )

(* A live arm's state is bounded by its live work, not by how long it has
   run or how many transactions it has committed. Bus topics are bounded
   by chains x sites: per chain its route and edge-forwarder topics and
   an instances and a forwarders topic per (VNF of the chain, site), plus
   one request, reply and broadcast topic, a topic per VNF controller and
   the edge, and a telemetry or advert topic per site. Transaction state
   is zero once the engine has quiesced. Flow entries are bounded by the
   probes of the last three epochs (connections idle for two epochs age
   out), each connection holding at most a sender and a receiver entry
   per stage. *)
let test_long_run_state_bounded arm () =
  let check_at epochs =
    let sc, r, h = long_run_held arm ~epochs in
    let m = sc.Loop.sc_model in
    let n = Model.num_chains m and sites = Model.num_sites m in
    let topics = ref (4 + Model.num_vnfs m + (2 * sites)) and max_stages = ref 0 in
    for c = 0 to n - 1 do
      topics := !topics + 2 + (2 * Model.chain_length m c * sites);
      max_stages := max !max_stages (Model.chain_length m c + 1)
    done;
    let per_unit = float_of_int Loop.default_params.Loop.pkts_per_unit in
    let probes = ref 0 in
    for e = 0 to epochs - 1 do
      let p = ref 0 in
      for c = 0 to n - 1 do
        let units =
          sc.Loop.sc_demand ~epoch:e ~chain:c *. Model.fwd_traffic m ~chain:c ~stage:0
        in
        p := !p + max 1 (int_of_float (Float.round (per_unit *. units)))
      done;
      probes := max !probes !p
    done;
    let at what = Printf.sprintf "%s after %d epochs" what epochs in
    let within what bound v =
      if v > bound then Alcotest.failf "%s: %d > bound %d" (at what) v bound
    in
    Alcotest.(check bool) (at "routes moved") true (r.Loop.total_rerouted > 0);
    within "subscription topics" !topics h.subscribed;
    within "retained topics" !topics h.retained;
    Alcotest.(check int) (at "transaction state") 0 h.txn_state;
    within "flow entries" (3 * !probes * 2 * !max_stages) h.flows;
    h
  in
  let at50 = check_at 50 and at200 = check_at 200 in
  (* Epochs 50 and 200 sit at the same demand phase and the flow window
     has the same length at both, so the entries stay put instead of
     growing fourfold with the run. *)
  if 10 * at200.flows > 11 * at50.flows then
    Alcotest.failf "flow entries grew from %d to %d between epochs 50 and 200" at50.flows
      at200.flows

let () =
  Alcotest.run "sb_adapt"
    [
      ( "resolve",
        [
          Alcotest.test_case "noop under infinite hysteresis" `Quick
            test_resolve_noop_under_infinite_hysteresis;
          Alcotest.test_case "churn budget respected" `Quick
            test_resolve_respects_churn_budget;
          Alcotest.test_case "deterministic" `Quick test_resolve_deterministic;
          Alcotest.test_case "reacts to link failure" `Quick
            test_resolve_reacts_to_link_failure;
          QCheck_alcotest.to_alcotest prop_resolve_prune_exact;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "export/aggregate round trip + staleness" `Quick
            test_telemetry_roundtrip_and_staleness;
          Alcotest.test_case "update_routes rollout" `Quick test_update_routes_rollout;
          QCheck_alcotest.to_alcotest batch_equals_its_entries;
          Alcotest.test_case "lost batch ages out one site" `Quick
            test_lost_batch_ages_out_one_site;
        ] );
      ( "loop",
        [
          Alcotest.test_case "closed-loop smoke deterministic" `Quick
            test_closed_loop_smoke_deterministic;
          Alcotest.test_case "steady demand: closed >= static" `Quick
            test_closed_loop_tracks_static_on_steady_demand;
        ] );
      ("validate", validation_cases);
      ( "anycast",
        [
          QCheck_alcotest.to_alcotest anycast_routing_valid;
          QCheck_alcotest.to_alcotest anycast_matches_centralized;
          Alcotest.test_case "anycast arm smoke deterministic" `Quick
            test_anycast_smoke_deterministic;
          Alcotest.test_case "offline arms reject ~on_system" `Quick
            test_on_system_rejected_on_offline_arms;
          Alcotest.test_case "closed loop frozen under full GSB outage" `Quick
            test_closed_loop_frozen_under_full_gsb_outage;
        ] );
      ( "long run",
        [
          Alcotest.test_case "closed loop: state bounded by live work" `Quick
            (test_long_run_state_bounded Loop.Closed_loop);
          Alcotest.test_case "anycast arm: state bounded by live work" `Quick
            (test_long_run_state_bounded Loop.Anycast_dist);
        ] );
      ( "placement",
        [
          Alcotest.test_case "placement recovers oracle provisioning" `Quick
            test_placement_recovers_oracle_provisioning;
          Alcotest.test_case "sweep deterministic" `Quick
            test_placement_sweep_deterministic;
        ] );
    ]
