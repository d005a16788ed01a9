(* sb_chaos: deterministic fault injection + whole-system invariants.

   The headline property: 200+ randomly generated fault schedules run
   against the standard six-site deployment with zero invariant
   violations. On failure qcheck shrinks through [Schedule.shrink] and
   prints the minimal failing schedule (its seed replays it bit-identically
   via `switchboard_cli chaos --seed N`). *)

module Schedule = Sb_chaos.Schedule
module Harness = Sb_chaos.Harness
module Engine = Sb_sim.Engine
module System = Sb_ctrl.System
module Shard = Sb_dataplane.Shard
open Sb_ctrl.Types

(* ------------------- schedule generation / replay ------------------- *)

let test_generate_deterministic () =
  let a = Schedule.generate ~seed:17 ~horizon:20. ~num_sites:6 in
  let b = Schedule.generate ~seed:17 ~horizon:20. ~num_sites:6 in
  Alcotest.(check string) "same schedule" (Schedule.to_string a) (Schedule.to_string b);
  let c = Schedule.generate ~seed:18 ~horizon:20. ~num_sites:6 in
  if Schedule.to_string a = Schedule.to_string c then
    Alcotest.fail "different seeds should give different schedules"

let test_generate_death_windows_disjoint () =
  for seed = 1 to 100 do
    let s = Schedule.generate ~seed ~horizon:20. ~num_sites:6 in
    let deaths = List.filter Schedule.is_death s.Schedule.faults in
    List.iteri
      (fun i f ->
        List.iteri
          (fun j g ->
            if i < j && Schedule.overlaps f g then
              Alcotest.failf "seed %d: overlapping death windows:@.%s" seed
                (Schedule.to_string s))
          deaths)
      deaths
  done

let test_shrink_strictly_smaller () =
  let s = Schedule.generate ~seed:3 ~horizon:20. ~num_sites:6 in
  let size (t : Schedule.t) =
    (* Every shrink step removes a fault, halves a window, or halves a
       probability — each strictly decreases this measure. *)
    List.fold_left
      (fun acc f ->
        let start, stop = Schedule.window f in
        let prob =
          match f with
          | Schedule.Bus_loss { prob; _ }
          | Schedule.Bus_delay { prob; _ }
          | Schedule.Telemetry_drop { prob; _ } -> prob
          | _ -> 0.
        in
        acc +. 1. +. (stop -. start) +. prob)
      0. t.Schedule.faults
  in
  let candidates = Schedule.shrink s in
  if candidates = [] then Alcotest.fail "non-empty schedule must shrink";
  List.iter
    (fun c ->
      if size c >= size s then
        Alcotest.failf "shrink candidate not smaller:@.%s" (Schedule.to_string c))
    candidates

let test_replay_identical () =
  let r1 = Harness.run_seed 42 in
  let r2 = Harness.run_seed 42 in
  Alcotest.(check int) "same event count" r1.Harness.events r2.Harness.events;
  Alcotest.(check int) "same violation count"
    (List.length r1.Harness.violations)
    (List.length r2.Harness.violations);
  Alcotest.(check bool) "both quiesced" r1.Harness.completed r2.Harness.completed

(* -------------------- the qcheck schedule search -------------------- *)

let schedule_arb =
  QCheck.make
    ~print:Schedule.to_string
    ~shrink:(fun s yield -> List.iter yield (Schedule.shrink s))
    QCheck.Gen.(
      map
        (fun seed ->
          Schedule.generate ~seed ~horizon:Harness.horizon
            ~num_sites:Harness.num_sites)
        (int_range 1 1_000_000))

let prop_no_violations =
  QCheck.Test.make ~name:"random fault schedules: no invariant violations"
    ~count:200 schedule_arb (fun sched ->
      let r = Harness.run sched in
      if r.Harness.violations <> [] then
        QCheck.Test.fail_reportf "%a" Harness.pp_result r
      else true)

(* --------------- regression: relay loop (fixed bug) ----------------- *)

(* Found by the schedule search (and reproducible with zero faults): when
   one site is the receiver of one route and the sender of another for
   the same stage, its merged stage rule offered remote forwarders to
   packets that had already been relayed once. Under the Replicated flow
   store the second relay hop collided with the first in the role-keyed
   DHT and the packet looped until TTL exhaustion. The receiver-side
   rule ([Shard.install_rx_rule]) pins relayed packets to local
   delivery; this must hold for every connection. *)
let test_no_relay_loop_when_site_is_sender_and_receiver () =
  let delay i j = if i = j then 0. else 0.02 in
  let sys =
    System.create ~seed:5 ~flow_store:(Shard.Replicated 2) ~num_sites:4 ~delay
      ~gsb_site:0 ()
  in
  List.iter
    (fun (vnf, site) -> System.deploy_vnf sys ~vnf ~site ~capacity:100. ~instances:2)
    [ (0, 1); (0, 2); (1, 2); (1, 3) ];
  System.register_edge sys ~site:0 ~attachment:"in";
  System.register_edge sys ~site:3 ~attachment:"out";
  (* Site 2 receives stage 1 of route A (vnf1 there) and sends stage 1 of
     route B (vnf0 there, vnf1 at site 3). *)
  System.set_route_policy sys (fun _ ~exclude:_ ->
      Some
        [
          { element_sites = [| 0; 1; 2; 3 |]; weight = 0.5 };
          { element_sites = [| 0; 2; 3; 3 |]; weight = 0.5 };
        ]);
  let chain =
    System.request_chain sys
      {
        spec_name = "loop-regression";
        ingress_attachment = "in";
        egress_attachment = "out";
        vnfs = [ 0; 1 ];
        traffic = 4.;
      }
  in
  Engine.run (System.engine sys);
  Alcotest.(check int) "routes committed" 2
    (List.length (System.chain_routes sys ~chain));
  let rng = Sb_util.Rng.create 99 in
  for _ = 1 to 60 do
    let tu = Sb_dataplane.Packet.random_tuple rng in
    match System.probe_chain sys ~chain tu with
    | Ok trace ->
      Alcotest.(check (list int))
        "conformant" [ 0; 1 ]
        (Shard.vnfs_in_trace (System.shard sys) trace)
    | Error e -> Alcotest.failf "probe failed: %a" Shard.pp_error e
  done

(* The standard deployment and schedules over the sharded data plane:
   the lane count must be invisible to every invariant — probes route to
   the owning lane, counters and flow state aggregate across lanes. *)
let test_sharded_fabric_no_violations () =
  List.iter
    (fun lanes ->
      List.iter
        (fun seed ->
          let r = Harness.run_seed ~lanes seed in
          if r.Harness.violations <> [] then
            Alcotest.failf "lanes=%d seed %d: %a" lanes seed Harness.pp_result r;
          if not r.Harness.completed then
            Alcotest.failf "lanes=%d seed %d: budget exhausted" lanes seed)
        [ 7; 42 ])
    [ 2; 4 ]

(* A site outage kills the site's forwarders on every lane, not just on
   lane 0, and the restart revives them on every lane. *)
let test_site_outage_reaches_every_lane () =
  let sys =
    System.create ~lanes:4 ~num_sites:3 ~delay:(fun _ _ -> 0.01) ~gsb_site:0 ()
  in
  let sh = System.shard sys in
  ignore (System.add_forwarder sys ~site:1);
  let fwds = System.site_forwarders sys 1 in
  Alcotest.(check int) "two forwarders at the site" 2 (List.length fwds);
  let sched =
    Schedule.of_faults ~seed:1 ~horizon:3. ~num_sites:3
      [ Schedule.Site_outage { site = 1; start = 1.; stop = 2. } ]
  in
  Sb_chaos.Inject.arm ~sys ~rng:(Sb_util.Rng.create 1) sched;
  let check_all label expected =
    for l = 0 to Shard.lanes sh - 1 do
      List.iter
        (fun f ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: lane %d forwarder %d" label l f)
            expected
            (Sb_dataplane.Plane.forwarder_alive (Shard.lane sh l) f))
        fwds
    done
  in
  let eng = System.engine sys in
  Engine.run_until eng 1.5;
  check_all "inside the window" false;
  Engine.run_until eng 2.5;
  check_all "after the window" true;
  Shard.shutdown sh

(* ---------- decentralized arm: degradation under GSB loss ---------- *)

module Loop = Sb_adapt.Loop
module Scenario = Sb_adapt.Scenario
module Invariant = Sb_chaos.Invariant
module Inject = Sb_chaos.Inject
module Model = Sb_core.Model

(* The controller-outage acceptance scenario (DESIGN.md section 15): the
   sweep's own 25-site diurnal scenario — including the sacrificial site
   going dark one epoch into the window — with a harsher fault mix than
   the sweep arms: the Global Switchboard dies at a quarter of the
   run and never comes back, and the wide-area bus drops 40% of
   loss-tolerant copies (a partial partition of the advert flood) for the
   same window. Every threshold below is pinned against this exact seeded
   scenario; a regression in the agents' staleness handling or the spill
   chooser moves the measured means and trips them. *)

let outage_cfg = Scenario.smoke_config

let outage_schedule () =
  let cfg = outage_cfg in
  let sc = Scenario.outage_scenario cfg in
  let num_sites = Model.num_sites sc.Loop.sc_model in
  (* Past the last control tick, so the GSB stays dead to the end. *)
  let horizon = (float_of_int cfg.Scenario.ticks *. cfg.Scenario.epoch_len) +. 1. in
  let start =
    float_of_int (Scenario.outage_start_epoch cfg) *. cfg.Scenario.epoch_len
  in
  Schedule.of_faults ~seed:cfg.Scenario.seed ~horizon ~num_sites
    [
      Schedule.Gsb_failover { start; stop = horizon };
      Schedule.Bus_loss { start; stop = horizon; prob = 0.4 };
    ]

(* Run one live arm with the outage armed; optionally with the invariant
   checker probing every epoch and monitoring single-copy WAN delivery. *)
let run_armed ?(lanes = 1) ?(invariants = false) arm =
  let cfg = outage_cfg in
  let sc = Scenario.outage_scenario cfg in
  let params = { Loop.default_params with Loop.seed = cfg.Scenario.seed; lanes } in
  let sched = outage_schedule () in
  let rng = Sb_util.Rng.create (cfg.Scenario.seed + 101) in
  let checker = ref None in
  let on_system sys =
    if invariants then begin
      let iv =
        Invariant.create ~sys ~num_sites:(Model.num_sites sc.Loop.sc_model)
          ~seed:cfg.Scenario.seed
      in
      List.iter
        (fun chain -> Invariant.register_chain iv ~chain ~tuples:2)
        (System.chain_ids sys);
      let eng = System.engine sys in
      let t0 = Engine.now eng in
      for e = 0 to cfg.Scenario.ticks - 1 do
        ignore
          (Engine.schedule_at eng
             ~time:(t0 +. ((float_of_int e +. 0.5) *. cfg.Scenario.epoch_len))
             (fun () -> Invariant.check_epoch iv))
      done;
      checker := Some iv;
      Inject.arm ~sys ~observe:(Invariant.observe_wan iv) ~rng sched
    end
    else Inject.arm ~sys ~rng sched
  in
  let r = Loop.run ~params ~on_system sc arm in
  (r, match !checker with Some iv -> Invariant.violations iv | None -> [])

let mean_supported lo hi (r : Loop.run_result) =
  let xs =
    List.filter_map
      (fun (e : Loop.epoch_report) ->
        if e.Loop.ep_epoch >= lo && e.Loop.ep_epoch < hi then Some e.Loop.ep_supported
        else None)
      r.Loop.epochs
  in
  List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let test_anycast_degrades_gracefully_under_gsb_loss () =
  let cfg = outage_cfg in
  let sc = Scenario.outage_scenario cfg in
  let params = { Loop.default_params with Loop.seed = cfg.Scenario.seed } in
  let start_e = Scenario.outage_start_epoch cfg in
  let epochs = cfg.Scenario.ticks in
  let pre r = mean_supported 0 start_e r in
  let during r = mean_supported start_e epochs r in
  let oracle = Loop.run ~params sc Loop.Oracle in
  let static = Loop.run ~params sc Loop.Static in
  let closed_ok = Loop.run ~params sc Loop.Closed_loop in
  let closed, _ = run_armed Loop.Closed_loop in
  let anycast, _ = run_armed Loop.Anycast_dist in
  (* Pre-outage the centralized loop is healthy: within 20% of the
     per-epoch-resolving oracle after a single control tick (measured
     0.853 — the pre window is only ticks/4 epochs, so the loop has had
     exactly one chance to react to the drift). *)
  Alcotest.(check bool) "closed pre-outage >= 0.8 oracle" true
    (pre closed >= 0.8 *. pre oracle);
  (* ... and within 5% of the decentralized arm before the controller
     dies (the full-run zero-outage ordering closed > anycast is pinned
     at smoke scale by test/anycast.golden). *)
  Alcotest.(check bool) "closed pre-outage >= 0.95 anycast" true
    (pre closed >= 0.95 *. pre anycast);
  (* The dead-controller closed loop stalls: no better than its own
     fault-free run, and decisively overtaken during the loss (measured
     1.226x / 1.199x over frozen-closed / static). *)
  Alcotest.(check bool) "dead-GSB closed <= fault-free closed" true
    (during closed <= during closed_ok +. 1e-9);
  Alcotest.(check bool) "anycast >= 1.1x closed during GSB loss" true
    (during anycast >= 1.1 *. during closed);
  Alcotest.(check bool) "anycast >= 1.1x static during GSB loss" true
    (during anycast >= 1.1 *. during static);
  (* Graceful degradation, pinned: through the dead controller, the lossy
     advert flood and the dead site, the agents retain at least 65% of
     their own pre-outage satisfied demand (measured 0.682; the dead
     site's endpoint demand is unreachable for every arm, so full
     retention is not attainable). *)
  Alcotest.(check bool) "anycast retains >= 0.65 of pre-outage demand" true
    (during anycast >= 0.65 *. pre anycast)

(* Safety under the mixed fault load, and lane-independence: the epoch
   probes must stay conformant/affine/symmetric while agents re-point
   rules mid-flight, at 1 RSS lane and at 4; and the arm's scores must be
   identical across lane counts (sharding is invisible to the control
   logic). The strict quiesce check does not apply — the agents install
   outside 2PC by design, so committed-load accounting diverges. *)
let test_anycast_invariants_lane_independent () =
  let r1, v1 = run_armed ~lanes:1 ~invariants:true Loop.Anycast_dist in
  let r4, v4 = run_armed ~lanes:4 ~invariants:true Loop.Anycast_dist in
  (match v1 @ v4 with
  | [] -> ()
  | vs ->
    Alcotest.failf "invariant violations under anycast: %s"
      (String.concat "; "
         (List.map (fun (v : Invariant.violation) -> v.Invariant.inv) vs)));
  List.iter2
    (fun (a : Loop.epoch_report) (b : Loop.epoch_report) ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "epoch %d supported lane-independent" a.Loop.ep_epoch)
        a.Loop.ep_supported b.Loop.ep_supported;
      Alcotest.(check int) "re-points lane-independent" a.Loop.ep_rerouted
        b.Loop.ep_rerouted)
    r1.Loop.epochs r4.Loop.epochs

(* ------------- elastic placement: drain-safety invariants ------------ *)

module Place = Sb_adapt.Place

(* A deployment the drain protocol can retract: vnf 0 split across sites
   1 and 2, routes committed through the full 2PC, a handful of
   connections established and pinned on site 2, then the chain routed
   off the site — the scale-in precondition. The checker's own probe
   connections are registered after the route update, so they pin on the
   surviving site and stay live across the whole scale-in (its epoch
   probes refresh them); the site-2 connections are driven manually and
   idle out when the test advances the expiry clock. *)
let drain_fixture () =
  let delay i j = if i = j then 0. else 0.02 in
  let sys =
    System.create ~seed:11 ~flow_store:(Shard.Replicated 2) ~lanes:2
      ~num_sites:4 ~delay ~gsb_site:0 ()
  in
  List.iter
    (fun (vnf, site) -> System.deploy_vnf sys ~vnf ~site ~capacity:100. ~instances:2)
    [ (0, 1); (0, 2) ];
  System.register_edge sys ~site:0 ~attachment:"in";
  System.register_edge sys ~site:3 ~attachment:"out";
  System.set_route_policy sys (fun _ ~exclude:_ ->
      Some
        [
          { element_sites = [| 0; 1; 3 |]; weight = 0.5 };
          { element_sites = [| 0; 2; 3 |]; weight = 0.5 };
        ]);
  let chain =
    System.request_chain sys
      {
        spec_name = "drain";
        ingress_attachment = "in";
        egress_attachment = "out";
        vnfs = [ 0 ];
        traffic = 4.;
      }
  in
  Engine.run (System.engine sys);
  Alcotest.(check int) "routes committed" 2
    (List.length (System.chain_routes sys ~chain));
  let ids2 = System.site_vnf_instance_ids sys ~site:2 ~vnf:0 in
  let on_site2 trace =
    List.exists (fun i -> List.mem i ids2) (Shard.instances_in_trace trace)
  in
  (* Establish connections until some pin on site 2. *)
  let rng = Sb_util.Rng.create 23 in
  let pinned2 = ref [] in
  for _ = 1 to 12 do
    let tu = Sb_dataplane.Packet.random_tuple rng in
    match System.probe_chain sys ~chain tu with
    | Ok trace -> if on_site2 trace then pinned2 := tu :: !pinned2
    | Error e -> Alcotest.failf "establish probe failed: %a" Shard.pp_error e
  done;
  Alcotest.(check bool) "some connections pinned on site 2" true (!pinned2 <> []);
  (* Route the chain off site 2: the scale-in precondition. *)
  System.update_routes sys ~chain [ { element_sites = [| 0; 1; 3 |]; weight = 1.0 } ];
  Engine.run (System.engine sys);
  let iv = Invariant.create ~sys ~num_sites:4 ~seed:11 in
  Invariant.register_chain iv ~chain ~tuples:6;
  Invariant.check_epoch iv;
  (sys, chain, iv, ids2, on_site2, !pinned2)

let check_no_violations what iv =
  match Invariant.violations iv with
  | [] -> ()
  | vs ->
    Alcotest.failf "%s: %s" what
      (String.concat "; "
         (List.map (fun v -> Format.asprintf "%a" Invariant.pp_violation v) vs))

let test_drain_retracts_safely () =
  let sys, chain, iv, _ids2, on_site2, pinned2 = drain_fixture () in
  let eng = System.engine sys in
  let done_ = ref [] in
  System.drain_and_remove sys ~vnf:0 ~site:2 ~timeout:30.
    ~on_done:(fun ok -> done_ := ok :: !done_) ();
  (* One poll in: the weights are zero and the checker sees the drain.
     Connections established before it still cross site 2 (flow
     affinity), so the drain cannot complete — and must not violate. *)
  Engine.run_until eng (Engine.now eng +. 0.3);
  Invariant.check_epoch iv;
  Alcotest.(check (list bool)) "drain still pending on live flows" [] !done_;
  List.iter
    (fun tu ->
      match System.probe_chain sys ~chain tu with
      | Ok trace ->
        Alcotest.(check bool) "established connection still served by site 2" true
          (on_site2 trace)
      | Error e -> Alcotest.failf "established probe failed: %a" Shard.pp_error e)
    pinned2;
  (* ... while a brand-new connection must avoid the draining site. *)
  (match
     System.probe_chain sys ~chain
       (Sb_dataplane.Packet.random_tuple (Sb_util.Rng.create 31))
   with
  | Ok trace ->
    Alcotest.(check bool) "new connection avoids draining site" false
      (on_site2 trace)
  | Error e -> Alcotest.failf "new-connection probe failed: %a" Shard.pp_error e);
  (* The site-2 connections idle out (the checker's own probes were
     refreshed at tick 5, so they survive the sweep); the next poll
     retracts. *)
  let fabric = System.shard sys in
  Shard.set_clock fabric 5;
  Invariant.check_epoch iv;
  ignore (Shard.expire_flows fabric ~idle_before:5);
  Engine.run_until eng (Engine.now eng +. 2.);
  Alcotest.(check (list bool)) "drain completed" [ true ] !done_;
  let ch = System.deployment_churn sys in
  Alcotest.(check int) "deployment removed" 1 ch.System.ch_removed;
  Alcotest.(check int) "drain counted" 1 ch.System.ch_drains_completed;
  Alcotest.(check int) "no abort" 0 ch.System.ch_drains_aborted;
  Alcotest.(check (list int)) "site 2 census empty" []
    (System.site_vnf_instance_ids sys ~site:2 ~vnf:0);
  (* The checker observes the retraction (no flow left pinned to the
     retired instances) and the strict quiesce probes all pass on the
     surviving site. *)
  Invariant.check_epoch iv;
  Engine.run eng;
  Invariant.check_quiesce iv;
  check_no_violations "after completed drain" iv

let test_drain_aborts_atomically_on_gsb_death () =
  let sys, chain, iv, _ids2, on_site2, pinned2 = drain_fixture () in
  let eng = System.engine sys in
  let before = System.site_vnf_instances sys ~site:2 ~vnf:0 in
  Alcotest.(check bool) "site 2 live before drain" true (before <> []);
  let done_ = ref [] in
  System.drain_and_remove sys ~vnf:0 ~site:2 ~timeout:30.
    ~on_done:(fun ok -> done_ := ok :: !done_) ();
  Engine.run_until eng (Engine.now eng +. 0.3);
  Invariant.check_epoch iv;
  (* The coordinator dies mid-drain: the next poll must abort — saved
     weights restored, nothing retracted, scale-in atomic. *)
  System.set_gsb_down sys true;
  Engine.run_until eng (Engine.now eng +. 0.6);
  Alcotest.(check (list bool)) "drain aborted" [ false ] !done_;
  System.set_gsb_down sys false;
  let ch = System.deployment_churn sys in
  Alcotest.(check int) "nothing removed" 0 ch.System.ch_removed;
  Alcotest.(check int) "abort counted" 1 ch.System.ch_drains_aborted;
  Alcotest.(check int) "no drain in flight" 0 ch.System.ch_draining;
  Alcotest.(check (list (pair int (float 0.)))) "weights restored verbatim" before
    (System.site_vnf_instances sys ~site:2 ~vnf:0);
  (* Every connection keeps its original instances across the abort; the
     checker clears its drain tracking and the quiesce checks pass. *)
  List.iter
    (fun tu ->
      match System.probe_chain sys ~chain tu with
      | Ok trace ->
        Alcotest.(check bool) "connection still on site 2 after abort" true
          (on_site2 trace)
      | Error e -> Alcotest.failf "post-abort probe failed: %a" Shard.pp_error e)
    pinned2;
  Invariant.check_epoch iv;
  Engine.run eng;
  Invariant.check_quiesce iv;
  check_no_violations "after aborted drain" iv

(* The whole capability under chaos: the placement-armed closed loop on
   the flash-crowd scenario, epoch probes running, and the Global
   Switchboard dying for two epochs inside the flash window — pausing
   control ticks and aborting any drain in flight. Zero violations
   (conformity, affinity, symmetry, single-copy, drain safety), and the
   planner still acts outside the outage. *)
let test_placement_loop_invariants_under_gsb_outage () =
  let cfg = { Scenario.smoke_config with Scenario.ticks = 12 } in
  let sc, _oracle_extras = Scenario.placement_scenario cfg in
  let params =
    {
      Loop.default_params with
      Loop.seed = cfg.Scenario.seed;
      placement = Some Place.default_params;
    }
  in
  let num_sites = Model.num_sites sc.Loop.sc_model in
  let horizon =
    (float_of_int cfg.Scenario.ticks *. cfg.Scenario.epoch_len) +. 1.
  in
  let sched =
    Sb_chaos.Schedule.of_faults ~seed:cfg.Scenario.seed ~horizon ~num_sites
      [ Schedule.Gsb_failover { start = 6.2; stop = 8.2 } ]
  in
  let rng = Sb_util.Rng.create (cfg.Scenario.seed + 202) in
  let checker = ref None in
  let on_system sys =
    let iv = Invariant.create ~sys ~num_sites ~seed:cfg.Scenario.seed in
    List.iter
      (fun chain -> Invariant.register_chain iv ~chain ~tuples:2)
      (System.chain_ids sys);
    let eng = System.engine sys in
    let t0 = Engine.now eng in
    for e = 0 to cfg.Scenario.ticks - 1 do
      ignore
        (Engine.schedule_at eng
           ~time:(t0 +. ((float_of_int e +. 0.5) *. cfg.Scenario.epoch_len))
           (fun () -> Invariant.check_epoch iv))
    done;
    checker := Some iv;
    Inject.arm ~sys ~observe:(Invariant.observe_wan iv) ~rng sched
  in
  let r = Loop.run ~params ~on_system sc Loop.Closed_loop in
  Alcotest.(check bool) "planner acted despite the outage" true
    (r.Loop.total_scale_actions > 0);
  match !checker with
  | None -> Alcotest.fail "closed loop never built a system"
  | Some iv -> check_no_violations "placement loop under GSB outage" iv

(* Fault effect: an armed [Telemetry_drop] window must actually drop
   telemetry batches, not silently match nothing (a renamed topic would
   do that). The wan hook sees every telemetry copy the closed loop's
   exporters put on the wire; inside a certain-loss window each one is
   dropped, and nothing else is. *)
let test_telemetry_drop_drops_batches () =
  let cfg = { Scenario.smoke_config with Scenario.ticks = 6 } in
  let sc, _ = Scenario.placement_scenario cfg in
  let params = { Loop.default_params with Loop.seed = cfg.Scenario.seed } in
  let num_sites = Model.num_sites sc.Loop.sc_model in
  let start = 2.0 and stop = 4.0 in
  let sched =
    Schedule.of_faults ~seed:cfg.Scenario.seed ~horizon:7. ~num_sites
      [ Schedule.Telemetry_drop { start; stop; prob = 1.0 } ]
  in
  let in_window = ref 0 and outside = ref 0 in
  let system = ref None in
  let on_system sys =
    system := Some sys;
    let eng = System.engine sys in
    let t0 = Engine.now eng in
    let observe ~msg:_ ~topic ~src:_ ~dst:_ =
      if String.starts_with ~prefix:"/telemetry/s" topic then begin
        let now = Engine.now eng -. t0 in
        if now >= start && now < stop then incr in_window else incr outside
      end
    in
    Inject.arm ~sys ~observe ~rng:(Sb_util.Rng.create 3) sched
  in
  ignore (Loop.run ~params ~on_system sc Loop.Closed_loop);
  match !system with
  | None -> Alcotest.fail "closed loop never built a system"
  | Some sys ->
    Alcotest.(check bool) "telemetry batches crossed the wan in the window" true
      (!in_window >= 1);
    Alcotest.(check bool) "and outside it" true (!outside >= 1);
    Alcotest.(check int) "every batch in the window dropped, nothing else" !in_window
      (Sb_msgbus.Bus.stats (System.bus sys)).Sb_msgbus.Bus.fault_dropped

let () =
  Alcotest.run "sb_chaos"
    [
      ( "schedule",
        [
          Alcotest.test_case "generate deterministic" `Quick test_generate_deterministic;
          Alcotest.test_case "death windows disjoint" `Quick
            test_generate_death_windows_disjoint;
          Alcotest.test_case "shrink strictly smaller" `Quick
            test_shrink_strictly_smaller;
        ] );
      ( "harness",
        [
          Alcotest.test_case "seeded replay identical" `Quick test_replay_identical;
          Alcotest.test_case "relay loop regression (mixed-role site)" `Quick
            test_no_relay_loop_when_site_is_sender_and_receiver;
          Alcotest.test_case "sharded fabric: schedules stay violation-free" `Quick
            test_sharded_fabric_no_violations;
          Alcotest.test_case "site outage reaches every lane" `Quick
            test_site_outage_reaches_every_lane;
          Alcotest.test_case "telemetry drop drops batches" `Quick
            test_telemetry_drop_drops_batches;
        ] );
      ("search", [ QCheck_alcotest.to_alcotest prop_no_violations ]);
      ( "outage",
        [
          Alcotest.test_case "anycast degrades gracefully under GSB loss" `Quick
            test_anycast_degrades_gracefully_under_gsb_loss;
          Alcotest.test_case "anycast invariants hold, lane-independent" `Quick
            test_anycast_invariants_lane_independent;
        ] );
      ( "placement",
        [
          Alcotest.test_case "drain retracts only after flows end" `Quick
            test_drain_retracts_safely;
          Alcotest.test_case "drain aborts atomically on GSB death" `Quick
            test_drain_aborts_atomically_on_gsb_death;
          Alcotest.test_case "placement loop invariants under GSB outage" `Quick
            test_placement_loop_invariants_under_gsb_outage;
        ] );
    ]
