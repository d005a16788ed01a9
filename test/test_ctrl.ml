module S = Sb_ctrl.System
module T = Sb_ctrl.Types
module E = Sb_sim.Engine
module Shard = Sb_dataplane.Shard
module Packet = Sb_dataplane.Packet

let delay30 a b = if a = b then 0. else 0.030

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0


(* Two sites with a NAT (vnf 7) at each; edge at both; route policy prefers
   site 0, retreating to site 1 when 2PC rejects it. *)
let build_two_sites ?(capacity0 = 10.) () =
  let sys = S.create ~num_sites:2 ~delay:delay30 ~gsb_site:0 () in
  S.deploy_vnf sys ~vnf:7 ~site:0 ~capacity:capacity0 ~instances:2;
  S.deploy_vnf sys ~vnf:7 ~site:1 ~capacity:10. ~instances:2;
  S.register_edge sys ~site:0 ~attachment:"office-A";
  S.register_edge sys ~site:1 ~attachment:"office-B";
  S.set_route_policy sys (fun _spec ~exclude ->
      if List.mem (7, 0) exclude then
        Some [ { T.element_sites = [| 0; 1; 1 |]; weight = 1.0 } ]
      else Some [ { T.element_sites = [| 0; 0; 1 |]; weight = 1.0 } ]);
  sys

let nat_spec ?(traffic = 5.0) name =
  {
    T.spec_name = name;
    ingress_attachment = "office-A";
    egress_attachment = "office-B";
    vnfs = [ 7 ];
    traffic;
  }

let test_chain_creation_end_to_end () =
  let sys = build_two_sites () in
  let chain = S.request_chain sys (nat_spec "c") in
  E.run (S.engine sys);
  Alcotest.(check int) "one route committed" 1 (List.length (S.chain_routes sys ~chain));
  Alcotest.(check (option int)) "ingress resolved" (Some 0) (S.chain_ingress_site sys ~chain);
  Alcotest.(check (option int)) "egress resolved" (Some 1) (S.chain_egress_site sys ~chain)

let test_chain_dataplane_works () =
  let sys = build_two_sites () in
  let chain = S.request_chain sys (nat_spec "c") in
  E.run (S.engine sys);
  let tuple = Packet.random_tuple (Sb_util.Rng.create 1) in
  match S.probe_chain sys ~chain tuple with
  | Ok trace ->
    Alcotest.(check (list int)) "conformity via control plane" [ 7 ]
      (Shard.vnfs_in_trace (S.shard sys) trace)
  | Error e -> Alcotest.failf "probe failed: %a" Shard.pp_error e

let test_chain_creation_latency_sub_second () =
  let sys = build_two_sites () in
  let _ = S.request_chain sys (nat_spec "c") in
  E.run (S.engine sys);
  (* All rule installs complete within a second of simulated time (paper
     Section 7.1 reports sub-second chain operations). *)
  Alcotest.(check bool) "completes within 1 s" true (E.now (S.engine sys) < 1.0)

let test_admission_accounting () =
  let sys = build_two_sites () in
  let _ = S.request_chain sys (nat_spec ~traffic:4. "c") in
  E.run (S.engine sys);
  Alcotest.(check (float 1e-9)) "vnf7@site0 committed" 4. (S.vnf_committed_load sys ~vnf:7 ~site:0);
  Alcotest.(check (float 1e-9)) "site1 untouched" 0. (S.vnf_committed_load sys ~vnf:7 ~site:1)

let test_2pc_reject_triggers_recompute () =
  (* Site 0's NAT has capacity 3 < traffic 5: prepare must be rejected and
     the chain placed at site 1. *)
  let sys = build_two_sites ~capacity0:3. () in
  let chain = S.request_chain sys (nat_spec ~traffic:5. "c") in
  E.run (S.engine sys);
  (match S.chain_routes sys ~chain with
  | [ r ] -> Alcotest.(check int) "VNF moved to site 1" 1 r.T.element_sites.(1)
  | rs -> Alcotest.failf "expected one route, got %d" (List.length rs));
  Alcotest.(check (float 1e-9)) "no load at rejected site" 0.
    (S.vnf_committed_load sys ~vnf:7 ~site:0);
  Alcotest.(check (float 1e-9)) "load at accepted site" 5.
    (S.vnf_committed_load sys ~vnf:7 ~site:1);
  (* The log shows an abort followed by a commit. *)
  let log = List.map snd (S.log sys) in
  Alcotest.(check bool) "abort logged" true
    (List.exists (fun s -> contains s "abort") log)

let test_2pc_atomicity_no_partial_commit () =
  (* Unsatisfiable everywhere: no routes committed, no load anywhere. *)
  let sys = build_two_sites ~capacity0:3. () in
  let chain = S.request_chain sys (nat_spec ~traffic:50. "c") in
  E.run (S.engine sys);
  Alcotest.(check int) "no route" 0 (List.length (S.chain_routes sys ~chain));
  Alcotest.(check (float 1e-9)) "site0 clean" 0. (S.vnf_committed_load sys ~vnf:7 ~site:0);
  Alcotest.(check (float 1e-9)) "site1 clean" 0. (S.vnf_committed_load sys ~vnf:7 ~site:1)

let test_two_chains_share_capacity () =
  let sys = build_two_sites () in
  let c1 = S.request_chain sys (nat_spec ~traffic:6. "c1") in
  E.run (S.engine sys);
  let c2 = S.request_chain sys (nat_spec ~traffic:6. "c2") in
  E.run (S.engine sys);
  (* Site 0 capacity 10: c1 fits (6), c2 (6) must go to site 1. *)
  (match S.chain_routes sys ~chain:c1 with
  | [ r ] -> Alcotest.(check int) "c1 at site 0" 0 r.T.element_sites.(1)
  | _ -> Alcotest.fail "c1 route missing");
  match S.chain_routes sys ~chain:c2 with
  | [ r ] -> Alcotest.(check int) "c2 pushed to site 1" 1 r.T.element_sites.(1)
  | _ -> Alcotest.fail "c2 route missing"

let test_add_route_doubles_capacity () =
  let sys = build_two_sites () in
  let chain = S.request_chain sys (nat_spec ~traffic:5. "c") in
  E.run (S.engine sys);
  S.add_route sys ~chain { T.element_sites = [| 0; 1; 1 |]; weight = 0.5 };
  E.run (S.engine sys);
  Alcotest.(check int) "two routes" 2 (List.length (S.chain_routes sys ~chain));
  (* Load rebalanced: half on each site. *)
  Alcotest.(check (float 1e-9)) "half at site 0" 2.5 (S.vnf_committed_load sys ~vnf:7 ~site:0);
  Alcotest.(check (float 1e-9)) "half at site 1" 2.5 (S.vnf_committed_load sys ~vnf:7 ~site:1)

let test_add_route_update_latency () =
  let sys = build_two_sites () in
  let chain = S.request_chain sys (nat_spec "c") in
  E.run (S.engine sys);
  let t0 = E.now (S.engine sys) in
  S.add_route sys ~chain { T.element_sites = [| 0; 1; 1 |]; weight = 0.5 };
  E.run (S.engine sys);
  let elapsed = E.now (S.engine sys) -. t0 in
  (* Fig. 10a: route update completes in well under a second. *)
  Alcotest.(check bool) "route update < 1 s" true (elapsed < 1.0);
  Alcotest.(check bool) "route update takes real message rounds" true (elapsed > 0.05)

let test_existing_flows_survive_route_addition () =
  let sys = build_two_sites () in
  let chain = S.request_chain sys (nat_spec "c") in
  E.run (S.engine sys);
  let tuple = Packet.random_tuple (Sb_util.Rng.create 2) in
  let before =
    match S.probe_chain sys ~chain tuple with
    | Ok trace -> Shard.instances_in_trace trace
    | Error e -> Alcotest.failf "probe: %a" Shard.pp_error e
  in
  S.add_route sys ~chain { T.element_sites = [| 0; 1; 1 |]; weight = 0.5 };
  E.run (S.engine sys);
  (match S.probe_chain sys ~chain tuple with
  | Ok trace ->
    Alcotest.(check (list int)) "flow affinity across route update" before
      (Shard.instances_in_trace trace)
  | Error e -> Alcotest.failf "probe after update: %a" Shard.pp_error e);
  (* New connections can land on the new route's instances eventually. *)
  let rng = Sb_util.Rng.create 3 in
  let saw_site1 = ref false in
  for _ = 1 to 50 do
    match S.probe_chain sys ~chain (Packet.random_tuple rng) with
    | Ok trace ->
      List.iter
        (fun i ->
          if
            Shard.instance_vnf (S.shard sys) i = 7
            && Shard.forwarder_site (S.shard sys) (S.site_forwarder sys 1)
               = Shard.instance_site (S.shard sys) i
          then saw_site1 := true)
        (Shard.instances_in_trace trace)
    | Error _ -> ()
  done;
  Alcotest.(check bool) "new flows reach new route" true !saw_site1


(* ------------------------- elastic scaling ------------------------- *)

let test_add_forwarder_replays_rules () =
  let sys = build_two_sites () in
  let chain = S.request_chain sys (nat_spec "c") in
  E.run (S.engine sys);
  let fwd = S.add_forwarder sys ~site:0 in
  E.run (S.engine sys);
  Alcotest.(check int) "two forwarders at site 0" 2
    (List.length (S.site_forwarders sys 0));
  (* The new forwarder carries the site's rules. *)
  (match
     Shard.rule (S.shard sys) ~forwarder:fwd ~chain_label:chain ~egress_label:1 ~stage:0
   with
  | Some targets -> Alcotest.(check bool) "rule replayed" true (targets <> [])
  | None -> Alcotest.fail "new forwarder missing the chain rule");
  (* The data plane still works end to end. *)
  match S.probe_chain sys ~chain (Packet.random_tuple (Sb_util.Rng.create 5)) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "probe after scale-out: %a" Shard.pp_error e

let test_scale_instances_rebalances_new_flows () =
  let sys = build_two_sites () in
  let chain = S.request_chain sys (nat_spec "c") in
  E.run (S.engine sys);
  (* Remember an established connection's instances. *)
  let tuple = Packet.random_tuple (Sb_util.Rng.create 6) in
  let before =
    match S.probe_chain sys ~chain tuple with
    | Ok tr -> Shard.instances_in_trace tr
    | Error e -> Alcotest.failf "probe: %a" Shard.pp_error e
  in
  let fab = S.shard sys in
  let existing_instances = Hashtbl.create 8 in
  List.iter (fun i -> Hashtbl.replace existing_instances i ()) before;
  S.scale_vnf_instances sys ~vnf:7 ~site:0 ~count:2;
  E.run (S.engine sys);
  (* Existing connection is pinned (flow affinity). *)
  (match S.probe_chain sys ~chain tuple with
  | Ok tr ->
    Alcotest.(check (list int)) "affinity across scaling" before
      (Shard.instances_in_trace tr)
  | Error e -> Alcotest.failf "probe after scaling: %a" Shard.pp_error e);
  (* New connections eventually use a new instance. *)
  let rng = Sb_util.Rng.create 7 in
  let saw_new = ref false in
  for _ = 1 to 80 do
    match S.probe_chain sys ~chain (Packet.random_tuple rng) with
    | Ok tr ->
      List.iter
        (fun i ->
          if Shard.instance_vnf fab i = 7 && not (Hashtbl.mem existing_instances i) then
            saw_new := true)
        (Shard.instances_in_trace tr)
    | Error _ -> ()
  done;
  Alcotest.(check bool) "new instances absorb new connections" true !saw_new

(* Hierarchical weights (Section 5.2): the sender splits a route set over
   the next VNF's sites by the routes' fractions, whatever the instance
   count at each site. Two routes at 0.5 each through a NAT with one
   instance at site 1 and three at site 2. *)
let test_split_follows_route_fractions () =
  let sys = S.create ~num_sites:4 ~delay:delay30 ~gsb_site:0 () in
  S.deploy_vnf sys ~vnf:7 ~site:1 ~capacity:10. ~instances:1;
  S.deploy_vnf sys ~vnf:7 ~site:2 ~capacity:10. ~instances:3;
  S.register_edge sys ~site:0 ~attachment:"office-A";
  S.register_edge sys ~site:3 ~attachment:"office-B";
  S.set_route_policy sys (fun _spec ~exclude:_ ->
      Some
        [ { T.element_sites = [| 0; 1; 3 |]; weight = 0.5 };
          { T.element_sites = [| 0; 2; 3 |]; weight = 0.5 } ]);
  let chain = S.request_chain sys (nat_spec "c") in
  E.run (S.engine sys);
  let fab = S.shard sys in
  let rng = Sb_util.Rng.create 11 in
  let site1 = Shard.forwarder_site fab (S.site_forwarder sys 1) in
  let probes = 20_000 and at_site1 = ref 0 in
  for _ = 1 to probes do
    match S.probe_chain sys ~chain (Packet.random_tuple rng) with
    | Ok trace ->
      List.iter
        (fun i -> if Shard.instance_site fab i = site1 then incr at_site1)
        (Shard.instances_in_trace trace)
    | Error e -> Alcotest.failf "probe: %a" Shard.pp_error e
  done;
  Alcotest.(check (float 0.03)) "share through site 1" 0.5
    (float_of_int !at_site1 /. float_of_int probes)

let test_scale_requires_deployment () =
  let sys = build_two_sites () in
  Alcotest.check_raises "unknown vnf"
    (Invalid_argument "System.scale_vnf_instances: unknown vnf") (fun () ->
      S.scale_vnf_instances sys ~vnf:99 ~site:0 ~count:1)

let test_instances_spread_over_forwarders () =
  let sys = build_two_sites () in
  let _chain = S.request_chain sys (nat_spec "c") in
  E.run (S.engine sys);
  ignore (S.add_forwarder sys ~site:0);
  E.run (S.engine sys);
  S.scale_vnf_instances sys ~vnf:7 ~site:0 ~count:4;
  E.run (S.engine sys);
  let fab = S.shard sys in
  let used =
    S.site_forwarders sys 0
    |> List.filter (fun f -> Shard.attached_instances fab ~forwarder:f <> [])
  in
  Alcotest.(check int) "both forwarders proxy instances" 2 (List.length used)


(* --------------------------- telemetry ----------------------------- *)

let test_chain_measurements () =
  let sys = build_two_sites () in
  let chain = S.request_chain sys (nat_spec "c") in
  E.run (S.engine sys);
  let rng = Sb_util.Rng.create 21 in
  for _ = 1 to 25 do
    match S.probe_chain sys ~chain (Packet.random_tuple rng) with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "probe: %a" Shard.pp_error e
  done;
  let stages = S.chain_measurements sys ~chain in
  Alcotest.(check int) "two stages measured" 2 (Array.length stages);
  Array.iteri
    (fun z (pkts, bytes) ->
      Alcotest.(check int) (Printf.sprintf "stage %d packets" z) 25 pkts;
      Alcotest.(check int) (Printf.sprintf "stage %d bytes" z) (25 * 500) bytes)
    stages;
  S.reset_measurements sys;
  let pkts, _ = (S.chain_measurements sys ~chain).(0) in
  Alcotest.(check int) "window reset" 0 pkts

let test_measurements_unknown_chain () =
  let sys = build_two_sites () in
  Alcotest.(check int) "no data for unknown chain" 0
    (Array.length (S.chain_measurements sys ~chain:99))


(* --------------------- controller fault tolerance ------------------ *)

let test_gsb_failover_recovers_chains () =
  (* Primary GSB persists committed chains into a 3-replica MUSIC store;
     then it "fails" (we discard the System). A standby with the same
     infrastructure acquires the leader lease, recovers the chains from
     the store, and the data plane serves the recovered chain. *)
  let store_of sys =
    Sb_music.Store.create (S.engine sys) ~replica_sites:[ 0; 1; 1 ] ~delay:delay30
  in
  (* Primary. *)
  let primary = build_two_sites () in
  let store_p = store_of primary in
  S.attach_store primary store_p;
  let c0 = S.request_chain primary (nat_spec "c0") in
  E.run (S.engine primary);
  let c1 = S.request_chain primary (nat_spec ~traffic:2. "c1") in
  E.run (S.engine primary);
  let routes_before = (S.chain_routes primary ~chain:c0, S.chain_routes primary ~chain:c1) in
  Alcotest.(check bool) "chains persisted" true
    (List.exists (fun (_, m) -> contains m "persisted to MUSIC") (S.log primary));
  (* Extract the replicated state: in a real deployment the store survives
     the controller; here we replay the primary's puts into a store bound
     to the standby's engine (the store contents are what matter). *)
  let standby = build_two_sites () in
  let store_s = store_of standby in
  S.attach_store standby store_s;
  (* Rebuild the store contents by re-running the same committed workload
     writes: copy via get/put bridge from primary's store. *)
  let copied = ref 0 in
  List.iter
    (fun key ->
      Sb_music.Store.get store_p ~from:0 ~key (fun v ->
          match v with
          | Some payload ->
            Sb_music.Store.put store_s ~from:0 ~key payload (fun _ -> incr copied)
          | None -> ()))
    [ "chains/index"; "chain/0"; "chain/1" ];
  E.run (S.engine primary);
  E.run (S.engine standby);
  Alcotest.(check int) "replicated state copied" 3 !copied;
  (* Standby takes the leader lease, then recovers. *)
  let lease_ok = ref false in
  Sb_music.Store.acquire_lease store_s ~from:0 ~key:"gsb-leader" ~owner:"standby"
    ~duration:30. (fun ok -> lease_ok := ok);
  E.run (S.engine standby);
  Alcotest.(check bool) "standby holds the lease" true !lease_ok;
  let recovered = ref [] in
  S.recover_from_store standby store_s ~on_done:(fun ids -> recovered := ids);
  E.run (S.engine standby);
  Alcotest.(check (list int)) "both chains recovered" [ c0; c1 ] !recovered;
  Alcotest.(check bool) "routes match" true
    ((S.chain_routes standby ~chain:c0, S.chain_routes standby ~chain:c1) = routes_before);
  (* The standby's data plane carries traffic for the recovered chain. *)
  match S.probe_chain standby ~chain:c0 (Packet.random_tuple (Sb_util.Rng.create 77)) with
  | Ok trace ->
    Alcotest.(check (list int)) "recovered chain serves traffic" [ 7 ]
      (Shard.vnfs_in_trace (S.shard standby) trace)
  | Error e -> Alcotest.failf "probe on standby failed: %a" Shard.pp_error e

let test_gsb_dies_between_prepare_and_commit () =
  (* The coordinator crashes after sending Prepares but before deciding:
     participants hold votes/reservations for a transaction that will
     never conclude. The standby recovers the persisted (pre-update)
     chain state from MUSIC and re-drives it; the system must converge
     back to a consistent installed-route state — no half-installed
     update, no leaked admission, and a working data plane. *)
  (* vnf 7 deployed at site 1 FIRST so its controller is homed there:
     coordinator <-> participant crosses the 30 ms wide area. *)
  let sys = S.create ~num_sites:2 ~delay:delay30 ~gsb_site:0 () in
  S.deploy_vnf sys ~vnf:7 ~site:1 ~capacity:10. ~instances:2;
  S.deploy_vnf sys ~vnf:7 ~site:0 ~capacity:10. ~instances:2;
  S.register_edge sys ~site:0 ~attachment:"office-A";
  S.register_edge sys ~site:1 ~attachment:"office-B";
  S.set_route_policy sys (fun _spec ~exclude:_ ->
      Some [ { T.element_sites = [| 0; 0; 1 |]; weight = 1.0 } ]);
  let store =
    Sb_music.Store.create (S.engine sys) ~replica_sites:[ 0; 1; 1 ] ~delay:delay30
  in
  S.attach_store sys store;
  let chain = S.request_chain sys (nat_spec "c") in
  E.run (S.engine sys);
  let routes_before = S.chain_routes sys ~chain in
  let load_before = S.vnf_committed_load sys ~vnf:7 ~site:0 in
  (* Start a route update (2PC round 2) and stop the world mid-flight:
     Prepares are delivered at +30 ms, votes reach the coordinator at
     +60 ms — kill at +45 ms, squarely between prepare and commit. *)
  let t0 = E.now (S.engine sys) in
  S.update_routes sys ~chain [ { T.element_sites = [| 0; 1; 1 |]; weight = 1.0 } ];
  E.run_until (S.engine sys) (t0 +. 0.045);
  Alcotest.(check bool) "a transaction is in flight" true (S.txns_in_flight sys > 0);
  S.set_gsb_down sys true;
  E.run (S.engine sys);
  Alcotest.(check int) "in-flight state died with the coordinator" 0
    (S.txns_in_flight sys);
  (* Standby takes over and re-drives from the store. *)
  S.set_gsb_down sys false;
  let recovered = ref [] in
  S.recover_from_store sys store ~on_done:(fun ids -> recovered := ids);
  E.run (S.engine sys);
  Alcotest.(check (list int)) "chain recovered" [ chain ] !recovered;
  Alcotest.(check bool) "committed routes are the pre-update ones" true
    (S.chain_routes sys ~chain = routes_before);
  Alcotest.(check (float 1e-9)) "no admission leaked from the dead transaction"
    load_before
    (S.vnf_committed_load sys ~vnf:7 ~site:0);
  Alcotest.(check (float 1e-9)) "the uncommitted update never became load" 0.
    (S.vnf_committed_load sys ~vnf:7 ~site:1);
  match S.probe_chain sys ~chain (Packet.random_tuple (Sb_util.Rng.create 9)) with
  | Ok trace ->
    Alcotest.(check (list int)) "data plane consistent after takeover" [ 7 ]
      (Shard.vnfs_in_trace (S.shard sys) trace)
  | Error e -> Alcotest.failf "probe after takeover failed: %a" Shard.pp_error e

(* A decision frees the transaction's state at every VNF controller, and a
   copy of the Prepare that turns up after the decision (a wide-area
   retransmission overtaken by the commit) must neither reserve again nor
   vote: the controller remembers the chain's last decided txid. *)
let test_stale_prepare_never_reserves () =
  let sys = build_two_sites () in
  let bus = S.bus sys in
  let prepares = ref [] and replies = ref 0 in
  let ctl = T.participant_topic ~name:"vnf_7" in
  Sb_msgbus.Bus.subscribe bus ~site:0 ~topic:ctl (function
    | T.Prepare _ as m -> prepares := m :: !prepares
    | _ -> ());
  Sb_msgbus.Bus.subscribe bus ~site:0 ~topic:T.votes_topic (fun _ -> incr replies);
  let chain = S.request_chain sys (nat_spec "c") in
  E.run (S.engine sys);
  Alcotest.(check int) "chain committed" 1 (List.length (S.chain_routes sys ~chain));
  Alcotest.(check int) "one Prepare seen" 1 (List.length !prepares);
  Alcotest.(check int) "decided: nothing held" 0
    (S.txns_in_flight sys + S.participant_txn_state sys);
  let load = S.vnf_committed_load sys ~vnf:7 ~site:0 and replies_before = !replies in
  List.iter (fun m -> Sb_msgbus.Bus.publish bus ~site:0 ~topic:ctl m) !prepares;
  E.run (S.engine sys);
  Alcotest.(check int) "stale Prepare reserves nothing" 0 (S.participant_txn_state sys);
  Alcotest.(check int) "stale Prepare gets no vote" replies_before !replies;
  Alcotest.(check (float 1e-9)) "committed load unchanged" load
    (S.vnf_committed_load sys ~vnf:7 ~site:0);
  (* A later transaction for the chain still prepares and commits. *)
  S.update_routes sys ~chain [ { T.element_sites = [| 0; 1; 1 |]; weight = 1.0 } ];
  E.run (S.engine sys);
  Alcotest.(check (float 1e-9)) "update committed at site 1" 5.
    (S.vnf_committed_load sys ~vnf:7 ~site:1);
  Alcotest.(check int) "and freed" 0 (S.txns_in_flight sys + S.participant_txn_state sys)

(* ----------------------- edge-site addition ------------------------ *)

let build_three_sites () =
  let sys = S.create ~num_sites:3 ~delay:delay30 ~gsb_site:0 () in
  S.deploy_vnf sys ~vnf:7 ~site:0 ~capacity:10. ~instances:2;
  S.deploy_vnf sys ~vnf:7 ~site:1 ~capacity:10. ~instances:2;
  S.register_edge sys ~site:0 ~attachment:"office-A";
  S.register_edge sys ~site:1 ~attachment:"office-B";
  S.register_edge sys ~site:2 ~attachment:"mobile";
  S.set_route_policy sys (fun _spec ~exclude:_ ->
      Some [ { T.element_sites = [| 0; 0; 1 |]; weight = 1.0 } ]);
  sys

let test_edge_site_addition_steps () =
  let sys = build_three_sites () in
  let chain = S.request_chain sys (nat_spec "c") in
  E.run (S.engine sys);
  let t0 = E.now (S.engine sys) in
  S.add_edge_site sys ~chain ~site:2;
  E.run (S.engine sys);
  let steps = S.log_between sys t0 (E.now (S.engine sys)) in
  let has sub = List.exists (fun (_, m) -> contains m sub) steps in
  Alcotest.(check bool) "step 1: choose 1st VNF site" true (has "chose 1st VNF's site");
  Alcotest.(check bool) "step 2: edge fwrdr receives info" true (has "received 1st VNF's info");
  Alcotest.(check bool) "step 3: edge dataplane configured" true (has "dataplane configured");
  Alcotest.(check bool) "step 4: VNF fwrdr receives edge info" true
    (has "receives edge's fwrdr info");
  Alcotest.(check bool) "step 6: VNF fwrdr finishes" true (has "finishes configuration");
  (* Total well under a second (paper Table 2: < 600 ms). *)
  let total = E.now (S.engine sys) -. t0 in
  Alcotest.(check bool) "total < 1 s" true (total < 1.0)

let test_edge_site_traffic_flows () =
  let sys = build_three_sites () in
  let chain = S.request_chain sys (nat_spec "c") in
  E.run (S.engine sys);
  S.add_edge_site sys ~chain ~site:2;
  E.run (S.engine sys);
  let tuple = Packet.random_tuple (Sb_util.Rng.create 4) in
  match S.probe_chain sys ~chain ~ingress_site:2 tuple with
  | Ok trace ->
    Alcotest.(check (list int)) "traffic from new edge traverses the chain" [ 7 ]
      (Shard.vnfs_in_trace (S.shard sys) trace)
  | Error e -> Alcotest.failf "probe from new edge failed: %a" Shard.pp_error e

let test_log_is_ordered () =
  let sys = build_two_sites () in
  let _ = S.request_chain sys (nat_spec "c") in
  E.run (S.engine sys);
  let times = List.map fst (S.log sys) in
  Alcotest.(check bool) "timestamps non-decreasing" true
    (List.sort compare times = times)

(* -------------- elastic placement: scale-out round trip -------------- *)


(* Scale-out then drain-and-remove must be an identity on every
   observable: committed routes, installed rule keys, admission ledger,
   instance census and balancer behaviour. We run the full lifecycle on
   one system — open a deployment, route through it, carry connections,
   route back off, drain, retract — while a twin system only carries the
   same connections, and compare the two afterwards. The twins stay
   comparable because both see the same packets in the same order, so
   their (seeded) balancer draw streams stay aligned. *)

let build_scale_twin ~lanes ~flow_store () =
  let delay i j = if i = j then 0. else 0.02 in
  let sys =
    S.create ~seed:11 ~flow_store ~lanes ~num_sites:6 ~delay ~gsb_site:0 ()
  in
  List.iter
    (fun (vnf, site) -> S.deploy_vnf sys ~vnf ~site ~capacity:100. ~instances:2)
    [ (0, 1); (0, 2) ];
  S.register_edge sys ~site:0 ~attachment:"in";
  S.register_edge sys ~site:3 ~attachment:"out";
  S.set_route_policy sys (fun _ ~exclude:_ ->
      Some
        [
          { T.element_sites = [| 0; 1; 3 |]; weight = 0.5 };
          { T.element_sites = [| 0; 2; 3 |]; weight = 0.5 };
        ]);
  let chain =
    S.request_chain sys
      {
        T.spec_name = "round-trip";
        ingress_attachment = "in";
        egress_attachment = "out";
        vnfs = [ 0 ];
        traffic = 4.;
      }
  in
  E.run (S.engine sys);
  (sys, chain)

let scale_round_trip ~lanes ~flow_store ~seed ~scale_site =
  let fail fmt = QCheck.Test.fail_reportf fmt in
  let a, ca = build_scale_twin ~lanes ~flow_store () in
  let b, cb = build_scale_twin ~lanes ~flow_store () in
  Fun.protect ~finally:(fun () ->
      Shard.shutdown (S.shard a);
      Shard.shutdown (S.shard b))
  @@ fun () ->
  S.scale_out a ~vnf:0 ~site:scale_site ~capacity:100. ~instances:2;
  S.update_routes a ~chain:ca
    [
      { T.element_sites = [| 0; 1; 3 |]; weight = 0.4 };
      { T.element_sites = [| 0; 2; 3 |]; weight = 0.3 };
      { T.element_sites = [| 0; scale_site; 3 |]; weight = 0.3 };
    ];
  E.run (S.engine a);
  (* The same connections arrive at both twins; on [a] some pin on the
     scaled-out site. *)
  let rng = Sb_util.Rng.create seed in
  for _ = 1 to 10 do
    let tu = Packet.random_tuple rng in
    (match S.probe_chain a ~chain:ca tu with
    | Ok _ -> ()
    | Error e -> fail "mid-lifecycle probe failed on a: %a" Shard.pp_error e);
    match S.probe_chain b ~chain:cb tu with
    | Ok _ -> ()
    | Error e -> fail "mid-lifecycle probe failed on twin: %a" Shard.pp_error e
  done;
  S.update_routes a ~chain:ca
    [
      { T.element_sites = [| 0; 1; 3 |]; weight = 0.5 };
      { T.element_sites = [| 0; 2; 3 |]; weight = 0.5 };
    ];
  E.run (S.engine a);
  let done_ = ref [] in
  S.drain_and_remove a ~vnf:0 ~site:scale_site ~timeout:30.
    ~on_done:(fun ok -> done_ := ok :: !done_) ();
  (* The connections end their lifetime — on both twins alike. *)
  List.iter
    (fun sys ->
      let f = S.shard sys in
      Shard.set_clock f 5;
      ignore (Shard.expire_flows f ~idle_before:5))
    [ a; b ];
  E.run (S.engine a);
  if !done_ <> [ true ] then fail "drain did not complete";
  let ch = S.deployment_churn a in
  if
    ch.S.ch_scale_outs <> 1 || ch.S.ch_removed <> 1
    || ch.S.ch_drains_completed <> 1
    || ch.S.ch_drains_aborted <> 0
    || ch.S.ch_draining <> 0
  then fail "churn ledger off: %d/%d/%d/%d/%d" ch.S.ch_scale_outs ch.S.ch_removed
      ch.S.ch_drains_completed ch.S.ch_drains_aborted ch.S.ch_draining;
  (* State equality with the never-scaled twin. *)
  if S.chain_routes a ~chain:ca <> S.chain_routes b ~chain:cb then
    fail "routes differ after round trip";
  for site = 0 to 5 do
    for vnf = 0 to 0 do
      if
        S.site_vnf_instance_ids a ~site ~vnf
        <> S.site_vnf_instance_ids b ~site ~vnf
      then fail "instance census differs at site %d" site;
      if S.site_vnf_instances a ~site ~vnf <> S.site_vnf_instances b ~site ~vnf
      then fail "live instances/weights differ at site %d" site;
      let la = S.vnf_committed_load a ~vnf ~site
      and lb = S.vnf_committed_load b ~vnf ~site in
      if Float.abs (la -. lb) > 1e-9 then
        fail "committed load differs at site %d: %f vs %f" site la lb
    done;
    (* The scaled site may keep superseded rule versions; everywhere else
       the installed keys must match exactly. *)
    if
      site <> scale_site
      && List.map fst (S.site_installed_rules a ~site)
         <> List.map fst (S.site_installed_rules b ~site)
    then fail "installed rule keys differ at site %d" site
  done;
  (* Behavioural equality: fresh connections balance identically. *)
  let rng = Sb_util.Rng.create (seed + 1) in
  for _ = 1 to 10 do
    let tu = Packet.random_tuple rng in
    match (S.probe_chain a ~chain:ca tu, S.probe_chain b ~chain:cb tu) with
    | Ok ta, Ok tb ->
      if Shard.instances_in_trace ta <> Shard.instances_in_trace tb then
        fail "fresh connection pinned differently after round trip";
      if
        Shard.vnfs_in_trace (S.shard a) ta <> Shard.vnfs_in_trace (S.shard b) tb
      then fail "fresh connection traversed different VNFs"
    | Error e, _ -> fail "post-round-trip probe failed on a: %a" Shard.pp_error e
    | _, Error e ->
      fail "post-round-trip probe failed on twin: %a" Shard.pp_error e
  done;
  true

let prop_scale_round_trip =
  QCheck.Test.make
    ~name:"scale-out then drain-and-remove is an identity (stores x lanes)"
    ~count:12
    QCheck.(pair (int_range 1 10_000) bool)
    (fun (seed, high_site) ->
      let scale_site = if high_site then 5 else 4 in
      List.for_all
        (fun (lanes, flow_store) ->
          scale_round_trip ~lanes ~flow_store ~seed ~scale_site)
        [
          (1, Shard.Local);
          (1, Shard.Replicated 2);
          (4, Shard.Local);
          (4, Shard.Replicated 2);
        ])

let () =
  Alcotest.run "sb_ctrl"
    [
      ( "chain_creation",
        [
          Alcotest.test_case "end to end" `Quick test_chain_creation_end_to_end;
          Alcotest.test_case "dataplane works" `Quick test_chain_dataplane_works;
          Alcotest.test_case "sub-second latency" `Quick test_chain_creation_latency_sub_second;
          Alcotest.test_case "admission accounting" `Quick test_admission_accounting;
          Alcotest.test_case "log ordered" `Quick test_log_is_ordered;
        ] );
      ( "two_phase_commit",
        [
          Alcotest.test_case "reject triggers recompute" `Quick
            test_2pc_reject_triggers_recompute;
          Alcotest.test_case "atomicity" `Quick test_2pc_atomicity_no_partial_commit;
          Alcotest.test_case "stale Prepare never reserves" `Quick
            test_stale_prepare_never_reserves;
          Alcotest.test_case "chains share capacity" `Quick test_two_chains_share_capacity;
        ] );
      ( "dynamic_routes",
        [
          Alcotest.test_case "add route rebalances" `Quick test_add_route_doubles_capacity;
          Alcotest.test_case "update latency" `Quick test_add_route_update_latency;
          Alcotest.test_case "existing flows survive" `Quick
            test_existing_flows_survive_route_addition;
        ] );
      ( "elasticity",
        [
          Alcotest.test_case "forwarder join replays rules" `Quick
            test_add_forwarder_replays_rules;
          Alcotest.test_case "instance scaling rebalances new flows" `Quick
            test_scale_instances_rebalances_new_flows;
          Alcotest.test_case "scaling requires deployment" `Quick test_scale_requires_deployment;
          Alcotest.test_case "split follows route fractions" `Quick
            test_split_follows_route_fractions;
          Alcotest.test_case "instances spread over forwarders" `Quick
            test_instances_spread_over_forwarders;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "chain measurements" `Quick test_chain_measurements;
          Alcotest.test_case "unknown chain" `Quick test_measurements_unknown_chain;
        ] );
      ( "fault_tolerance",
        [
          Alcotest.test_case "GSB failover via MUSIC" `Quick test_gsb_failover_recovers_chains;
          Alcotest.test_case "GSB dies between prepare and commit" `Quick
            test_gsb_dies_between_prepare_and_commit;
        ] );
      ( "edge_sites",
        [
          Alcotest.test_case "addition steps (Table 2)" `Quick test_edge_site_addition_steps;
          Alcotest.test_case "traffic flows from new edge" `Quick test_edge_site_traffic_flows;
        ] );
      ("placement_lifecycle", [ QCheck_alcotest.to_alcotest prop_scale_round_trip ]);
    ]
