(* The rule compiler (Sb_ctrl.Compile) and the delta rollout built on it.

   The load-bearing property is EQUIVALENCE: incremental ≡ replay from
   empty. A system driven through a random op soup (chain requests, route
   updates, bursts that exercise the queued-delta composition, instance
   scaling) must end in exactly the state of a fresh twin that installs
   the same final routes in one commit per chain — a full delta from the
   empty diagram: identical packed rule arrays on every forwarder,
   identical probe traces, identical stage counters. On failure qcheck
   shrinks the op seed. *)

module S = Sb_ctrl.System
module T = Sb_ctrl.Types
module C = Sb_ctrl.Compile
module E = Sb_sim.Engine
module DP = Sb_dataplane.Shard
module Packet = Sb_dataplane.Packet
module Rng = Sb_util.Rng

let delay30 a b = if a = b then 0. else 0.030

(* ------------------------- Compile unit tests ------------------------ *)

let spec ?(traffic = 5.0) name vnfs =
  {
    T.spec_name = name;
    ingress_attachment = "att-0";
    egress_attachment = "att-3";
    vnfs;
    traffic;
  }

let route sites w = { T.element_sites = Array.of_list sites; weight = w }

let test_sharing_across_chains () =
  (* Two chains with identical routes share every spine node and action. *)
  let t = C.empty () in
  let sp = spec "a" [ 7; 8 ] in
  let routes = [ route [ 0; 1; 2; 3 ] 1.0 ] in
  let p1 = C.prepare t ~chain:1 ~spec:sp ~routes in
  let t = C.commit t ~chain:1 p1 in
  let s1 = C.stats t in
  let p2 = C.prepare t ~chain:2 ~spec:sp ~routes in
  let t = C.commit t ~chain:2 p2 in
  let s2 = C.stats t in
  Alcotest.(check int) "3 stages interned once" 3 s1.C.nodes;
  Alcotest.(check int) "second chain adds no nodes" s1.C.nodes s2.C.nodes;
  Alcotest.(check int) "second chain adds no actions" s1.C.actions s2.C.actions;
  Alcotest.(check int) "stage total counts both" 6 s2.C.stages_total

let test_suffix_sharing () =
  (* Chains differing only in stage 0 share the stage-1.. suffix. *)
  let t = C.empty () in
  let sp = spec "a" [ 7; 8 ] in
  let p1 = C.prepare t ~chain:1 ~spec:sp ~routes:[ route [ 0; 1; 2; 3 ] 1.0 ] in
  let t = C.commit t ~chain:1 p1 in
  let n1 = (C.stats t).C.nodes in
  let p2 = C.prepare t ~chain:2 ~spec:sp ~routes:[ route [ 5; 1; 2; 3 ] 1.0 ] in
  let t = C.commit t ~chain:2 p2 in
  let n2 = (C.stats t).C.nodes in
  Alcotest.(check int) "only stage 0 differs: one extra node" (n1 + 1) n2

let test_delta_only_changed_stages () =
  let t = C.empty () in
  let sp = spec "a" [ 7; 8 ] in
  let p1 = C.prepare t ~chain:1 ~spec:sp ~routes:[ route [ 0; 1; 2; 3 ] 1.0 ] in
  let t = C.commit t ~chain:1 p1 in
  (* Move only the last hop: stage 2's transition changes, stages 0-1 keep
     their interned nodes... but the spine is keyed by tail, so stage 0/1
     nodes change identity while their ACTIONS are equal — the diff walks
     until the node ids meet and emits only stages whose action moved. *)
  let p2 = C.prepare t ~chain:1 ~spec:sp ~routes:[ route [ 0; 1; 2; 4 ] 1.0 ] in
  let d = C.delta_from_committed t p2 in
  Alcotest.(check bool) "not full" false d.T.cd_full;
  Alcotest.(check int) "base 1" 1 d.T.cd_base;
  Alcotest.(check int) "target 2" 2 d.T.cd_target;
  Alcotest.(check (list int)) "only stage 2 shipped" [ 2 ]
    (List.map (fun sd -> sd.T.sd_stage) d.T.cd_stages);
  (* Demand: vnf 7 at site 1 and vnf 8 at site 2 are untouched; no rows. *)
  Alcotest.(check (list int)) "no demand rows" []
    (List.map fst d.T.cd_demand)

let test_delta_full_on_vnf_set_change () =
  let t = C.empty () in
  let p1 = C.prepare t ~chain:1 ~spec:(spec "a" [ 7 ]) ~routes:[ route [ 0; 1; 2 ] 1.0 ] in
  let t = C.commit t ~chain:1 p1 in
  let p2 =
    C.prepare t ~chain:1 ~spec:(spec "a" [ 7; 8 ]) ~routes:[ route [ 0; 1; 1; 2 ] 1.0 ]
  in
  let d = C.delta_from_committed t p2 in
  Alcotest.(check bool) "full delta" true d.T.cd_full;
  Alcotest.(check int) "all stages shipped" 3 (List.length d.T.cd_stages)

let test_compose_merges_stages () =
  let t = C.empty () in
  let sp = spec "a" [ 7; 8 ] in
  let r0 = [ route [ 0; 1; 2; 3 ] 1.0 ] in
  let r1 = [ route [ 5; 1; 2; 3 ] 1.0 ] (* changes stage 0 *) in
  let r2 = [ route [ 5; 1; 2; 4 ] 1.0 ] (* changes stage 2 on top *) in
  let p0 = C.prepare t ~chain:1 ~spec:sp ~routes:r0 in
  let t = C.commit t ~chain:1 p0 in
  let p1 = C.prepare t ~chain:1 ~spec:sp ~routes:r1 in
  let d1 = C.delta_from_committed t p1 in
  let p2 = C.prepare ~version:(C.prepared_version p1 + 1) t ~chain:1 ~spec:sp ~routes:r2 in
  let d2 = C.delta_between t ~base:p1 ~target:p2 in
  let d = C.compose d1 d2 in
  Alcotest.(check int) "base is older's" 1 d.T.cd_base;
  Alcotest.(check int) "target is newer's" 3 d.T.cd_target;
  Alcotest.(check (list int)) "both changed stages" [ 0; 2 ]
    (List.map (fun sd -> sd.T.sd_stage) d.T.cd_stages);
  (* Same stage in both: the newer transition wins. *)
  let p3 = C.prepare ~version:4 t ~chain:1 ~spec:sp ~routes:r0 in
  let d3 = C.delta_between t ~base:p2 ~target:p3 in
  let dd = C.compose d d3 in
  (match List.find_opt (fun sd -> sd.T.sd_stage = 0) dd.T.cd_stages with
  | Some sd -> Alcotest.(check bool) "newer stage-0 row wins" true (sd.T.sd_tr = [| (0, 1, 1.0) |])
  | None -> Alcotest.fail "stage 0 missing from composed delta")

(* ------------------- Admission demand rows (reference) --------------- *)

(* The uncompiled per-site demand of one VNF, as VNF controllers once
   recomputed it from a full route set on every Prepare: [cur +. w*T] in
   route-list order per site, rows sorted by site. Compiled deltas ship
   [Compile.demands_of_routes] instead, which must reproduce these floats
   bit for bit, or an admission decision could flip. *)
let vnf_demand_per_site sp routes vnf =
  let elements = Array.of_list ((-1) :: sp.T.vnfs @ [ -2 ]) in
  let demand = Hashtbl.create 4 in
  List.iter
    (fun r ->
      Array.iteri
        (fun z v ->
          if v = vnf then begin
            let s = r.T.element_sites.(z) in
            let cur = try Hashtbl.find demand s with Not_found -> 0. in
            Hashtbl.replace demand s (cur +. (r.T.weight *. sp.T.traffic))
          end)
        elements)
    routes;
  Hashtbl.fold (fun s l acc -> (s, l) :: acc) demand [] |> List.sort compare

let gen_spec_routes =
  QCheck.Gen.(
    let* vnfs = list_size (int_range 1 4) (int_range 0 5) in
    let* traffic = float_range 0.01 50. in
    let sites = list_repeat (List.length vnfs + 2) (int_range 0 5) in
    let* routes = list_size (int_range 1 5) (map2 route sites (float_range 0. 1.)) in
    return ({ (spec "p" vnfs) with T.traffic }, routes))

let prop_demands_match_reference =
  QCheck.Test.make ~name:"demands_of_routes = per-VNF reference, bit for bit" ~count:300
    (QCheck.make gen_spec_routes) (fun (sp, routes) ->
      let bits rows = List.map (fun (s, l) -> (s, Int64.bits_of_float l)) rows in
      List.map (fun (vnf, rows) -> (vnf, bits rows)) (C.demands_of_routes sp routes)
      = List.map
          (fun vnf -> (vnf, bits (vnf_demand_per_site sp routes vnf)))
          (List.sort_uniq compare sp.T.vnfs))

(* ------------- Incremental vs replay-from-empty equivalence ---------- *)

(* Fixed topology: 4 sites, edges everywhere, vnfs 7/8/9 deployed at every
   site with capacity generous enough that most op soups commit but tight
   enough that some admission rejects (and their abort/recompute paths)
   occur. *)
let num_sites = 4
let vnf_pool = [| 7; 8; 9 |]

let build ~flow_store =
  let sys = S.create ~seed:42 ~flow_store ~num_sites ~delay:delay30 ~gsb_site:0 () in
  Array.iter
    (fun vnf ->
      for site = 0 to num_sites - 1 do
        S.deploy_vnf sys ~vnf ~site ~capacity:30. ~instances:2
      done)
    vnf_pool;
  for site = 0 to num_sites - 1 do
    S.register_edge sys ~site ~attachment:(Printf.sprintf "att-%d" site)
  done;
  sys

(* Route policy: deterministic function of the spec, spreading VNFs over
   the sites not excluded; falls back through sites on rejects. *)
let policy sp ~exclude =
  let place vnf salt =
    let rec pick k =
      if k >= num_sites then None
      else
        let site = (vnf + salt + k) mod num_sites in
        if List.mem (vnf, site) exclude then pick (k + 1) else Some site
    in
    pick 0
  in
  let mk salt w =
    let mids = List.map (fun v -> place v salt) sp.T.vnfs in
    if List.exists (fun s -> s = None) mids then None
    else
      Some
        (route ((0 :: List.map Option.get mids) @ [ num_sites - 1 ]) w)
  in
  match (mk 0 0.75, mk 1 0.25) with
  | Some a, Some b -> Some [ a; b ]
  | Some a, None -> Some [ { a with T.weight = 1.0 } ]
  | None, Some b -> Some [ { b with T.weight = 1.0 } ]
  | None, None -> None

(* The op soup: a deterministic op list from one integer seed. `Burst`
   issues several updates
   back-to-back with no engine run between them — the first enters 2PC,
   the rest hit the queue and exercise Compile.compose. *)
type op =
  | Request of T.chain_spec
  | Update of int * int (* chain index, route salt *)
  | Burst of int * int list (* chain index, route salts *)
  | Scale of int * int (* vnf index, site *)
  | Run

let gen_ops seed =
  let rng = Rng.create seed in
  let nops = 4 + Rng.int rng 8 in
  let nchains = ref 0 in
  List.concat
    (List.init nops (fun _ ->
         match Rng.int rng 10 with
         | 0 | 1 | 2 ->
           let nvnfs = 1 + Rng.int rng 3 in
           let vnfs = List.init nvnfs (fun _ -> vnf_pool.(Rng.int rng 3)) in
           incr nchains;
           [ Request (spec ~traffic:(1. +. float_of_int (Rng.int rng 4)) "c" vnfs); Run ]
         | 3 | 4 | 5 when !nchains > 0 -> [ Update (Rng.int rng !nchains, Rng.int rng 97); Run ]
         | 6 | 7 when !nchains > 0 ->
           let n = 2 + Rng.int rng 3 in
           [ Burst (Rng.int rng !nchains, List.init n (fun _ -> Rng.int rng 97)); Run ]
         | 8 when !nchains > 0 -> [ Scale (Rng.int rng 3, Rng.int rng num_sites) ]
         | _ -> [ Run ]))

(* A route set variant for updates: reshuffle middle sites by salt. *)
let routes_for sys ~chain salt =
  match S.chain_spec sys ~chain with
  | None -> None
  | Some sp ->
    let mk salt w =
      route
        ((0 :: List.map (fun v -> (v + salt) mod num_sites) sp.T.vnfs)
        @ [ num_sites - 1 ])
        w
    in
    Some [ mk salt 0.5; mk (salt + 1) 0.5 ]

let apply_op sys chains op =
  match op with
  | Request sp -> chains := !chains @ [ S.request_chain sys sp ]
  | Update (ci, salt) -> (
    let chain = List.nth !chains ci in
    match routes_for sys ~chain salt with
    | Some routes -> S.update_routes sys ~chain routes
    | None -> ())
  | Burst (ci, salts) ->
    let chain = List.nth !chains ci in
    List.iter
      (fun salt ->
        match routes_for sys ~chain salt with
        | Some routes -> S.update_routes sys ~chain routes
        | None -> ())
      salts
  | Scale (vi, site) -> S.scale_vnf_instances sys ~vnf:vnf_pool.(vi) ~site ~count:1
  | Run -> E.run (S.engine sys)

let run_soup sys ops =
  let chains = ref [] in
  List.iter (apply_op sys chains) ops;
  E.run (S.engine sys);
  !chains

(* Compare everything observable about the two systems' final states. *)
let check_equivalent ~msg a b chains =
  Alcotest.(check int) (msg ^ ": quiesced a") 0 (S.txns_in_flight a);
  Alcotest.(check int) (msg ^ ": quiesced b") 0 (S.txns_in_flight b);
  List.iter
    (fun chain ->
      Alcotest.(check int)
        (Printf.sprintf "%s: chain %d same route count" msg chain)
        (List.length (S.chain_routes a ~chain))
        (List.length (S.chain_routes b ~chain));
      Alcotest.(check bool)
        (Printf.sprintf "%s: chain %d same routes" msg chain)
        true
        (S.chain_routes a ~chain = S.chain_routes b ~chain))
    chains;
  (* Control view: every site's installed-rule table. *)
  for site = 0 to num_sites - 1 do
    let ra = S.site_installed_rules a ~site and rb = S.site_installed_rules b ~site in
    Alcotest.(check bool)
      (Printf.sprintf "%s: site %d installed rules equal" msg site)
      true (ra = rb);
    (* Data plane: the packed rule arrays behind each installed key, on
       every forwarder of the site (tx and rx sides). *)
    List.iter
      (fun ((chain, egress, stage), _) ->
        List.iter
          (fun fwd ->
            let get sys sel =
              sel (S.shard sys) ~forwarder:fwd ~chain_label:chain
                ~egress_label:egress ~stage
            in
            Alcotest.(check bool)
              (Printf.sprintf "%s: fwd %d rule c%d s%d equal" msg fwd chain stage)
              true
              (get a DP.rule = get b DP.rule);
            Alcotest.(check bool)
              (Printf.sprintf "%s: fwd %d rx rule c%d s%d equal" msg fwd chain stage)
              true
              (get a DP.rx_rule = get b DP.rx_rule))
          (S.site_forwarders a site))
      ra
  done;
  (* Probes: identical tuple streams must take identical paths and leave
     identical stage counters. *)
  let rng = Rng.create 7 in
  let tuples = Array.init 32 (fun _ -> Packet.random_tuple rng) in
  List.iter
    (fun chain ->
      Array.iter
        (fun tuple ->
          let ta = S.probe_chain a ~chain tuple and tb = S.probe_chain b ~chain tuple in
          Alcotest.(check bool)
            (Printf.sprintf "%s: chain %d trace equal" msg chain)
            true (ta = tb))
        tuples;
      Alcotest.(check bool)
        (Printf.sprintf "%s: chain %d stage counters equal" msg chain)
        true
        (S.chain_measurements a ~chain = S.chain_measurements b ~chain))
    chains

(* The replay-from-empty twin of [a]: a fresh system applies [ops]'
   instance scaling in order, then requests each of [a]'s chains with a
   policy returning [a]'s final routes — one full-delta commit per chain
   (a chain [a] never committed gets no route in the twin either). *)
let replay_from_empty ~flow_store a ops chains =
  let b = build ~flow_store in
  List.iter
    (function
      | Scale (vi, site) -> S.scale_vnf_instances b ~vnf:vnf_pool.(vi) ~site ~count:1
      | Request _ | Update _ | Burst _ | Run -> ())
    ops;
  let cb =
    List.map
      (fun chain ->
        let routes = S.chain_routes a ~chain in
        S.set_route_policy b (fun _ ~exclude:_ ->
            if routes = [] then None else Some routes);
        let c = S.request_chain b (Option.get (S.chain_spec a ~chain)) in
        E.run (S.engine b);
        c)
      chains
  in
  Alcotest.(check (list int)) "same chain ids" chains cb;
  b

let equivalence_once ~flow_store seed =
  let ops = gen_ops seed in
  let a = build ~flow_store in
  S.set_route_policy a policy;
  let chains = run_soup a ops in
  let b = replay_from_empty ~flow_store a ops chains in
  check_equivalent ~msg:(Printf.sprintf "seed %d" seed) a b chains;
  true

let prop_equivalence_local =
  QCheck.Test.make ~name:"delta rollout = full reinstall (Local store)" ~count:30
    QCheck.(int_range 0 1_000_000)
    (equivalence_once ~flow_store:DP.Local)

let prop_equivalence_replicated =
  QCheck.Test.make ~name:"delta rollout = full reinstall (Replicated 2)" ~count:10
    QCheck.(int_range 0 1_000_000)
    (equivalence_once ~flow_store:(DP.Replicated 2))

(* Queued-delta composition regression: three updates back-to-back — the
   first is in flight, the second queues, the third supersedes the queued
   one. The composed delta must carry BOTH updates' changed stages; a
   replace (the old queue semantics) would ship a delta missing the
   second update's stages and the per-site rules would diverge from the
   replay-from-empty twin. *)
let test_queued_composition_regression () =
  let a = build ~flow_store:DP.Local in
  S.set_route_policy a policy;
  let chain = S.request_chain a (spec "c" [ 7; 8 ]) in
  E.run (S.engine a);
  (* Back-to-back: no engine run in between. *)
  List.iter
    (fun salt ->
      match routes_for a ~chain salt with
      | Some routes -> S.update_routes a ~chain routes
      | None -> assert false)
    [ 1; 2; 3 ];
  E.run (S.engine a);
  let b = replay_from_empty ~flow_store:DP.Local a [] [ chain ] in
  check_equivalent ~msg:"queued-composition" a b [ chain ];
  (* The delta path really was exercised: the final committed version is
     1 (create) + 2 (first update in flight, then the composed queued
     one) = 3 on every site that learned the chain. *)
  for site = 0 to num_sites - 1 do
    match S.site_chain_version a ~site ~chain with
    | Some v ->
      Alcotest.(check int) (Printf.sprintf "site %d at version 3" site) 3 v
    | None -> ()
  done

(* 2%-churn epoch: with 50 chains committed and 1 updated, the bytes the
   delta rollout puts on the wide area must be <= 5% of the full rule
   set's, priced as the wide-area bytes of committing the same 50 chains
   from empty. wan_bytes is the right meter: the retained full
   Route_update kept as a heal point has no subscribers and so never
   crosses the wide area. *)
let test_churn_bytes_ratio () =
  let sys = build ~flow_store:DP.Local in
  S.set_route_policy sys policy;
  S.set_logging sys false;
  let bus = S.bus sys in
  let wan_bytes () = (Sb_msgbus.Bus.stats bus).Sb_msgbus.Bus.wan_bytes in
  (* Full rule set: the 50 chains committed from the empty diagram. *)
  Sb_msgbus.Bus.reset_stats bus;
  let chains =
    List.init 50 (fun i ->
        let sp = spec ~traffic:0.1 (Printf.sprintf "c%d" i) [ 7; 8; 9 ] in
        let c = S.request_chain sys sp in
        E.run (S.engine sys);
        c)
  in
  let full = wan_bytes () in
  (* Churn epoch: 1 of the 50 chains updated. *)
  Sb_msgbus.Bus.reset_stats bus;
  (match routes_for sys ~chain:(List.nth chains 7) 1 with
  | Some routes -> S.update_routes sys ~chain:(List.nth chains 7) routes
  | None -> assert false);
  E.run (S.engine sys);
  let delta = wan_bytes () in
  Alcotest.(check bool)
    (Printf.sprintf "2%%-churn delta bytes (%d) <= 5%% of full rule set (%d)" delta full)
    true
    (float_of_int delta <= 0.05 *. float_of_int full)

let () =
  Alcotest.run "sb_compile"
    [
      ( "compile",
        [
          Alcotest.test_case "sharing across chains" `Quick test_sharing_across_chains;
          Alcotest.test_case "suffix sharing" `Quick test_suffix_sharing;
          Alcotest.test_case "delta: changed stages only" `Quick
            test_delta_only_changed_stages;
          Alcotest.test_case "delta: full on vnf-set change" `Quick
            test_delta_full_on_vnf_set_change;
          Alcotest.test_case "compose merges stages" `Quick test_compose_merges_stages;
          QCheck_alcotest.to_alcotest prop_demands_match_reference;
        ] );
      ( "equivalence",
        [
          QCheck_alcotest.to_alcotest prop_equivalence_local;
          QCheck_alcotest.to_alcotest prop_equivalence_replicated;
          Alcotest.test_case "queued-delta composition" `Quick
            test_queued_composition_regression;
          Alcotest.test_case "2% churn ships <= 5% of full bytes" `Quick
            test_churn_bytes_ratio;
        ] );
    ]
