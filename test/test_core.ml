module Model = Sb_core.Model
module Routing = Sb_core.Routing
module Load_state = Sb_core.Load_state
module Greedy = Sb_core.Greedy
module Dp = Sb_core.Dp_routing
module Lpr = Sb_core.Lp_routing
module Eval = Sb_core.Eval
module Workload = Sb_core.Workload
module Capacity = Sb_core.Capacity
module Placement = Sb_core.Placement
module Topology = Sb_net.Topology

(* ---------------------------- fixtures ----------------------------- *)

(* Line topology 0 - 1 - 2 with sites everywhere, two VNFs. *)
let small_model ?(fwd = 2.) ?(rev = 1.) () =
  let topo = Topology.line ~delays:[ 0.01; 0.02 ] ~bandwidth:100. in
  let b = Model.builder topo in
  let s0 = Model.add_site b ~node:0 ~capacity:100. in
  let s1 = Model.add_site b ~node:1 ~capacity:100. in
  let s2 = Model.add_site b ~node:2 ~capacity:100. in
  let f0 = Model.add_vnf b ~name:"fw" ~cpu_per_unit:1. in
  let f1 = Model.add_vnf b ~name:"nat" ~cpu_per_unit:2. in
  Model.deploy b ~vnf:f0 ~site:s0 ~capacity:50.;
  Model.deploy b ~vnf:f0 ~site:s1 ~capacity:50.;
  Model.deploy b ~vnf:f1 ~site:s1 ~capacity:50.;
  Model.deploy b ~vnf:f1 ~site:s2 ~capacity:50.;
  let c = Model.add_chain b ~ingress:0 ~egress:2 ~vnfs:[ f0; f1 ] ~fwd ~rev () in
  (Model.finalize b (), c, f0, f1)

let synth_model ?(seed = 42) ?(params = Workload.default) () =
  let rng = Sb_util.Rng.create seed in
  let topo = Topology.backbone ~rng ~num_core:5 ~pops_per_core:2 () in
  Workload.synthesize ~rng topo params

let check_valid name r =
  match Routing.validate r with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Printf.sprintf "%s: invalid routing: %s" name e)

(* A stage's flows [(src, dst, frac)] in insertion order. *)
let stage_flows r ~chain ~stage =
  let flows = ref [] in
  Routing.iter_stage r ~chain ~stage (fun s d f -> flows := (s, d, f) :: !flows);
  List.rev !flows

(* ------------------------------ model ------------------------------ *)

let test_model_accessors () =
  let m, c, f0, f1 = small_model () in
  Alcotest.(check int) "sites" 3 (Model.num_sites m);
  Alcotest.(check int) "vnfs" 2 (Model.num_vnfs m);
  Alcotest.(check int) "chains" 1 (Model.num_chains m);
  Alcotest.(check int) "chain length" 2 (Model.chain_length m c);
  Alcotest.(check int) "stages" 3 (Model.num_stages m c);
  Alcotest.(check (list int)) "stage 0 src = ingress" [ 0 ]
    (Model.stage_src_nodes m ~chain:c ~stage:0);
  Alcotest.(check (list int)) "stage 0 dst = f0 sites" [ 0; 1 ]
    (Model.stage_dst_nodes m ~chain:c ~stage:0);
  Alcotest.(check (list int)) "stage 2 dst = egress" [ 2 ]
    (Model.stage_dst_nodes m ~chain:c ~stage:2);
  Alcotest.(check (option int)) "stage 0 vnf" (Some f0) (Model.stage_dst_vnf m ~chain:c ~stage:0);
  Alcotest.(check (option int)) "stage 1 vnf" (Some f1) (Model.stage_dst_vnf m ~chain:c ~stage:1);
  Alcotest.(check (option int)) "stage 2 vnf" None (Model.stage_dst_vnf m ~chain:c ~stage:2)

let test_model_total_demand () =
  let m, _, _, _ = small_model ~fwd:2. ~rev:1. () in
  (* 3 stages x (2 + 1). *)
  Alcotest.(check (float 1e-9)) "demand" 9. (Model.total_demand m)

let test_model_scaling () =
  let m, c, _, _ = small_model () in
  let m2 = Model.with_scaled_traffic m 2.5 in
  Alcotest.(check (float 1e-9)) "scaled stage traffic" 5.
    (Model.fwd_traffic m2 ~chain:c ~stage:0);
  Alcotest.(check (float 1e-9)) "original untouched" 2.
    (Model.fwd_traffic m ~chain:c ~stage:0)

let test_model_capacity_delta () =
  let m, _, _, _ = small_model () in
  let m2 = Model.with_site_capacity_delta m [| 10.; 0.; 0. |] in
  Alcotest.(check (float 1e-9)) "site capacity grew" 110. (Model.site_capacity m2 0);
  (* VNF at site 0 scales proportionally: 50 * 1.1 = 55. *)
  Alcotest.(check (float 1e-9)) "m_sf scaled" 55. (Model.vnf_site_capacity m2 ~vnf:0 ~site:0)

let test_model_extra_deployments () =
  let m, _, f0, _ = small_model () in
  let m2 = Model.with_extra_deployments m [ (f0, 2, 25.) ] in
  Alcotest.(check (float 1e-9)) "new deployment" 25. (Model.vnf_site_capacity m2 ~vnf:f0 ~site:2);
  Alcotest.(check (float 0.)) "original unchanged" 0. (Model.vnf_site_capacity m ~vnf:f0 ~site:2);
  (* Existing deployments preserved. *)
  let m3 = Model.with_extra_deployments m [ (f0, 0, 999.) ] in
  Alcotest.(check (float 1e-9)) "existing kept" 50. (Model.vnf_site_capacity m3 ~vnf:f0 ~site:0)

let test_model_validation () =
  let topo = Topology.line ~delays:[ 0.01 ] ~bandwidth:10. in
  let b = Model.builder topo in
  let _s = Model.add_site b ~node:0 ~capacity:10. in
  Alcotest.check_raises "duplicate site"
    (Invalid_argument "Model.add_site: node already has a site") (fun () ->
      ignore (Model.add_site b ~node:0 ~capacity:5.));
  let v = Model.add_vnf b ~name:"x" ~cpu_per_unit:1. in
  Alcotest.check_raises "chain with undeployed vnf"
    (Invalid_argument "Model.add_chain: vnf has no deployment") (fun () ->
      ignore (Model.add_chain b ~ingress:0 ~egress:1 ~vnfs:[ v ] ~fwd:1. ()))

(* --------------------------- routing/eval -------------------------- *)

let test_routing_single_path_valid () =
  let m, c, _, _ = small_model () in
  let r = Routing.create m in
  Routing.add_path r ~chain:c ~nodes:[| 0; 0; 1; 2 |] ~frac:1.0;
  check_valid "single path" r

let test_routing_split_valid () =
  let m, c, _, _ = small_model () in
  let r = Routing.create m in
  Routing.add_path r ~chain:c ~nodes:[| 0; 0; 1; 2 |] ~frac:0.5;
  Routing.add_path r ~chain:c ~nodes:[| 0; 1; 2; 2 |] ~frac:0.5;
  check_valid "split path" r

let test_routing_detects_underflow () =
  let m, c, _, _ = small_model () in
  let r = Routing.create m in
  Routing.add_path r ~chain:c ~nodes:[| 0; 0; 1; 2 |] ~frac:0.7;
  match Routing.validate r with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected fractions-sum violation"

let test_routing_detects_bad_site () =
  let m, c, _, _ = small_model () in
  let r = Routing.create m in
  (* f0 is not deployed at node 2. *)
  Routing.add_path r ~chain:c ~nodes:[| 0; 2; 2; 2 |] ~frac:1.0;
  match Routing.validate r with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected invalid VNF site"

let test_routing_detects_conservation_violation () =
  let m, c, _, _ = small_model () in
  let r = Routing.create m in
  Routing.append_flow r ~chain:c ~stage:0 ~src:0 ~dst:0 ~frac:1.0;
  Routing.append_flow r ~chain:c ~stage:1 ~src:1 ~dst:1 ~frac:1.0; (* flow teleports 0 -> 1 *)
  Routing.append_flow r ~chain:c ~stage:2 ~src:1 ~dst:2 ~frac:1.0;
  match Routing.validate r with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected conservation violation"

let test_routing_alpha_bottleneck () =
  let m, c, _, _ = small_model ~fwd:2. ~rev:1. () in
  let r = Routing.create m in
  Routing.add_path r ~chain:c ~nodes:[| 0; 1; 1; 2 |] ~frac:1.0;
  (* f1 at site 1: load = l_f(2) * (w+v)(3) * (in + out = 2) = 12; cap 50 ->
     vnf alpha 50/12. Site 1 load: f0: 1*3*2=6 plus f1 12 = 18; site alpha
     100/18. Links fine. Overall alpha = min = 50/12. *)
  Alcotest.(check (float 1e-6)) "alpha" (50. /. 12.) (Routing.max_alpha r)

let test_routing_load_state_counts () =
  let m, c, _, _ = small_model ~fwd:2. ~rev:1. () in
  let r = Routing.create m in
  Routing.add_path r ~chain:c ~nodes:[| 0; 1; 1; 2 |] ~frac:1.0;
  let st = Routing.load_state r in
  Alcotest.(check (float 1e-9)) "f0@1 load" 6. (Load_state.vnf_load st ~vnf:0 ~site:1);
  Alcotest.(check (float 1e-9)) "f1@1 load" 12. (Load_state.vnf_load st ~vnf:1 ~site:1);
  Alcotest.(check (float 1e-9)) "site1 load" 18. (Load_state.site_load st 1)

let test_routing_latency_propagation () =
  let m, c, _, _ = small_model ~fwd:1. ~rev:0. () in
  let r = Routing.create m in
  Routing.add_path r ~chain:c ~nodes:[| 0; 0; 1; 2 |] ~frac:1.0;
  (* Stage delays: 0->0 = 0, 0->1 = 0.01, 1->2 = 0.02; weighted mean over 3
     stages each with traffic 1: (0 + 0.01 + 0.02)/3. *)
  Alcotest.(check (float 1e-9)) "propagation latency" 0.01 (Routing.propagation_latency r)

let test_routing_queueing_saturation () =
  let m, c, _, _ = small_model () in
  let r = Routing.create m in
  Routing.add_path r ~chain:c ~nodes:[| 0; 0; 1; 2 |] ~frac:1.0;
  let lat = Routing.mean_latency ~alpha:100. r in
  Alcotest.(check bool) "saturated latency infinite" true (lat = infinity)

let test_decompose_roundtrip () =
  let m, c, _, _ = small_model () in
  let r = Routing.create m in
  Routing.add_path r ~chain:c ~nodes:[| 0; 0; 1; 2 |] ~frac:0.3;
  Routing.add_path r ~chain:c ~nodes:[| 0; 1; 2; 2 |] ~frac:0.7;
  let paths = Routing.decompose_paths r ~chain:c in
  let total = List.fold_left (fun acc (_, f) -> acc +. f) 0. paths in
  Alcotest.(check (float 1e-6)) "fractions recovered" 1.0 total;
  List.iter
    (fun (nodes, _) -> Alcotest.(check int) "path length" 4 (Array.length nodes))
    paths

(* Machine-independent cost of one decompose_paths sweep over the 40
   SB-DP chains of the 25-site backbone (206 stage flows, 40 paths): minor
   words allocated. The list-walking decomposition took 8,462; the sweep
   over the packed stores takes 2,842, pinned here with 25 % headroom. *)
let test_decompose_minor_words () =
  let m = Sb_adapt.Scenario.backbone25 Sb_adapt.Scenario.default_config in
  let r = Dp.solve m in
  let n = Model.num_chains m in
  let sweep () =
    for c = 0 to n - 1 do
      ignore (Routing.decompose_paths r ~chain:c)
    done
  in
  sweep ();
  let before = Gc.minor_words () in
  sweep ();
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) (Printf.sprintf "%.0f minor words <= 1.25 x 2,842" words) true
    (words <= 1.25 *. 2842.)

let test_decompose_lp_routing () =
  let m = synth_model () in
  match Lpr.solve m Lpr.Max_throughput with
  | Error e -> Alcotest.fail e
  | Ok { routing; _ } ->
    for c = 0 to Model.num_chains m - 1 do
      let paths = Routing.decompose_paths routing ~chain:c in
      let total = List.fold_left (fun acc (_, f) -> acc +. f) 0. paths in
      Alcotest.(check (float 1e-4)) "decomposition preserves flow" 1.0 total
    done


let test_model_chain_traffic_factors () =
  let m = synth_model () in
  let n = Model.num_chains m in
  let factors = Array.init n (fun i -> if i = 0 then 2. else 1.) in
  let m2 = Model.with_chain_traffic_factors m factors in
  Alcotest.(check (float 1e-9)) "chain 0 doubled"
    (2. *. Model.fwd_traffic m ~chain:0 ~stage:0)
    (Model.fwd_traffic m2 ~chain:0 ~stage:0);
  Alcotest.(check (float 1e-9)) "chain 1 untouched"
    (Model.fwd_traffic m ~chain:1 ~stage:0)
    (Model.fwd_traffic m2 ~chain:1 ~stage:0);
  Alcotest.check_raises "arity"
    (Invalid_argument "Model.with_chain_traffic_factors: arity mismatch") (fun () ->
      ignore (Model.with_chain_traffic_factors m [| 1. |]))

let test_model_failed_links () =
  let m, c, _, _ = small_model () in
  (* Fail both directions of the 0-1 hop: nodes 0 and 1 disconnect. *)
  let topo = Model.topology m in
  let doomed =
    Array.to_list (Sb_net.Topology.links topo)
    |> List.filter (fun (l : Sb_net.Topology.link) ->
           (l.Sb_net.Topology.src = 0 && l.Sb_net.Topology.dst = 1)
           || (l.Sb_net.Topology.src = 1 && l.Sb_net.Topology.dst = 0))
    |> List.map (fun (l : Sb_net.Topology.link) -> l.Sb_net.Topology.id)
  in
  let m2 = Model.with_failed_links m doomed in
  let p = Model.paths m2 in
  Alcotest.(check bool) "0 and 1 disconnected" false (Sb_net.Paths.reachable p 0 1);
  Alcotest.(check bool) "1 and 2 still connected" true (Sb_net.Paths.reachable p 1 2);
  Alcotest.(check int) "two links removed"
    (Sb_net.Topology.num_links topo - 2)
    (Sb_net.Topology.num_links (Model.topology m2));
  (* The original model is untouched. *)
  Alcotest.(check bool) "original intact" true
    (Sb_net.Paths.reachable (Model.paths m) 0 1);
  ignore c

let test_model_failed_links_preserves_background () =
  let m = synth_model () in
  let total_bg m' =
    let topo = Model.topology m' in
    let acc = ref 0. in
    for e = 0 to Sb_net.Topology.num_links topo - 1 do
      acc := !acc +. Model.background m' e
    done;
    !acc
  in
  (* Find a link with background traffic and fail a different one. *)
  let m2 = Model.with_failed_links m [ 0; 1 ] in
  let lost = Model.background m 0 +. Model.background m 1 in
  Alcotest.(check (float 1e-6)) "surviving background preserved"
    (total_bg m -. lost) (total_bg m2)

let test_model_failed_sites () =
  let m, c, f0, f1 = small_model () in
  let m2 = Model.with_failed_sites m [ 1 ] in
  Alcotest.(check (float 0.)) "f0@1 gone" 0. (Model.vnf_site_capacity m2 ~vnf:f0 ~site:1);
  Alcotest.(check (float 1e-9)) "f0@0 survives" 50. (Model.vnf_site_capacity m2 ~vnf:f0 ~site:0);
  (* f1 only remains at site 2; routing must adapt. *)
  Alcotest.(check (list int)) "stage 1 candidates shrink" [ 2 ]
    (Model.stage_dst_nodes m2 ~chain:c ~stage:1);
  let r = Dp.solve m2 in
  check_valid "dp on degraded model" r;
  ignore f1

let test_failure_reduces_throughput () =
  let params = { Workload.default with Workload.coverage = 0.4; num_chains = 12 } in
  let m = synth_model ~params () in
  (* Failing a deployment-rich site cannot increase supported throughput. *)
  let before = Routing.max_alpha (Dp.solve ~rng:(Sb_util.Rng.create 1) m) in
  let m2 = Model.with_failed_sites m [ 0 ] in
  let all_deployed =
    List.init (Model.num_vnfs m2) (fun f -> f)
    |> List.for_all (fun f -> Model.vnf_sites m2 f <> [])
  in
  if all_deployed then begin
    let after = Routing.max_alpha (Dp.solve ~rng:(Sb_util.Rng.create 1) m2) in
    Alcotest.(check bool) "throughput does not improve under failure" true
      (after <= before +. 1e-6)
  end


(* ------------------------------ spec ------------------------------- *)

let demo_spec = {spec|
# comment line
node a 0 0
node b 100 0
duplex a b 10 0.005
site a 20
site b 20
vnf fw 1.0
deploy fw a 10
deploy fw b 10
chain c1 a b 2.0 1.0 fw
beta 0.8
|spec}

let test_spec_parse_roundtrip () =
  match Sb_core.Spec.parse demo_spec with
  | Error e -> Alcotest.fail e
  | Ok m ->
    Alcotest.(check int) "sites" 2 (Model.num_sites m);
    Alcotest.(check int) "vnfs" 1 (Model.num_vnfs m);
    Alcotest.(check int) "chains" 1 (Model.num_chains m);
    Alcotest.(check (float 1e-9)) "beta" 0.8 (Model.beta m);
    Alcotest.(check (float 1e-9)) "fwd traffic" 2. (Model.fwd_traffic m ~chain:0 ~stage:0);
    (* Round-trip: render and re-parse. *)
    (match Sb_core.Spec.parse (Sb_core.Spec.to_string m) with
    | Error e -> Alcotest.fail ("round-trip: " ^ e)
    | Ok m2 ->
      Alcotest.(check int) "round-trip chains" (Model.num_chains m) (Model.num_chains m2);
      Alcotest.(check (float 1e-9)) "round-trip beta" (Model.beta m) (Model.beta m2);
      Alcotest.(check int) "round-trip links"
        (Sb_net.Topology.num_links (Model.topology m))
        (Sb_net.Topology.num_links (Model.topology m2)))

let test_spec_parse_is_routable () =
  match Sb_core.Spec.parse demo_spec with
  | Error e -> Alcotest.fail e
  | Ok m -> check_valid "spec model routes" (Greedy.anycast m)

let test_spec_synthesized_roundtrip () =
  let m = synth_model () in
  match Sb_core.Spec.parse (Sb_core.Spec.to_string m) with
  | Error e -> Alcotest.fail e
  | Ok m2 ->
    Alcotest.(check int) "chains" (Model.num_chains m) (Model.num_chains m2);
    Alcotest.(check int) "sites" (Model.num_sites m) (Model.num_sites m2);
    Alcotest.(check (float 1e-6)) "demand"
      (Model.total_demand m) (Model.total_demand m2)

let test_spec_errors () =
  let bad_cases =
    [
      "nodeling a 0 0";               (* unknown directive *)
      "node a 0 0\nnode a 1 1";       (* duplicate node *)
      "link a b 10 0.1";              (* unknown nodes *)
      "node a 0 0\nsite a x";         (* not a number *)
      "node a 0 0\nvnf f 1\nchain c a a 1 0 ghost"; (* unknown vnf *)
    ]
  in
  List.iter
    (fun src ->
      match Sb_core.Spec.parse src with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected parse error for %S" src)
    bad_cases

let test_spec_error_has_line_number () =
  match Sb_core.Spec.parse "node a 0 0\nbogus" with
  | Error e ->
    Alcotest.(check bool) "mentions line 2" true
      (String.length e >= 6 && String.sub e 0 6 = "line 2")
  | Ok _ -> Alcotest.fail "expected error"

(* --------------------------- greedy schemes ------------------------ *)

let test_anycast_picks_nearest () =
  let m, c, _, _ = small_model () in
  let r = Greedy.anycast m in
  check_valid "anycast" r;
  (* From ingress 0, nearest f0 site is node 0; then nearest f1 site is 1. *)
  Alcotest.(check (list (pair (pair int int) (float 1e-9)))) "stage 0 hop"
    [ ((0, 0), 1.) ]
    (List.map (fun (a, b, f) -> ((a, b), f)) (stage_flows r ~chain:c ~stage:0));
  Alcotest.(check (list (pair (pair int int) (float 1e-9)))) "stage 1 hop"
    [ ((0, 1), 1.) ]
    (List.map (fun (a, b, f) -> ((a, b), f)) (stage_flows r ~chain:c ~stage:1))

let test_compute_aware_avoids_saturation () =
  (* Two identical chains, f0 capacity only big enough for one at site 0. *)
  let topo = Topology.line ~delays:[ 0.01 ] ~bandwidth:100. in
  let b = Model.builder topo in
  let s0 = Model.add_site b ~node:0 ~capacity:100. in
  let s1 = Model.add_site b ~node:1 ~capacity:100. in
  let f0 = Model.add_vnf b ~name:"fw" ~cpu_per_unit:1. in
  Model.deploy b ~vnf:f0 ~site:s0 ~capacity:6.;
  Model.deploy b ~vnf:f0 ~site:s1 ~capacity:6.;
  let _c1 = Model.add_chain b ~ingress:0 ~egress:1 ~vnfs:[ f0 ] ~fwd:2. () in
  let _c2 = Model.add_chain b ~ingress:0 ~egress:1 ~vnfs:[ f0 ] ~fwd:2. () in
  let m = Model.finalize b () in
  (* Each chain loads f0 by 2 traffic x 2 (in+out) = 4 at its site: a site
     of capacity 6 fits one chain but not two. *)
  let anycast = Greedy.anycast m in
  let aware = Greedy.compute_aware m in
  check_valid "anycast" anycast;
  check_valid "compute-aware" aware;
  Alcotest.(check bool) "compute-aware sustains more" true
    (Routing.max_alpha aware > Routing.max_alpha anycast);
  let st = Routing.load_state aware in
  Alcotest.(check bool) "both sites used" true
    (Load_state.vnf_load st ~vnf:f0 ~site:0 > 0. && Load_state.vnf_load st ~vnf:f0 ~site:1 > 0.)

let test_onehop_valid_on_synth () =
  let m = synth_model () in
  let r = Greedy.onehop m in
  check_valid "onehop" r

let test_greedy_all_valid_on_synth () =
  let m = synth_model () in
  check_valid "anycast" (Greedy.anycast m);
  check_valid "compute-aware" (Greedy.compute_aware m)

(* ------------------------------ SB-DP ------------------------------ *)

let test_dp_best_path_shortest_when_unloaded () =
  let m, c, _, _ = small_model () in
  let st = Load_state.create m in
  match Dp.best_path st ~util_weight:0. ~chain:c with
  | Some nodes ->
    (* Min propagation: f0 at 0 (0ms), f1 at 1, egress 2: total 0.03 —
       equals any other route? f0@1,f1@1: 0.01 + 0 + 0.02 = 0.03 too.
       Either is optimal; just check validity and cost. *)
    let r = Routing.create m in
    Routing.add_path r ~chain:c ~nodes ~frac:1.0;
    check_valid "dp path" r
  | None -> Alcotest.fail "expected a path"

let test_dp_valid_and_conserving () =
  let m = synth_model () in
  let r = Dp.solve ~rng:(Sb_util.Rng.create 1) m in
  check_valid "sb-dp" r

let test_dp_latency_valid () =
  let m = synth_model () in
  let r = Dp.dp_latency m in
  check_valid "dp-latency" r

let test_dp_splits_under_pressure () =
  (* One chain whose traffic exceeds any single deployment: DP must split. *)
  let topo = Topology.line ~delays:[ 0.01 ] ~bandwidth:1000. in
  let b = Model.builder topo in
  let s0 = Model.add_site b ~node:0 ~capacity:1000. in
  let s1 = Model.add_site b ~node:1 ~capacity:1000. in
  let f0 = Model.add_vnf b ~name:"fw" ~cpu_per_unit:1. in
  Model.deploy b ~vnf:f0 ~site:s0 ~capacity:10.;
  Model.deploy b ~vnf:f0 ~site:s1 ~capacity:10.;
  let c = Model.add_chain b ~ingress:0 ~egress:1 ~vnfs:[ f0 ] ~fwd:8. () in
  let m = Model.finalize b () in
  (* Chain load on one deployment = 8*2 = 16 > 10: must split sites. *)
  let r = Dp.solve m in
  check_valid "dp split" r;
  let flows = stage_flows r ~chain:c ~stage:0 in
  Alcotest.(check bool) "split across two sites" true (List.length flows >= 2);
  Alcotest.(check bool) "supports full load" true (Routing.max_alpha r >= 1. -. 1e-6)

let test_dp_beats_latency_only_on_throughput () =
  let m = synth_model () in
  let sb = Routing.max_alpha (Dp.solve ~rng:(Sb_util.Rng.create 1) m) in
  let lat_only = Routing.max_alpha (Dp.dp_latency m) in
  Alcotest.(check bool) "utilization-aware DP sustains >= latency-only" true
    (sb >= lat_only -. 1e-9)

let test_dp_deterministic_given_seed () =
  let m = synth_model () in
  let a = Routing.max_alpha (Dp.solve ~rng:(Sb_util.Rng.create 9) m) in
  let b = Routing.max_alpha (Dp.solve ~rng:(Sb_util.Rng.create 9) m) in
  Alcotest.(check (float 0.)) "same seed same result" a b

(* ------------------------------ SB-LP ------------------------------ *)

let test_lp_min_latency_optimal_on_small () =
  let m, _, _, _ = small_model ~fwd:1. ~rev:0. () in
  match Lpr.solve m Lpr.Min_latency with
  | Error e -> Alcotest.fail e
  | Ok { routing; objective_value; _ } ->
    check_valid "lp" routing;
    (* Best achievable mean latency is 0.01 (see propagation test). *)
    Alcotest.(check (float 1e-6)) "optimal latency" 0.01 objective_value

let test_lp_throughput_beats_heuristics () =
  let m = synth_model () in
  match Lpr.solve m Lpr.Max_throughput with
  | Error e -> Alcotest.fail e
  | Ok { routing; objective_value; _ } ->
    check_valid "lp tput" routing;
    let dp = Routing.max_alpha (Dp.solve ~rng:(Sb_util.Rng.create 1) m) in
    let any = Routing.max_alpha (Greedy.anycast m) in
    Alcotest.(check bool) "LP >= DP" true (objective_value >= dp -. 1e-6);
    Alcotest.(check bool) "LP >= anycast" true (objective_value >= any -. 1e-6)

let test_lp_throughput_matches_alpha_of_routing () =
  let m = synth_model () in
  match Lpr.solve m Lpr.Max_throughput with
  | Error e -> Alcotest.fail e
  | Ok { routing; objective_value; _ } ->
    (* The extracted routing's supported alpha equals the LP's alpha. *)
    Alcotest.(check (float 0.05)) "alpha consistency" objective_value
      (Routing.max_alpha routing)

let test_lp_respects_mlu () =
  (* Tiny link forces the LP to bound throughput by beta * bandwidth. *)
  let topo = Topology.line ~delays:[ 0.01 ] ~bandwidth:4. in
  let b = Model.builder topo in
  let s0 = Model.add_site b ~node:0 ~capacity:1000. in
  let s1 = Model.add_site b ~node:1 ~capacity:1000. in
  let f0 = Model.add_vnf b ~name:"fw" ~cpu_per_unit:0.001 in
  Model.deploy b ~vnf:f0 ~site:s0 ~capacity:1000.;
  Model.deploy b ~vnf:f0 ~site:s1 ~capacity:1000.;
  let _ = Model.add_chain b ~ingress:0 ~egress:1 ~vnfs:[ f0 ] ~fwd:1. () in
  let m = Model.finalize b ~beta:0.5 () in
  match Lpr.solve m Lpr.Max_throughput with
  | Error e -> Alcotest.fail e
  | Ok { objective_value; _ } ->
    (* Link 0->1 carries w = 1 per unit alpha; bound = 0.5 * 4 = 2. *)
    Alcotest.(check (float 1e-4)) "MLU-bound alpha" 2. objective_value

let test_lp_infeasible_when_over_capacity () =
  let m, _, _, _ = small_model () in
  let m = Model.with_scaled_traffic m 1000. in
  match Lpr.solve m Lpr.Min_latency with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected infeasible"

let test_lp_background_reduces_throughput () =
  let topo = Topology.line ~delays:[ 0.01 ] ~bandwidth:10. in
  let build bg =
    let b = Model.builder topo in
    let s0 = Model.add_site b ~node:0 ~capacity:1000. in
    let s1 = Model.add_site b ~node:1 ~capacity:1000. in
    let f0 = Model.add_vnf b ~name:"fw" ~cpu_per_unit:0.001 in
    Model.deploy b ~vnf:f0 ~site:s0 ~capacity:1000.;
    Model.deploy b ~vnf:f0 ~site:s1 ~capacity:1000.;
    let _ = Model.add_chain b ~ingress:0 ~egress:1 ~vnfs:[ f0 ] ~fwd:1. () in
    Model.finalize b ~background:(fun _ -> bg) ()
  in
  let alpha bg =
    match Lpr.solve (build bg) Lpr.Max_throughput with
    | Ok { objective_value; _ } -> objective_value
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "background eats headroom" true (alpha 5. < alpha 0.)

(* SB-LP at benchmark scale: the first epoch of the repository
   benchmark's te_lp workload (the 25-site backbone, 12 chains, scenario
   seed 7, diurnal demand over 6 epochs; see benchmark/te.ml). *)
let benchmark_epoch0 ?(chains = 12) () =
  let module Sc = Sb_adapt.Scenario in
  let module W = Sb_net.Workload in
  let epochs = 6 and seed = 7 in
  let model = Sc.backbone25 { Sc.default_config with seed; num_chains = chains } in
  let w = W.diurnal ~seed ~ticks:epochs ~keys:chains ~period:epochs () in
  Model.with_chain_traffic_factors model (Array.init chains (fun k -> W.demand w ~tick:0 ~key:k))

(* The objective golden was captured with a dense-tableau simplex; alpha
   is unique, so any correct simplex reproduces it. *)
let test_lp_benchmark_scale () =
  match Lpr.solve (benchmark_epoch0 ()) Lpr.Max_throughput with
  | Error e -> Alcotest.fail e
  | Ok { routing; objective_value; _ } ->
    let golden = 3.4881870984274195 in
    Alcotest.(check bool) "objective = golden to 1e-9 relative" true
      (Float.abs (objective_value -. golden) <= 1e-9 *. golden);
    Alcotest.(check (float 1e-6)) "max_alpha of the routing = objective" objective_value
      (Routing.max_alpha routing)

(* The simplex's machine-independent work on the same LP. The
   product-form solver this replaced took 338 iterations and 10
   refactorizations; the Forrest-Tomlin update keeps the iterations within
   10 % of that and refactors at most three times. Which optimal vertex a
   degenerate pivot sequence reaches, and in how many iterations, moves
   with any change in rounding, so the iteration bound has slack. *)
let test_lp_benchmark_work () =
  match Lpr.solve (benchmark_epoch0 ()) Lpr.Max_throughput with
  | Error e -> Alcotest.fail e
  | Ok { lp; _ } ->
    let iterations = Sb_lp.Lp.iterations lp and refactorizations = Sb_lp.Lp.refactorizations lp in
    Alcotest.(check bool)
      (Printf.sprintf "%d iterations <= 1.1 x 338" iterations)
      true
      (float_of_int iterations <= 1.1 *. 338.);
    Alcotest.(check bool)
      (Printf.sprintf "%d refactorizations <= 3" refactorizations)
      true (refactorizations <= 3)

(* The column builder writes the very LP the list-built reference
   (test/sblp_oracle.ml) packs: the same columns, entries, row relations,
   right-hand sides, bounds and objective, bit for bit, and so the same
   solve, on te_lp's epoch 0 at 4, 12 and 20 chains and for each
   objective. *)
let test_lp_columns_match_oracle () =
  let module Lp = Sb_lp.Lp in
  let bits a = Array.map Int64.bits_of_float a in
  let prefix a n = Array.sub a 0 n in
  List.iter
    (fun chains ->
      let model = benchmark_epoch0 ~chains () in
      let budget =
        0.25 *. List.fold_left ( +. ) 0. (List.init (Model.num_sites model) (Model.site_capacity model))
      in
      List.iter
        (fun (name, cloud_budget, objective) ->
          let what s = Printf.sprintf "%d chains, %s: %s" chains name s in
          let b = Lpr.columns ?cloud_budget model objective in
          let o = Lp.to_columns (Sblp_oracle.problem ?cloud_budget model objective) in
          let nnz = o.Lp.cstart.(o.Lp.ncols) in
          Alcotest.(check int) (what "columns") o.Lp.ncols b.Lp.ncols;
          Alcotest.(check int) (what "rows") o.Lp.nrows b.Lp.nrows;
          Alcotest.(check (array int)) (what "cstart") o.Lp.cstart b.Lp.cstart;
          Alcotest.(check (array int)) (what "cidx") (prefix o.Lp.cidx nnz) (prefix b.Lp.cidx nnz);
          Alcotest.(check (array int64)) (what "cval")
            (bits (prefix o.Lp.cval nnz))
            (bits (prefix b.Lp.cval nnz));
          Alcotest.(check bool) (what "relations") true (o.Lp.rel = b.Lp.rel);
          Alcotest.(check (array int64)) (what "rhs") (bits o.Lp.rhs) (bits b.Lp.rhs);
          Alcotest.(check (array int64)) (what "lb") (bits o.Lp.lb) (bits b.Lp.lb);
          Alcotest.(check (array int64)) (what "ub") (bits o.Lp.ub) (bits b.Lp.ub);
          Alcotest.(check (array int64)) (what "cost") (bits o.Lp.cost) (bits b.Lp.cost);
          Alcotest.(check bool) (what "sense") true (o.Lp.sense = b.Lp.sense);
          match (Lp.solve_columns o, Lp.solve_columns b) with
          | Lp.Optimal so, Lp.Optimal sb ->
            Alcotest.(check int64) (what "objective")
              (Int64.bits_of_float (Lp.objective_value so))
              (Int64.bits_of_float (Lp.objective_value sb));
            Alcotest.(check int) (what "iterations") (Lp.iterations so) (Lp.iterations sb);
            Alcotest.(check int) (what "refactorizations") (Lp.refactorizations so)
              (Lp.refactorizations sb)
          | _ -> Alcotest.fail (what "not optimal"))
        [
          ("max-throughput", None, Lpr.Max_throughput);
          ("min-latency", None, Lpr.Min_latency);
          ("cloud budget", Some budget, Lpr.Max_throughput);
        ])
    [ 4; 12; 20 ]

(* --------------------------- Eval metrics -------------------------- *)

let test_eval_scheme_ordering () =
  let m = synth_model () in
  let tput s = Eval.throughput m s in
  let lp = tput Eval.Sb_lp in
  let dp = tput Eval.Sb_dp in
  let any = tput Eval.Anycast in
  Alcotest.(check bool) "LP >= DP" true (lp >= dp -. 1e-6);
  Alcotest.(check bool) "DP > anycast" true (dp > any);
  Alcotest.(check bool) "anycast positive" true (any > 0.)

let test_eval_latency_increases_with_load () =
  let m = synth_model () in
  let l1 = Eval.latency ~load:0.2 m Eval.Sb_dp in
  let l2 = Eval.latency ~load:0.7 m Eval.Sb_dp in
  Alcotest.(check bool) "latency grows or saturates" true (l2 >= l1 -. 1e-6)

let test_eval_anycast_dies_early () =
  let m = synth_model () in
  let cap = Eval.max_load_factor m Eval.Anycast in
  let beyond = Eval.latency ~load:(cap *. 4.) m Eval.Anycast in
  Alcotest.(check bool) "overloaded anycast saturates" true (beyond = infinity)

let test_eval_route_returns_valid () =
  let m = synth_model () in
  List.iter
    (fun s ->
      match Eval.route m s with
      | Ok r -> check_valid (Eval.scheme_name s) r
      | Error e -> Alcotest.fail e)
    Eval.all_schemes

(* --------------------------- workload ------------------------------ *)

let test_workload_shape () =
  let m = synth_model () in
  let p = Workload.default in
  Alcotest.(check int) "chains" p.Workload.num_chains (Model.num_chains m);
  Alcotest.(check int) "vnfs" p.Workload.num_vnfs (Model.num_vnfs m);
  Alcotest.(check (float 1e-6)) "site capacity" p.Workload.site_capacity
    (Model.site_capacity m 0);
  (* Chain lengths within bounds and VNF ids ascending (consistent order). *)
  for c = 0 to Model.num_chains m - 1 do
    let len = Model.chain_length m c in
    Alcotest.(check bool) "length in range" true
      (len >= p.Workload.min_chain_len && len <= p.Workload.max_chain_len);
    let vnfs = Model.chain_vnfs m c in
    for i = 1 to Array.length vnfs - 1 do
      Alcotest.(check bool) "consistent VNF order" true (vnfs.(i - 1) < vnfs.(i))
    done
  done

let test_workload_traffic_total () =
  let m = synth_model () in
  let p = Workload.default in
  (* Sum of per-chain fwd traffic (one stage's worth) = total_traffic. *)
  let total = ref 0. in
  for c = 0 to Model.num_chains m - 1 do
    total := !total +. Model.fwd_traffic m ~chain:c ~stage:0
  done;
  Alcotest.(check (float 1e-6)) "total traffic" p.Workload.total_traffic !total

let test_workload_coverage () =
  let m = synth_model () in
  let p = Workload.default in
  let expected = int_of_float (Float.round (p.Workload.coverage *. float_of_int (Model.num_sites m))) in
  for f = 0 to Model.num_vnfs m - 1 do
    Alcotest.(check int) "coverage sites" expected (List.length (Model.vnf_sites m f))
  done

let test_workload_site_capacity_division () =
  let m = synth_model () in
  (* Sum of m_sf at a site equals the site capacity (capacity divided among
     VNFs present). *)
  for s = 0 to Model.num_sites m - 1 do
    let sum = ref 0. in
    for f = 0 to Model.num_vnfs m - 1 do
      sum := !sum +. Model.vnf_site_capacity m ~vnf:f ~site:s
    done;
    if !sum > 0. then
      Alcotest.(check (float 1e-6)) "site capacity divided" (Model.site_capacity m s) !sum
  done

let test_workload_background_positive () =
  let m = synth_model () in
  let topo = Model.topology m in
  let any_bg = ref false in
  for e = 0 to Topology.num_links topo - 1 do
    if Model.background m e > 0. then any_bg := true
  done;
  Alcotest.(check bool) "background traffic present" true !any_bg

(* ------------------------- capacity planning ----------------------- *)

let test_capacity_optimize_beats_uniform () =
  let m = synth_model () in
  let budget = 200. in
  match (Capacity.optimize m ~budget, Capacity.uniform m ~budget) with
  | Ok opt, Ok uni ->
    Alcotest.(check bool) "optimized >= uniform" true
      (opt.Capacity.alpha >= uni.Capacity.alpha -. 1e-6);
    let spent = Array.fold_left ( +. ) 0. opt.Capacity.allocation in
    Alcotest.(check bool) "budget respected" true (spent <= budget +. 1e-4)
  | Error e, _ | _, Error e -> Alcotest.fail e

let test_capacity_zero_budget_noop () =
  let m = synth_model () in
  match (Capacity.optimize m ~budget:0., Lpr.solve m Lpr.Max_throughput) with
  | Ok plan, Ok { objective_value; _ } ->
    Alcotest.(check (float 1e-4)) "zero budget = plain LP" objective_value plan.Capacity.alpha
  | Error e, _ | _, Error e -> Alcotest.fail e

let test_capacity_monotone_in_budget () =
  let m = synth_model () in
  match (Capacity.optimize m ~budget:50., Capacity.optimize m ~budget:400.) with
  | Ok small, Ok large ->
    Alcotest.(check bool) "more budget, more throughput" true
      (large.Capacity.alpha >= small.Capacity.alpha -. 1e-6)
  | Error e, _ | _, Error e -> Alcotest.fail e

(* --------------------------- placement ----------------------------- *)

let test_placement_suggest_improves_latency () =
  let params = { Workload.default with Workload.coverage = 0.25 } in
  let m = synth_model ~params () in
  let better = Placement.suggest m ~new_sites_per_vnf:2 in
  let random = Placement.random ~rng:(Sb_util.Rng.create 5) m ~new_sites_per_vnf:2 in
  let lat mm = Routing.propagation_latency (Dp.dp_latency mm) in
  let base = lat m in
  let sugg = lat better in
  let rand = lat random in
  Alcotest.(check bool) "suggested placement helps vs base" true (sugg <= base +. 1e-9);
  Alcotest.(check bool) "suggested <= random" true (sugg <= rand +. 1e-9)

let test_placement_adds_requested_sites () =
  let params = { Workload.default with Workload.coverage = 0.25 } in
  let m = synth_model ~params () in
  let m2 = Placement.suggest m ~new_sites_per_vnf:2 in
  for f = 0 to Model.num_vnfs m - 1 do
    Alcotest.(check int) "two more sites"
      (List.length (Model.vnf_sites m f) + 2)
      (List.length (Model.vnf_sites m2 f))
  done

let test_placement_mip_small () =
  (* Tiny instance: MIP should return a placement that covers demand. *)
  let topo = Topology.line ~delays:[ 0.01; 0.01; 0.01 ] ~bandwidth:100. in
  let b = Model.builder topo in
  let sites = Array.init 4 (fun n -> Model.add_site b ~node:n ~capacity:100.) in
  let f = Model.add_vnf b ~name:"fw" ~cpu_per_unit:1. in
  Model.deploy b ~vnf:f ~site:sites.(0) ~capacity:50.;
  let _ = Model.add_chain b ~ingress:3 ~egress:3 ~vnfs:[ f ] ~fwd:1. () in
  let m = Model.finalize b () in
  match Placement.mip m ~new_sites_per_vnf:1 with
  | Some m2 ->
    (* The MIP should open the site nearest the demand (node 3). *)
    Alcotest.(check bool) "deployment added" true
      (List.length (Model.vnf_sites m2 f) = 2);
    Alcotest.(check bool) "opens site 3" true
      (Model.vnf_site_capacity m2 ~vnf:f ~site:sites.(3) > 0.)
  | None -> Alcotest.fail "MIP found no placement"


(* ---------- deployment edits: the placement-loop substrate ---------- *)

module Instance = Sb_core.Instance

let test_without_deployments_validates_ids () =
  let m, _, f0, f1 = small_model () in
  (* A pair that is not deployed is ignored: f0 lives at sites 0 and 1. *)
  let same = Model.without_deployments m [ (f0, 2) ] in
  for f = 0 to Model.num_vnfs m - 1 do
    Alcotest.(check bool) "no-op on non-deployed pair" true
      (Model.vnf_sites same f = Model.vnf_sites m f)
  done;
  (match Model.without_deployments m [ (f1, 99) ] with
  | _ -> Alcotest.fail "unknown site accepted"
  | exception Invalid_argument _ -> ());
  match Model.without_deployments m [ (99, 0) ] with
  | _ -> Alcotest.fail "unknown vnf accepted"
  | exception Invalid_argument _ -> ()

(* ------------------- placement constraints (§4.3) ------------------- *)

let constrained_model () =
  synth_model ~params:{ Workload.default with Workload.coverage = 0.25 } ()

let test_placement_anti_affinity_honoured () =
  let m = constrained_model () in
  let a = 0 and b = 1 in
  let cs =
    { Placement.no_constraints with Placement.anti_affinity = [ (a, b) ] }
  in
  let picks =
    Placement.suggest_inst ~constraints:cs (Instance.compile m)
      ~new_sites_per_vnf:2
  in
  Alcotest.(check bool) "constrained greedy still opens sites" true (picks <> []);
  (* Neither a new open next to an existing deployment of the partner,
     nor two new opens at one site. *)
  let sites v =
    List.map fst (Model.vnf_sites m v)
    @ List.filter_map (fun (v', s, _) -> if v' = v then Some s else None) picks
  in
  List.iter
    (fun (v, s, _) ->
      let partner = if v = a then Some b else if v = b then Some a else None in
      match partner with
      | Some p when List.mem s (sites p) ->
        Alcotest.failf "anti-affinity violated: vnf %d opened at site %d next to vnf %d"
          v s p
      | _ -> ())
    picks

let test_placement_cloud_caps_honoured () =
  let m = constrained_model () in
  (* Cloud 0 = even sites, closed; cloud 1 = odd sites, 2 new opens. *)
  let cs =
    {
      Placement.no_constraints with
      Placement.cloud_of = (fun s -> s mod 2);
      cloud_capacity = (fun c -> if c = 0 then 0 else 2);
    }
  in
  let picks =
    Placement.suggest_inst ~constraints:cs (Instance.compile m)
      ~new_sites_per_vnf:2
  in
  Alcotest.(check bool) "open cloud used" true (picks <> []);
  List.iter
    (fun (_, s, _) ->
      if s mod 2 = 0 then Alcotest.failf "opened site %d in the closed cloud" s)
    picks;
  Alcotest.(check bool) "per-cloud budget respected" true (List.length picks <= 2)

let test_placement_no_constraints_bit_identical () =
  let m = constrained_model () in
  let inst = Instance.compile m in
  Alcotest.(check bool) "suggest_inst unchanged by explicit no_constraints" true
    (Placement.suggest_inst inst ~new_sites_per_vnf:2
    = Placement.suggest_inst ~constraints:Placement.no_constraints inst
        ~new_sites_per_vnf:2);
  let lat mm = Routing.propagation_latency (Dp.dp_latency mm) in
  Alcotest.(check (float 0.)) "suggest unchanged by explicit no_constraints"
    (lat (Placement.suggest m ~new_sites_per_vnf:2))
    (lat (Placement.suggest ~constraints:Placement.no_constraints m ~new_sites_per_vnf:2))

(* --------------------------- edge cases ---------------------------- *)

let test_lp_cloud_budget_requires_throughput () =
  let m, _, _, _ = small_model () in
  Alcotest.check_raises "budget with min-latency"
    (Invalid_argument "Lp_routing.solve: cloud_budget requires Max_throughput") (fun () ->
      ignore (Lpr.solve ~cloud_budget:10. m Lpr.Min_latency))

let test_eval_lp_fallback_over_capacity () =
  (* Demand far beyond capacity: min-latency LP is infeasible, Eval.route
     must fall back to the throughput objective and still return a valid
     (fraction-normalized) routing. *)
  let m, _, _, _ = small_model () in
  let m = Model.with_scaled_traffic m 100. in
  match Eval.route m Eval.Sb_lp with
  | Ok r -> check_valid "fallback routing" r
  | Error e -> Alcotest.fail e

let test_mip_node_limit () =
  let module Lp = Sb_lp.Lp in
  let p = Lp.create () in
  let vars = Array.init 12 (fun i -> Lp.add_var p ~ub:1. ~integer:true (Printf.sprintf "b%d" i)) in
  Lp.add_constraint p
    (Array.to_list (Array.mapi (fun i v -> (1. +. (0.13 *. float_of_int i), v)) vars))
    Sb_lp.Lp.Le 3.7;
  Lp.set_objective p Lp.Maximize (Array.to_list (Array.map (fun v -> (1., v)) vars));
  (match Sb_lp.Mip.solve ~max_nodes:2 p with
  | Sb_lp.Mip.Node_limit _ -> ()
  | Sb_lp.Mip.Optimal _ -> Alcotest.fail "2 nodes cannot prove optimality here"
  | _ -> Alcotest.fail "unexpected outcome")

let test_workload_invalid_params () =
  let rng = Sb_util.Rng.create 1 in
  let topo = Topology.line ~delays:[ 0.01 ] ~bandwidth:10. in
  Alcotest.check_raises "bad coverage" (Invalid_argument "Workload: coverage out of (0,1]")
    (fun () ->
      ignore
        (Workload.synthesize ~rng topo { Workload.default with Workload.coverage = 0. }));
  Alcotest.check_raises "catalog too small"
    (Invalid_argument "Workload: catalog smaller than max chain length") (fun () ->
      ignore
        (Workload.synthesize ~rng topo
           { Workload.default with Workload.num_vnfs = 2; max_chain_len = 5 }))

let test_placement_zero_sites_noop () =
  let m = synth_model () in
  let m2 = Placement.suggest m ~new_sites_per_vnf:0 in
  for f = 0 to Model.num_vnfs m - 1 do
    Alcotest.(check int) "deployments unchanged"
      (List.length (Model.vnf_sites m f))
      (List.length (Model.vnf_sites m2 f))
  done

let test_dp_unroutable_chain () =
  (* Disconnect the network between ingress and the only deployment: SB-DP
     finds no path and leaves the chain unrouted (validate flags it). *)
  let topo = Topology.create () in
  let a = Topology.add_node topo "a" in
  let b = Topology.add_node topo "b" in
  (* no links *)
  let bld = Model.builder topo in
  let sb_site = Model.add_site bld ~node:b ~capacity:10. in
  let f = Model.add_vnf bld ~name:"fw" ~cpu_per_unit:1. in
  Model.deploy bld ~vnf:f ~site:sb_site ~capacity:10.;
  let c = Model.add_chain bld ~ingress:a ~egress:b ~vnfs:[ f ] ~fwd:1. () in
  let m = Model.finalize bld () in
  let st = Load_state.create m in
  Alcotest.(check bool) "no path" true
    (Dp.best_path st ~util_weight:0. ~chain:c = None);
  let r = Dp.solve m in
  match Routing.validate r with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unroutable chain must fail validation"

let test_spec_missing_file () =
  match Sb_core.Spec.load_file "/nonexistent/path.sbs" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected file error"



let test_spec_chainm_roundtrip () =
  let src = {spec|
node o1 0 0
node o2 100 0
node hq 50 80
duplex o1 hq 10 0.004
duplex o2 hq 10 0.004
site hq 20
vnf fw 1.0
deploy fw hq 10
chainm up o1:2,o2:1 hq 3.0 1.0 fw
|spec}
  in
  match Sb_core.Spec.parse src with
  | Error e -> Alcotest.fail e
  | Ok m ->
    Alcotest.(check (list (pair int (float 1e-9)))) "parsed ingress shares"
      [ (0, 2. /. 3.); (1, 1. /. 3.) ]
      (Model.chain_ingresses m 0);
    check_valid "chainm routes" (Greedy.anycast m);
    (* Round-trips through chainm serialization. *)
    (match Sb_core.Spec.parse (Sb_core.Spec.to_string m) with
    | Error e -> Alcotest.fail ("round-trip: " ^ e)
    | Ok m2 ->
      Alcotest.(check (list (pair int (float 1e-9)))) "round-trip shares"
        (Model.chain_ingresses m 0) (Model.chain_ingresses m2 0))

(* --------------------- multi-ingress / multi-egress ---------------- *)

(* A 4-node line with sites everywhere and one firewall; a chain entering
   at nodes 0 (2/3) and 3 (1/3), leaving at nodes 1 (1/2) and 2 (1/2). *)
let multi_endpoint_model () =
  let topo = Topology.line ~delays:[ 0.01; 0.01; 0.01 ] ~bandwidth:100. in
  let b = Model.builder topo in
  let sites = Array.init 4 (fun n -> Model.add_site b ~node:n ~capacity:100.) in
  let fw = Model.add_vnf b ~name:"fw" ~cpu_per_unit:1. in
  Model.deploy b ~vnf:fw ~site:sites.(1) ~capacity:60.;
  Model.deploy b ~vnf:fw ~site:sites.(2) ~capacity:60.;
  let c =
    Model.add_chain_endpoints b ~name:"multi"
      ~ingresses:[ (0, 2.); (3, 1.) ]
      ~egresses:[ (1, 1.); (2, 1.) ]
      ~vnfs:[ fw ] ~fwd:3. ~rev:1. ()
  in
  (Model.finalize b (), c, fw)

let test_multi_endpoint_shares_normalized () =
  let m, c, _ = multi_endpoint_model () in
  Alcotest.(check (list (pair int (float 1e-9)))) "ingress shares"
    [ (0, 2. /. 3.); (3, 1. /. 3.) ]
    (Model.chain_ingresses m c);
  Alcotest.(check (list (pair int (float 1e-9)))) "egress shares"
    [ (1, 0.5); (2, 0.5) ]
    (Model.chain_egresses m c);
  Alcotest.(check (list int)) "stage-0 sources" [ 0; 3 ]
    (Model.stage_src_nodes m ~chain:c ~stage:0);
  Alcotest.(check (list int)) "final-stage destinations" [ 1; 2 ]
    (Model.stage_dst_nodes m ~chain:c ~stage:1)

let test_multi_endpoint_validation () =
  let topo = Topology.line ~delays:[ 0.01 ] ~bandwidth:10. in
  let b = Model.builder topo in
  let s = Model.add_site b ~node:0 ~capacity:10. in
  let f = Model.add_vnf b ~name:"x" ~cpu_per_unit:1. in
  Model.deploy b ~vnf:f ~site:s ~capacity:10.;
  Alcotest.check_raises "empty ingress"
    (Invalid_argument "Model.add_chain: empty ingress list") (fun () ->
      ignore (Model.add_chain_endpoints b ~ingresses:[] ~egresses:[ (0, 1.) ] ~vnfs:[ f ] ~fwd:1. ()));
  Alcotest.check_raises "duplicate egress"
    (Invalid_argument "Model.add_chain: duplicate egress node") (fun () ->
      ignore
        (Model.add_chain_endpoints b ~ingresses:[ (0, 1.) ]
           ~egresses:[ (1, 1.); (1, 1.) ] ~vnfs:[ f ] ~fwd:1. ()));
  Alcotest.check_raises "bad share"
    (Invalid_argument "Model.add_chain: non-positive ingress share") (fun () ->
      ignore
        (Model.add_chain_endpoints b ~ingresses:[ (0, 0.) ] ~egresses:[ (1, 1.) ]
           ~vnfs:[ f ] ~fwd:1. ()))

let check_endpoint_shares m c r =
  (* Validate already checks this, but assert it explicitly too. *)
  check_valid "multi-endpoint routing" r;
  List.iter
    (fun (node, share) ->
      let out =
        List.fold_left
          (fun acc (s, _, f) -> if s = node then acc +. f else acc)
          0.
          (stage_flows r ~chain:c ~stage:0)
      in
      Alcotest.(check (float 1e-6)) (Printf.sprintf "ingress %d share" node) share out)
    (Model.chain_ingresses m c);
  List.iter
    (fun (node, share) ->
      let last = Model.num_stages m c - 1 in
      let inflow =
        List.fold_left
          (fun acc (_, d, f) -> if d = node then acc +. f else acc)
          0.
          (stage_flows r ~chain:c ~stage:last)
      in
      Alcotest.(check (float 1e-6)) (Printf.sprintf "egress %d share" node) share inflow)
    (Model.chain_egresses m c)

let test_multi_endpoint_greedy () =
  let m, c, _ = multi_endpoint_model () in
  check_endpoint_shares m c (Greedy.anycast m);
  check_endpoint_shares m c (Greedy.compute_aware m)

let test_multi_endpoint_dp () =
  let m, c, _ = multi_endpoint_model () in
  check_endpoint_shares m c (Dp.solve m);
  check_endpoint_shares m c (Dp.dp_latency m)

let test_multi_endpoint_lp () =
  let m, c, _ = multi_endpoint_model () in
  (match Lpr.solve m Lpr.Min_latency with
  | Ok { routing; _ } -> check_endpoint_shares m c routing
  | Error e -> Alcotest.fail e);
  match Lpr.solve m Lpr.Max_throughput with
  | Ok { routing; objective_value; _ } ->
    check_endpoint_shares m c routing;
    Alcotest.(check bool) "positive throughput" true (objective_value > 0.)
  | Error e -> Alcotest.fail e

let test_multi_endpoint_lp_dominates_dp () =
  let m, _, _ = multi_endpoint_model () in
  match Lpr.solve m Lpr.Max_throughput with
  | Ok { objective_value; _ } ->
    Alcotest.(check bool) "LP >= DP on multi-endpoint chains" true
      (objective_value >= Routing.max_alpha (Dp.solve m) -. 1e-6)
  | Error e -> Alcotest.fail e

let test_multi_endpoint_decompose () =
  let m, c, _ = multi_endpoint_model () in
  let r = Dp.solve m in
  let paths = Routing.decompose_paths r ~chain:c in
  let total = List.fold_left (fun acc (_, f) -> acc +. f) 0. paths in
  Alcotest.(check (float 1e-6)) "paths cover all shares" 1.0 total;
  (* Every decomposed path starts at an ingress and ends at an egress. *)
  List.iter
    (fun (nodes, _) ->
      Alcotest.(check bool) "starts at an ingress" true
        (List.mem_assoc nodes.(0) (Model.chain_ingresses m c));
      Alcotest.(check bool) "ends at an egress" true
        (List.mem_assoc nodes.(Array.length nodes - 1) (Model.chain_egresses m c)))
    paths

(* --------------------------- properties ---------------------------- *)

let prop_schemes_always_valid =
  QCheck.Test.make ~name:"heuristic routings always validate" ~count:15
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Sb_util.Rng.create seed in
      let topo = Topology.backbone ~rng ~num_core:4 ~pops_per_core:1 () in
      let params =
        { Workload.default with Workload.num_chains = 8; num_vnfs = 6; max_chain_len = 4 }
      in
      let m = Workload.synthesize ~rng topo params in
      let ok r = Routing.validate r = Ok () in
      ok (Greedy.anycast m) && ok (Greedy.compute_aware m)
      && ok (Dp.solve ~rng:(Sb_util.Rng.create seed) m)
      && ok (Dp.dp_latency m))

let prop_lp_dominates_dp =
  QCheck.Test.make ~name:"LP throughput >= DP throughput" ~count:5
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Sb_util.Rng.create seed in
      let topo = Topology.backbone ~rng ~num_core:4 ~pops_per_core:1 () in
      let params =
        { Workload.default with Workload.num_chains = 8; num_vnfs = 6; max_chain_len = 4 }
      in
      let m = Workload.synthesize ~rng topo params in
      match Lpr.solve m Lpr.Max_throughput with
      | Ok { objective_value; _ } ->
        objective_value
        >= Routing.max_alpha (Dp.solve ~rng:(Sb_util.Rng.create seed) m) -. 1e-6
      | Error _ -> false)

let small_backbone_model seed =
  let rng = Sb_util.Rng.create seed in
  let topo = Topology.backbone ~rng ~num_core:4 ~pops_per_core:1 () in
  let params =
    { Workload.default with Workload.num_chains = 8; num_vnfs = 6; max_chain_len = 4 }
  in
  Workload.synthesize ~rng topo params

(* Every engine's routing of [m]: the three greedy schemes, SB-DP,
   dp_latency and (when it solves) SB-LP. *)
let engine_routings ~seed m =
  [ Greedy.anycast m; Greedy.compute_aware m; Greedy.onehop m;
    Dp.solve ~rng:(Sb_util.Rng.create seed) m; Dp.dp_latency m ]
  @
  match Lpr.solve m Lpr.Max_throughput with
  | Ok { routing; _ } -> [ routing ]
  | Error _ -> []

let prop_routing_packed_roundtrip =
  QCheck.Test.make ~name:"packed Routing round-trips the path decomposition" ~count:10
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let m = small_backbone_model seed in
      (* Every engine's output must validate, and decompose_paths ->
         add_path must rebuild an equivalent routing. *)
      List.for_all
        (fun r ->
          Routing.validate r = Ok ()
          &&
          let r3 = Routing.create m in
          for c = 0 to Model.num_chains m - 1 do
            List.iter
              (fun (nodes, frac) -> Routing.add_path r3 ~chain:c ~nodes ~frac)
              (Routing.decompose_paths r ~chain:c)
          done;
          Routing.validate r3 = Ok ()
          && Float.abs (Routing.max_alpha r3 -. Routing.max_alpha r) < 1e-6)
        (engine_routings ~seed m))

(* The list-walking flow decomposition that [Routing.decompose_paths]
   replaced, kept as its oracle: residual stage-flow lists, the first
   stage-0 arc with residual > 1e-9, then the first such arc out of each
   node; the path fraction is taken off every arc matching a hop, and an
   arc left at or below 1e-9 is dropped. A path that strands (a partial
   routing) drops its first arc's residual instead. *)
let decompose_oracle r ~chain =
  let stages = Model.num_stages (Routing.model r) chain in
  let residual = Array.init stages (fun z -> ref (stage_flows r ~chain ~stage:z)) in
  let take stage node =
    List.find_opt (fun (s, _, f) -> s = node && f > 1e-9) !(residual.(stage))
  in
  let subtract stage (src, dst) amount =
    residual.(stage) :=
      List.filter_map
        (fun (s, d, f) ->
          if s = src && d = dst then if f -. amount > 1e-9 then Some (s, d, f -. amount) else None
          else Some (s, d, f))
        !(residual.(stage))
  in
  let paths = ref [] in
  let continue = ref true in
  while !continue do
    match List.find_opt (fun (_, _, f) -> f > 1e-9) !(residual.(0)) with
    | None -> continue := false
    | Some (src0, dst0, f0) -> (
      let nodes = Array.make (stages + 1) src0 in
      nodes.(1) <- dst0;
      let frac = ref f0 in
      try
        for z = 1 to stages - 1 do
          match take z nodes.(z) with
          | Some (_, d, f) ->
            nodes.(z + 1) <- d;
            frac := Float.min !frac f
          | None -> raise Exit
        done;
        for z = 0 to stages - 1 do
          subtract z (nodes.(z), nodes.(z + 1)) !frac
        done;
        paths := (Array.copy nodes, !frac) :: !paths
      with Exit -> subtract 0 (src0, dst0) f0)
  done;
  List.rev !paths

(* Same paths, same order, same fraction bits. *)
let same_paths a b =
  List.equal
    (fun (n1, f1) (n2, f2) -> n1 = n2 && Int64.equal (Int64.bits_of_float f1) (Int64.bits_of_float f2))
    a b

(* A random routing of [m] that need not conserve flow: whole paths
   through [add_path] (which merges identical hops) mixed with single arcs
   appended to one stage (duplicate (src, dst) pairs included), over a few
   nodes per stage so arcs collide, at fractions that include zero and
   values at the 1e-9 threshold. *)
let random_soup rng m =
  let r = Routing.create m in
  let module R = Sb_util.Rng in
  let pick l = List.nth l (R.int rng (List.length l)) in
  let frac () =
    match R.int rng 6 with
    | 0 -> 0.
    | 1 -> 1e-9
    | 2 -> 0.25
    | _ -> R.float rng 1.
  in
  for _ = 1 to 4 * Model.num_chains m do
    let c = R.int rng (Model.num_chains m) in
    let stages = Model.num_stages m c in
    if R.bool rng then begin
      let nodes =
        Array.init (stages + 1) (fun z ->
            if z = 0 then pick (Model.stage_src_nodes m ~chain:c ~stage:0)
            else pick (Model.stage_dst_nodes m ~chain:c ~stage:(z - 1)))
      in
      Routing.add_path r ~chain:c ~nodes ~frac:(frac ())
    end
    else begin
      let stage = R.int rng stages in
      Routing.append_flow r ~chain:c ~stage
        ~src:(pick (Model.stage_src_nodes m ~chain:c ~stage))
        ~dst:(pick (Model.stage_dst_nodes m ~chain:c ~stage))
        ~frac:(frac ())
    end
  done;
  r

let prop_decompose_matches_oracle =
  QCheck.Test.make ~name:"decompose_paths = list oracle, bit for bit" ~count:20
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let m = small_backbone_model seed in
      let rng = Sb_util.Rng.create seed in
      List.for_all
        (fun r ->
          List.for_all
            (fun c -> same_paths (Routing.decompose_paths r ~chain:c) (decompose_oracle r ~chain:c))
            (List.init (Model.num_chains m) Fun.id))
        (engine_routings ~seed m @ List.init 4 (fun _ -> random_soup rng m)))

(* The delay-lower-bound prune of SB-DP's sweep must pick exactly the
   full sweep's path whenever every committed load is non-negative (the
   loads [solve] builds). Commit random paths at random non-negative
   fractions, then compare both sweeps on every chain and endpoint pair. *)
let prop_dp_prune_matches_full_sweep =
  QCheck.Test.make ~name:"pruned DP sweep = full sweep on non-negative loads" ~count:25
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Sb_util.Rng.create seed in
      let topo = Topology.backbone ~rng ~num_core:5 ~pops_per_core:2 () in
      let params =
        { Workload.default with Workload.num_chains = 16; num_vnfs = 6; max_chain_len = 5 }
      in
      let m = Workload.synthesize ~rng topo params in
      let st = Load_state.create m in
      let pick l = List.nth l (Sb_util.Rng.int rng (List.length l)) in
      for _ = 1 to 3 * Model.num_chains m do
        let c = Sb_util.Rng.int rng (Model.num_chains m) in
        let len = Model.num_stages m c - 1 in
        let nodes =
          Array.init (len + 2) (fun z ->
              if z = 0 then fst (pick (Model.chain_ingresses m c))
              else if z = len + 1 then fst (pick (Model.chain_egresses m c))
              else pick (Model.stage_dst_nodes m ~chain:c ~stage:(z - 1)))
        in
        let frac = Sb_util.Rng.float rng 3. in
        for z = 0 to len do
          Load_state.add_stage_flow st ~chain:c ~stage:z ~src:nodes.(z) ~dst:nodes.(z + 1)
            ~frac
        done
      done;
      let same ~util_weight ~chain (ingress, _) (egress, _) =
        Dp.best_path ~ingress ~egress st ~util_weight ~chain
        = Dp.best_path_pruned ~ingress ~egress st ~util_weight ~chain
      in
      List.for_all
        (fun util_weight ->
          List.for_all
            (fun chain ->
              List.for_all
                (fun i -> List.for_all (same ~util_weight ~chain i) (Model.chain_egresses m chain))
                (Model.chain_ingresses m chain))
            (List.init (Model.num_chains m) Fun.id))
        [ Dp.default_util_weight; 1. ])

(* ------------------- DP determinism and goldens -------------------- *)

(* The Fig. 12/13 scenario at its default scale (see bench/main.ml). *)
let golden_te_model ~coverage () =
  let rng = Sb_util.Rng.create 42 in
  let topo = Topology.backbone ~rng ~num_core:4 ~pops_per_core:1 () in
  Workload.synthesize ~rng topo
    { Workload.default with Workload.coverage; num_chains = 16 }

let test_dp_deterministic_without_rng () =
  (* Without [?rng] the solve must be a pure function of the model: chains
     are routed in id order and every tie-break is deterministic. *)
  let m = golden_te_model ~coverage:0.5 () in
  let r1 = Dp.solve m in
  let r2 = Dp.solve m in
  Alcotest.(check (float 0.)) "alpha reproducible" (Routing.max_alpha r1)
    (Routing.max_alpha r2);
  Alcotest.(check (float 0.)) "latency reproducible"
    (Routing.propagation_latency r1)
    (Routing.propagation_latency r2);
  for c = 0 to Model.num_chains m - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "chain %d same path decomposition" c)
      true
      (Routing.decompose_paths r1 ~chain:c = Routing.decompose_paths r2 ~chain:c)
  done

(* Golden Eval metrics captured from the seed implementation (pre-dating
   the packed path fabric, heap Dijkstra, and stage-cost cache): the
   rewrite must not change any routing decision, so these reproduce to
   float tolerance. Columns: with rng seed 1 (alpha, propagation latency,
   mean latency), then without rng (alpha, propagation latency). *)
let dp_golden_cases =
  [
    (0.25, (0.60323767217758595, 0.0093533713980553362, infinity),
     (0.50427490356457028, 0.0093108567852043418));
    (0.50, (1., 0.0061128698955647889, 0.012508888241686398),
     (1., 0.0062414536217129876));
    (0.75, (1., 0.004580620845436395, 0.013261243539377557),
     (1., 0.0062986409779017104));
    (1.00, (1., 0.003187872999863315, 0.025520269554236991),
     (0.99999999999999978, 0.0043748460553561476));
  ]

let test_dp_matches_seed_goldens () =
  List.iter
    (fun (coverage, (g_alpha, g_lat, g_mean), (g_alpha0, g_lat0)) ->
      let m = golden_te_model ~coverage () in
      let r = Dp.solve ~rng:(Sb_util.Rng.create 1) m in
      let label fmt = Printf.sprintf "%s at coverage %.2f" fmt coverage in
      Alcotest.(check (float 1e-9)) (label "alpha") g_alpha (Routing.max_alpha r);
      Alcotest.(check (float 1e-9)) (label "prop latency") g_lat
        (Routing.propagation_latency r);
      (if g_mean = infinity then
         Alcotest.(check bool) (label "mean latency saturated") true
           (Routing.mean_latency r = infinity)
       else
         Alcotest.(check (float 1e-9)) (label "mean latency") g_mean
           (Routing.mean_latency r));
      let r0 = Dp.solve m in
      Alcotest.(check (float 1e-9)) (label "alpha, no rng") g_alpha0
        (Routing.max_alpha r0);
      Alcotest.(check (float 1e-9)) (label "prop latency, no rng") g_lat0
        (Routing.propagation_latency r0))
    dp_golden_cases

(* Golden Eval metrics for every scheme on the coverage-0.5 TE scenario,
   captured from the seed implementation (pre-dating the packed instance,
   routing stores and evaluation arena): throughput = max_load_factor *
   total demand with the default seed, and mean latency at load 0.5. The
   instance rewrite must not change a single routing decision, so these
   reproduce to float tolerance. SB-LP's throughput is an LP objective and
   is pinned the same way; its latency row is [nan] and checked below. *)
let eval_golden_cases =
  [
    (Eval.Anycast, 89.675120167187061, infinity);
    (Eval.Compute_aware, 166.44956062310848, 0.0055859034078466303);
    (Eval.Onehop, 153.92111631429898, 0.0063078491054413969);
    (Eval.Dp_latency, 96.421010947344882, infinity);
    (Eval.Sb_dp, 236.25090035987967, 0.0043402356235188603);
    (Eval.Sb_lp, 238.88346859901498, nan);
  ]

(* The min-latency LP behind SB-LP's latency at load 0.5 is degenerate:
   its optimal value is unique but its optimal vertex is not, and the
   queueing latency of the returned routing depends on the vertex. So the golden is the LP
   objective of [Eval.latency]'s constrained model (load 0.5, 20 %
   compute margin), and the latency itself only has to be finite and no
   worse than SB-DP's. *)
let sb_lp_latency_objective = 0.003444414248104914

let test_eval_matches_seed_goldens () =
  let m = golden_te_model ~coverage:0.5 () in
  List.iter
    (fun (scheme, g_tput, g_lat) ->
      let label fmt = Printf.sprintf "%s %s" (Eval.scheme_name scheme) fmt in
      Alcotest.(check (float 1e-9)) (label "throughput") g_tput
        (Eval.throughput m scheme);
      let lat = Eval.latency ~load:0.5 m scheme in
      if Float.is_nan g_lat then begin
        let scaled = Model.with_scaled_traffic m 0.5 in
        let margin = Array.init (Model.num_sites m) (fun s -> -0.2 *. Model.site_capacity m s) in
        match Lpr.solve (Model.with_site_capacity_delta scaled margin) Lpr.Min_latency with
        | Error e -> Alcotest.fail e
        | Ok r ->
          Alcotest.(check (float 1e-9)) (label "latency LP objective") sb_lp_latency_objective
            r.Lpr.objective_value;
          Alcotest.(check bool) (label "latency at load 0.5 finite, <= SB-DP") true
            (Float.is_finite lat && lat <= 0.0043402356235188603)
      end
      else if g_lat = infinity then
        Alcotest.(check bool) (label "latency saturated") true (lat = infinity)
      else Alcotest.(check (float 1e-9)) (label "latency at load 0.5") g_lat lat)
    eval_golden_cases

let test_eval_grids_match_scalar () =
  (* The domain-fanned grids must agree exactly with the scalar entry
     points, whatever the domain count. *)
  let m = golden_te_model ~coverage:0.5 () in
  let schemes = [| Eval.Anycast; Eval.Sb_dp |] in
  let tg = Eval.throughput_grid [| m |] schemes in
  Array.iteri
    (fun j s ->
      Alcotest.(check (float 0.)) (Eval.scheme_name s ^ " grid throughput")
        (Eval.throughput m s) tg.(0).(j))
    schemes;
  let loads = [| 0.25; 0.5 |] in
  let lg = Eval.latency_grid ~loads m schemes in
  Array.iteri
    (fun i load ->
      Array.iteri
        (fun j s ->
          let v = Eval.latency ~load m s in
          if v = infinity then
            Alcotest.(check bool)
              (Printf.sprintf "%s grid latency inf at %.2f" (Eval.scheme_name s) load)
              true (lg.(i).(j) = infinity)
          else
            Alcotest.(check (float 0.))
              (Printf.sprintf "%s grid latency at %.2f" (Eval.scheme_name s) load)
              v lg.(i).(j))
        schemes)
    loads

let () =
  Alcotest.run "sb_core"
    [
      ( "model",
        [
          Alcotest.test_case "accessors" `Quick test_model_accessors;
          Alcotest.test_case "total demand" `Quick test_model_total_demand;
          Alcotest.test_case "traffic scaling" `Quick test_model_scaling;
          Alcotest.test_case "capacity delta" `Quick test_model_capacity_delta;
          Alcotest.test_case "extra deployments" `Quick test_model_extra_deployments;
          Alcotest.test_case "validation" `Quick test_model_validation;
          Alcotest.test_case "chain traffic factors" `Quick test_model_chain_traffic_factors;
          Alcotest.test_case "failed links" `Quick test_model_failed_links;
          Alcotest.test_case "failed links keep background" `Quick
            test_model_failed_links_preserves_background;
          Alcotest.test_case "failed sites" `Quick test_model_failed_sites;
          Alcotest.test_case "failure reduces throughput" `Quick test_failure_reduces_throughput;

        ] );
      ( "spec",
        [
          Alcotest.test_case "parse + roundtrip" `Quick test_spec_parse_roundtrip;
          Alcotest.test_case "parsed model routes" `Quick test_spec_parse_is_routable;
          Alcotest.test_case "synthesized roundtrip" `Quick test_spec_synthesized_roundtrip;
          Alcotest.test_case "rejects malformed input" `Quick test_spec_errors;
          Alcotest.test_case "errors carry line numbers" `Quick test_spec_error_has_line_number;
          Alcotest.test_case "chainm multi-endpoint roundtrip" `Quick test_spec_chainm_roundtrip;
        ] );
      ( "routing",
        [
          Alcotest.test_case "single path valid" `Quick test_routing_single_path_valid;
          Alcotest.test_case "split valid" `Quick test_routing_split_valid;
          Alcotest.test_case "detects underflow" `Quick test_routing_detects_underflow;
          Alcotest.test_case "detects bad site" `Quick test_routing_detects_bad_site;
          Alcotest.test_case "detects conservation violation" `Quick
            test_routing_detects_conservation_violation;
          Alcotest.test_case "alpha bottleneck" `Quick test_routing_alpha_bottleneck;
          Alcotest.test_case "load-state counts" `Quick test_routing_load_state_counts;
          Alcotest.test_case "propagation latency" `Quick test_routing_latency_propagation;
          Alcotest.test_case "queueing saturation" `Quick test_routing_queueing_saturation;
          Alcotest.test_case "decompose roundtrip" `Quick test_decompose_roundtrip;
          Alcotest.test_case "decompose LP routing" `Slow test_decompose_lp_routing;
          Alcotest.test_case "decompose sweep minor words" `Quick test_decompose_minor_words;
        ] );
      ( "greedy",
        [
          Alcotest.test_case "anycast nearest" `Quick test_anycast_picks_nearest;
          Alcotest.test_case "compute-aware avoids saturation" `Quick
            test_compute_aware_avoids_saturation;
          Alcotest.test_case "onehop valid" `Quick test_onehop_valid_on_synth;
          Alcotest.test_case "all valid on synth" `Quick test_greedy_all_valid_on_synth;
        ] );
      ( "dp",
        [
          Alcotest.test_case "best path when unloaded" `Quick
            test_dp_best_path_shortest_when_unloaded;
          Alcotest.test_case "valid and conserving" `Quick test_dp_valid_and_conserving;
          Alcotest.test_case "dp-latency valid" `Quick test_dp_latency_valid;
          Alcotest.test_case "splits under pressure" `Quick test_dp_splits_under_pressure;
          Alcotest.test_case "beats latency-only on throughput" `Quick
            test_dp_beats_latency_only_on_throughput;
          Alcotest.test_case "deterministic given seed" `Quick test_dp_deterministic_given_seed;
          Alcotest.test_case "deterministic without rng" `Quick
            test_dp_deterministic_without_rng;
          Alcotest.test_case "matches seed goldens" `Quick test_dp_matches_seed_goldens;
        ] );
      ( "lp",
        [
          Alcotest.test_case "min latency optimal" `Quick test_lp_min_latency_optimal_on_small;
          Alcotest.test_case "throughput beats heuristics" `Slow
            test_lp_throughput_beats_heuristics;
          Alcotest.test_case "alpha consistency" `Slow test_lp_throughput_matches_alpha_of_routing;
          Alcotest.test_case "respects MLU" `Quick test_lp_respects_mlu;
          Alcotest.test_case "infeasible over capacity" `Quick
            test_lp_infeasible_when_over_capacity;
          Alcotest.test_case "background reduces throughput" `Quick
            test_lp_background_reduces_throughput;
          Alcotest.test_case "benchmark-scale objective" `Quick test_lp_benchmark_scale;
          Alcotest.test_case "benchmark-scale work" `Quick test_lp_benchmark_work;
          Alcotest.test_case "columns match the list-built model" `Quick
            test_lp_columns_match_oracle;
        ] );
      ( "eval",
        [
          Alcotest.test_case "scheme ordering" `Slow test_eval_scheme_ordering;
          Alcotest.test_case "latency grows with load" `Slow test_eval_latency_increases_with_load;
          Alcotest.test_case "anycast dies early" `Slow test_eval_anycast_dies_early;
          Alcotest.test_case "routes valid" `Slow test_eval_route_returns_valid;
          Alcotest.test_case "matches seed goldens" `Slow test_eval_matches_seed_goldens;
          Alcotest.test_case "grids match scalar" `Slow test_eval_grids_match_scalar;
        ] );
      ( "workload",
        [
          Alcotest.test_case "shape" `Quick test_workload_shape;
          Alcotest.test_case "traffic total" `Quick test_workload_traffic_total;
          Alcotest.test_case "coverage" `Quick test_workload_coverage;
          Alcotest.test_case "capacity division" `Quick test_workload_site_capacity_division;
          Alcotest.test_case "background present" `Quick test_workload_background_positive;
        ] );
      ( "capacity",
        [
          Alcotest.test_case "optimize beats uniform" `Slow test_capacity_optimize_beats_uniform;
          Alcotest.test_case "zero budget noop" `Slow test_capacity_zero_budget_noop;
          Alcotest.test_case "monotone in budget" `Slow test_capacity_monotone_in_budget;
        ] );
      ( "placement",
        [
          Alcotest.test_case "suggest improves latency" `Quick
            test_placement_suggest_improves_latency;
          Alcotest.test_case "adds requested sites" `Quick test_placement_adds_requested_sites;
          Alcotest.test_case "MIP small instance" `Quick test_placement_mip_small;
          Alcotest.test_case "anti-affinity honoured" `Quick
            test_placement_anti_affinity_honoured;
          Alcotest.test_case "cloud caps honoured" `Quick test_placement_cloud_caps_honoured;
          Alcotest.test_case "no_constraints bit-identical" `Quick
            test_placement_no_constraints_bit_identical;
        ] );
      ( "deployment_edits",
        [
          Alcotest.test_case "without_deployments validates ids" `Quick
            test_without_deployments_validates_ids;
        ] );
      ( "multi_endpoint",
        [
          Alcotest.test_case "shares normalized" `Quick test_multi_endpoint_shares_normalized;
          Alcotest.test_case "validation" `Quick test_multi_endpoint_validation;
          Alcotest.test_case "greedy routes" `Quick test_multi_endpoint_greedy;
          Alcotest.test_case "DP routes" `Quick test_multi_endpoint_dp;
          Alcotest.test_case "LP routes" `Quick test_multi_endpoint_lp;
          Alcotest.test_case "LP dominates DP" `Quick test_multi_endpoint_lp_dominates_dp;
          Alcotest.test_case "decompose" `Quick test_multi_endpoint_decompose;
        ] );
      ( "edge_cases",
        [
          Alcotest.test_case "LP budget requires throughput objective" `Quick
            test_lp_cloud_budget_requires_throughput;
          Alcotest.test_case "Eval LP fallback over capacity" `Quick
            test_eval_lp_fallback_over_capacity;
          Alcotest.test_case "MIP node limit" `Quick test_mip_node_limit;
          Alcotest.test_case "workload invalid params" `Quick test_workload_invalid_params;
          Alcotest.test_case "placement zero sites" `Quick test_placement_zero_sites_noop;
          Alcotest.test_case "DP unroutable chain" `Quick test_dp_unroutable_chain;
          Alcotest.test_case "spec missing file" `Quick test_spec_missing_file;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_schemes_always_valid;
          QCheck_alcotest.to_alcotest prop_lp_dominates_dp;
          QCheck_alcotest.to_alcotest prop_routing_packed_roundtrip;
          QCheck_alcotest.to_alcotest prop_decompose_matches_oracle;
          QCheck_alcotest.to_alcotest prop_dp_prune_matches_full_sweep;
        ] );
    ]
