module Maxmin = Sb_flowsim.Maxmin

let solve_simple () =
  (* One link of capacity 9 shared by 3 flows -> 3 each. *)
  let t = Maxmin.create () in
  let r = Maxmin.add_resource t ~capacity:9. in
  let f1 = Maxmin.add_flow t [ r ] in
  let f2 = Maxmin.add_flow t [ r ] in
  let f3 = Maxmin.add_flow t [ r ] in
  let rates = Maxmin.solve t in
  (rates, f1, f2, f3)

let test_equal_share () =
  let rates, f1, f2, f3 = solve_simple () in
  List.iter
    (fun f -> Alcotest.(check (float 1e-9)) "fair share" 3. rates.(f))
    [ f1; f2; f3 ]

let test_demand_cap_redistributes () =
  (* Capacity 9, one flow capped at 1 -> others get 4 each. *)
  let t = Maxmin.create () in
  let r = Maxmin.add_resource t ~capacity:9. in
  let f1 = Maxmin.add_flow t ~demand:1. [ r ] in
  let f2 = Maxmin.add_flow t [ r ] in
  let f3 = Maxmin.add_flow t [ r ] in
  let rates = Maxmin.solve t in
  Alcotest.(check (float 1e-9)) "capped" 1. rates.(f1);
  Alcotest.(check (float 1e-9)) "f2 grows" 4. rates.(f2);
  Alcotest.(check (float 1e-9)) "f3 grows" 4. rates.(f3)

let test_two_bottlenecks () =
  (* Classic: link A cap 1 (flows 1,3), link B cap 2 (flows 2,3).
     Max-min: f1 = f3 = 0.5, f2 = 1.5. *)
  let t = Maxmin.create () in
  let a = Maxmin.add_resource t ~capacity:1. in
  let b = Maxmin.add_resource t ~capacity:2. in
  let f1 = Maxmin.add_flow t [ a ] in
  let f2 = Maxmin.add_flow t [ b ] in
  let f3 = Maxmin.add_flow t [ a; b ] in
  let rates = Maxmin.solve t in
  Alcotest.(check (float 1e-9)) "f1" 0.5 rates.(f1);
  Alcotest.(check (float 1e-9)) "f2" 1.5 rates.(f2);
  Alcotest.(check (float 1e-9)) "f3" 0.5 rates.(f3)

let test_no_resources_unbounded_demand () =
  let t = Maxmin.create () in
  let f = Maxmin.add_flow t ~demand:7. [] in
  let rates = Maxmin.solve t in
  Alcotest.(check (float 1e-9)) "meets demand" 7. rates.(f)

let test_utilization () =
  let t = Maxmin.create () in
  let r = Maxmin.add_resource t ~capacity:10. in
  let _ = Maxmin.add_flow t ~demand:4. [ r ] in
  let rates = Maxmin.solve t in
  Alcotest.(check (float 1e-9)) "40%" 0.4 (Maxmin.resource_utilization t rates r)

let test_rejects_bad_resource () =
  let t = Maxmin.create () in
  Alcotest.check_raises "bad capacity"
    (Invalid_argument "Maxmin.add_resource: non-positive capacity") (fun () ->
      ignore (Maxmin.add_resource t ~capacity:0.));
  Alcotest.check_raises "NaN capacity" (Invalid_argument "Maxmin.add_resource: NaN capacity")
    (fun () -> ignore (Maxmin.add_resource t ~capacity:Float.nan));
  Alcotest.check_raises "unknown resource"
    (Invalid_argument "Maxmin.add_flow: unknown resource") (fun () ->
      ignore (Maxmin.add_flow t [ 3 ]));
  let r = Maxmin.add_resource t ~capacity:1. in
  List.iter
    (fun demand ->
      Alcotest.check_raises "bad demand"
        (Invalid_argument "Maxmin.add_flow: negative or NaN demand") (fun () ->
          ignore (Maxmin.add_flow t ~demand [ r ])))
    [ -1.; Float.nan; Float.neg_infinity ];
  (* Rejected flows leave no trace: the one good flow gets the capacity. *)
  let f = Maxmin.add_flow t [ r ] in
  Alcotest.(check (array (float 0.))) "only the good flow" [| 1. |] (Maxmin.solve t);
  Alcotest.(check int) "its id" 0 f

(* Property: the allocation carries the max-min certificate. Capacities
   and demands are respected, and every flow is at its demand or crosses
   a saturated resource on which no flow has a higher rate, so no flow
   can grow without shrinking one that is no faster. Demands are drawn
   from a small set so that they tie, and some resources have less
   headroom than the solver's saturation threshold. *)
let prop_maxmin_certificate =
  QCheck.Test.make ~name:"max-min certificate" ~count:100
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Sb_util.Rng.create seed in
      let t = Maxmin.create () in
      let nres = 1 + Sb_util.Rng.int rng 50 in
      let cap () =
        match Sb_util.Rng.int rng 6 with
        | 0 -> 1e-10
        | 1 -> float_of_int (1 + Sb_util.Rng.int rng 4)
        | _ -> Sb_util.Rng.uniform_in rng 0.5 40.
      in
      let caps = Array.init nres (fun _ -> cap ()) in
      Array.iteri (fun r c -> assert (Maxmin.add_resource t ~capacity:c = r)) caps;
      let demands = [| 0.; 0.25; 0.5; 1.; 2.; 5. |] in
      let nflows = 1 + Sb_util.Rng.int rng 500 in
      let flows =
        Array.init nflows (fun _ ->
            let k = Sb_util.Rng.int rng (min 5 (nres + 1)) in
            let rs = Sb_util.Rng.sample_without_replacement rng k nres in
            let demand =
              match Sb_util.Rng.int rng 4 with
              | 0 when rs <> [] -> infinity
              | 1 -> Sb_util.Rng.uniform_in rng 0. 8.
              | _ -> Sb_util.Rng.choice rng demands
            in
            (Maxmin.add_flow t ~demand rs, rs, demand))
      in
      let rates = Maxmin.solve t in
      let util = Maxmin.utilizations t rates in
      let fastest = Array.make nres 0. in
      Array.iter
        (fun (f, rs, _) ->
          List.iter (fun r -> fastest.(r) <- Float.max fastest.(r) rates.(f)) rs)
        flows;
      (* Saturated: less than 1e-6 of headroom left. The solver treats a
         resource as full at 1e-9, so one created with less headroom than
         that is saturated from the start. *)
      let saturated r = caps.(r) *. (1. -. util.(r)) <= 1e-6 in
      let caps_ok = Array.for_all (fun u -> u <= 1. +. 1e-6) util in
      let demands_ok = Array.for_all (fun (f, _, d) -> rates.(f) <= d +. 1e-6) flows in
      let bottleneck_ok =
        Array.for_all
          (fun (f, rs, d) ->
            rates.(f) >= d -. 1e-6
            || List.exists (fun r -> saturated r && fastest.(r) <= rates.(f) +. 1e-6) rs)
          flows
      in
      caps_ok && demands_ok && bottleneck_ok)

(* ------------------------- e2e evaluation -------------------------- *)

module Model = Sb_core.Model
module Routing = Sb_core.Routing
module Topology = Sb_net.Topology

(* Two sites, one firewall VNF, one chain. *)
let two_site_model () =
  let topo = Topology.line ~delays:[ 0.040 ] ~bandwidth:100. in
  let b = Model.builder topo in
  let sa = Model.add_site b ~node:0 ~capacity:10. in
  let sb = Model.add_site b ~node:1 ~capacity:10. in
  let fw = Model.add_vnf b ~name:"fw" ~cpu_per_unit:1. in
  Model.deploy b ~vnf:fw ~site:sa ~capacity:10.;
  Model.deploy b ~vnf:fw ~site:sb ~capacity:10.;
  let _c = Model.add_chain b ~ingress:0 ~egress:1 ~vnfs:[ fw ] ~fwd:4. () in
  Model.finalize b ()

let test_e2e_throughput_bounded () =
  let m = two_site_model () in
  let r = Sb_core.Greedy.anycast m in
  let result = Sb_flowsim.E2e.evaluate r in
  (* Firewall at site A caps rate at m_sf / (2 l_f) = 5. *)
  Alcotest.(check bool) "throughput within VNF capacity" true
    (result.Sb_flowsim.E2e.total_throughput <= 5. +. 1e-6);
  Alcotest.(check bool) "throughput positive" true
    (result.Sb_flowsim.E2e.total_throughput > 0.)

let test_e2e_rtt_includes_propagation () =
  let m = two_site_model () in
  let r = Sb_core.Greedy.anycast m in
  let result = Sb_flowsim.E2e.evaluate r in
  (* One WAN crossing of 40 ms -> RTT at least 80 ms. *)
  Alcotest.(check bool) "rtt >= 2x prop" true (result.Sb_flowsim.E2e.mean_rtt >= 0.080)

let test_e2e_per_chain_consistent () =
  let m = two_site_model () in
  let r = Sb_core.Greedy.anycast m in
  let result = Sb_flowsim.E2e.evaluate r in
  let sum = List.fold_left (fun acc (t, _) -> acc +. t) 0. result.Sb_flowsim.E2e.per_chain in
  Alcotest.(check (float 1e-6)) "per-chain sums to total"
    result.Sb_flowsim.E2e.total_throughput sum

let test_e2e_window_cap () =
  let m = two_site_model () in
  let r = Sb_core.Greedy.anycast m in
  let tight = Sb_flowsim.E2e.evaluate ~window_rtt_cap:0.001 r in
  let loose = Sb_flowsim.E2e.evaluate ~window_rtt_cap:100. r in
  Alcotest.(check bool) "window cap limits throughput" true
    (tight.Sb_flowsim.E2e.total_throughput < loose.Sb_flowsim.E2e.total_throughput)

let test_e2e_rejects_bad_args () =
  let r = Sb_core.Greedy.anycast (two_site_model ()) in
  Alcotest.check_raises "flows_per_chain"
    (Invalid_argument "E2e.evaluate: flows_per_chain must be positive") (fun () ->
      ignore (Sb_flowsim.E2e.evaluate ~flows_per_chain:0 r))

let test_e2e_rejects_bad_window () =
  let r = Sb_core.Greedy.anycast (two_site_model ()) in
  Alcotest.check_raises "window_rtt_cap"
    (Invalid_argument "E2e.evaluate: window_rtt_cap must be positive") (fun () ->
      ignore (Sb_flowsim.E2e.evaluate ~window_rtt_cap:(-1.) r))

let test_e2e_rejects_bad_service_time () =
  let r = Sb_core.Greedy.anycast (two_site_model ()) in
  Alcotest.check_raises "vnf_service_time"
    (Invalid_argument "E2e.evaluate: vnf_service_time must be non-negative") (fun () ->
      ignore (Sb_flowsim.E2e.evaluate ~vnf_service_time:(-0.001) r))

(* Exact outputs on an SB-DP routing of the 12-chain backbone25 at seed 7,
   pinned as hex floats: once with the defaults, once with window caps
   tight enough that some flows stop at their demand and others at a
   saturated resource. *)
let test_e2e_pinned () =
  let m =
    Sb_adapt.Scenario.backbone25 { Sb_adapt.Scenario.default_config with num_chains = 12 }
  in
  let r = Sb_core.Dp_routing.solve ~rng:(Sb_util.Rng.create 7) m in
  let hex = Printf.sprintf "%h" in
  let check name ~tput ~rtt per_chain e =
    Alcotest.(check string)
      (name ^ " total_throughput") tput
      (hex e.Sb_flowsim.E2e.total_throughput);
    Alcotest.(check string) (name ^ " mean_rtt") rtt (hex e.Sb_flowsim.E2e.mean_rtt);
    Alcotest.(check (list (pair string string)))
      (name ^ " per_chain") per_chain
      (List.map (fun (t, l) -> (hex t, hex l)) e.Sb_flowsim.E2e.per_chain)
  in
  check "default" ~tput:"0x1.4f00000000002p+6" ~rtt:"0x1.0b14c585d900dp-2"
    [
        ("0x1.3fffffffffffbp+3", "0x1.cfc4d1e8fbe12p-2");
        ("0x1.9000000000001p+2", "0x1.3c078297472fap-2");
        ("0x1.c924924924924p+2", "0x1.531e23c5be072p-3");
        ("0x1.c924924924924p+2", "0x1.4e49a2ed138f6p-3");
        ("0x1.4000000000001p+2", "0x1.e0d094bab5a42p-3");
        ("0x1.c924924924924p+2", "0x1.6ecf310dd1fd6p-2");
        ("0x1.c924924924923p+1", "0x1.24a5555c6d5dp-3");
        ("0x1.9000000000001p+2", "0x1.959e0e75b8e6cp-2");
        ("0x1.c924924924924p+3", "0x1.926e15e7465f2p-3");
        ("0x1.9000000000001p+2", "0x1.64975ad1ccc36p-2");
        ("0x1.c924924924924p+2", "0x1.b02c1ef5fef3p-3");
        ("0x1.c924924924923p+1", "0x1.36d8c139e8b87p-3");
    ]
    (Sb_flowsim.E2e.evaluate r);
  check "tight" ~tput:"0x1.3d3e24872dd19p+6" ~rtt:"0x1.d0091eaca084cp-3"
    [
        ("0x1.06baa1dfde0cbp+3", "0x1.8fc400b89c3eep-4");
        ("0x1.9p+2", "0x1.3c078297472f8p-2");
        ("0x1.c924924924925p+2", "0x1.531e23c5be074p-3");
        ("0x1.c924924924925p+2", "0x1.4e49a2ed138f7p-3");
        ("0x1.3ffffffffffffp+2", "0x1.e0d094bab5a42p-3");
        ("0x1.c924924924925p+2", "0x1.6ecf310dd1fd8p-2");
        ("0x1.c924924924925p+1", "0x1.24a5555c6d5dp-3");
        ("0x1.9p+2", "0x1.959e0e75b8e6bp-2");
        ("0x1.745b14a2b5128p+3", "0x1.20a066f6c0752p-3");
        ("0x1.9p+2", "0x1.648f79ca7b9cfp-2");
        ("0x1.c924924924925p+2", "0x1.b02c1ef5fef3p-3");
        ("0x1.c924924924925p+1", "0x1.36d8c139e8b8ap-3");
    ]
    (Sb_flowsim.E2e.evaluate ~flows_per_chain:5 ~window_rtt_cap:0.1 r)

let () =
  Alcotest.run "sb_flowsim"
    [
      ( "maxmin",
        [
          Alcotest.test_case "equal share" `Quick test_equal_share;
          Alcotest.test_case "demand cap redistributes" `Quick test_demand_cap_redistributes;
          Alcotest.test_case "two bottlenecks" `Quick test_two_bottlenecks;
          Alcotest.test_case "unconstrained demand" `Quick test_no_resources_unbounded_demand;
          Alcotest.test_case "utilization" `Quick test_utilization;
          Alcotest.test_case "rejects bad inputs" `Quick test_rejects_bad_resource;
        ] );
      ( "e2e",
        [
          Alcotest.test_case "throughput bounded" `Quick test_e2e_throughput_bounded;
          Alcotest.test_case "rtt includes propagation" `Quick test_e2e_rtt_includes_propagation;
          Alcotest.test_case "per-chain consistent" `Quick test_e2e_per_chain_consistent;
          Alcotest.test_case "window cap" `Quick test_e2e_window_cap;
          Alcotest.test_case "rejects flows_per_chain <= 0" `Quick test_e2e_rejects_bad_args;
          Alcotest.test_case "rejects window_rtt_cap <= 0" `Quick test_e2e_rejects_bad_window;
          Alcotest.test_case "rejects vnf_service_time < 0" `Quick
            test_e2e_rejects_bad_service_time;
          Alcotest.test_case "pinned on backbone25" `Quick test_e2e_pinned;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_maxmin_certificate ]);
    ]
