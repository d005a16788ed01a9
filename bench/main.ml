(* Reproduction harness: one entry per table/figure of the paper's
   evaluation (Sections 5.4, 6 and 7), plus Bechamel microbenchmarks of the
   core kernels. Run all with `dune exec bench/main.exe`, or a subset with
   `dune exec bench/main.exe -- fig12a fig9 micro`. *)

module Table = Sb_util.Table
module Rng = Sb_util.Rng
module Model = Sb_core.Model
module Routing = Sb_core.Routing
module Eval = Sb_core.Eval
module Workload = Sb_core.Workload
module Topology = Sb_net.Topology

let header title = Printf.printf "\n=== %s ===\n" title

let fmt_or_dash v = if v = infinity then "-" else Printf.sprintf "%.3g" v

(* ------------------------------------------------------------------ *)
(* Figure 7: OVS-based forwarder overhead                              *)
(* ------------------------------------------------------------------ *)

let fig7 () =
  header "Figure 7: OVS forwarder overhead (bridge vs labels vs flow affinity)";
  let module Ovs = Sb_dataplane.Ovs_model in
  let t =
    Table.create
      ~header:
        [ "flows"; "bridge kpps"; "labels kpps"; "affinity kpps"; "labels ovh";
          "affinity ovh (vs labels)" ]
  in
  List.iter
    (fun flows ->
      Table.add_row t
        [
          string_of_int flows;
          Printf.sprintf "%.0f" (Ovs.throughput_kpps Ovs.Bridge ~flows);
          Printf.sprintf "%.0f" (Ovs.throughput_kpps Ovs.Labels ~flows);
          Printf.sprintf "%.0f" (Ovs.throughput_kpps Ovs.Labels_affinity ~flows);
          Printf.sprintf "+%.1f%%" (100. *. Ovs.overhead_vs_bridge Ovs.Labels ~flows);
          Printf.sprintf "+%.1f%%" (100. *. Ovs.overhead_vs_labels ~flows);
        ])
    [ 1; 2; 5; 10; 20; 30; 40; 50 ];
  Table.print t;
  print_endline "(paper: labels +19-29%, affinity a further +33-44%, shrinking with flows)";
  (* Cross-check: the executable match-action pipeline (real tables, same
     cycle constants) agrees with the closed-form rows above. *)
  let module Ovsp = Sb_dataplane.Ovs_pipeline in
  let t2 =
    Table.create ~header:[ "flows"; "bridge kpps (executed)"; "affinity kpps (executed)"; "upcalls" ]
  in
  List.iter
    (fun flows ->
      let bridge = Ovsp.run_stream (Ovsp.create Ovs.Bridge) ~flows ~packets:(100 * flows) in
      let aff =
        Ovsp.run_stream (Ovsp.create Ovs.Labels_affinity) ~flows ~packets:(100 * flows)
      in
      Table.add_row t2
        [
          string_of_int flows;
          Printf.sprintf "%.0f" bridge.Ovsp.throughput_kpps;
          Printf.sprintf "%.0f" aff.Ovsp.throughput_kpps;
          string_of_int aff.Ovsp.upcalls;
        ])
    [ 1; 10; 50 ];
  print_endline "\nexecuted OVS pipeline (same constants, real flow/learn tables):";
  Table.print t2

(* ------------------------------------------------------------------ *)
(* Figure 8: DPDK forwarder scale-out                                  *)
(* ------------------------------------------------------------------ *)

let fig8 () =
  header "Figure 8: DPDK forwarder horizontal scaling (512K flows per forwarder)";
  let module Dpdk = Sb_dataplane.Dpdk_model in
  let t =
    Table.create
      ~header:[ "forwarders"; "total flows"; "Mpps"; "Gbps @500B"; "latency@low"; "latency@max" ]
  in
  for cores = 1 to 6 do
    let flows_per_core = 524_288 in
    Table.add_row t
      [
        string_of_int cores;
        Printf.sprintf "%dK" (cores * 512);
        Printf.sprintf "%.1f" (Dpdk.throughput_mpps ~cores ~flows_per_core);
        Printf.sprintf "%.0f" (Dpdk.throughput_gbps ~cores ~flows_per_core ~packet_bytes:500);
        Printf.sprintf "%.0f us" (1e6 *. Dpdk.latency_s ~cores ~flows_per_core ~load:0.1);
        Printf.sprintf "%.2f ms" (1e3 *. Dpdk.latency_s ~cores ~flows_per_core ~load:0.99999);
      ]
  done;
  Table.print t;
  Printf.printf "single core, few flows: %.1f Mpps (paper: ~7)\n"
    (Dpdk.throughput_mpps ~cores:1 ~flows_per_core:1024);
  Printf.printf "single core, 30M flows: %.1f Mpps steady state (paper: >3)\n"
    (Dpdk.throughput_mpps ~cores:1 ~flows_per_core:30_000_000)

(* ------------------------------------------------------------------ *)
(* Figure 9: message bus vs full-mesh broadcast                        *)
(* ------------------------------------------------------------------ *)

let fig9 () =
  header "Figure 9: global message bus vs full-mesh broadcast";
  let module BC = Sb_msgbus.Broadcast_compare in
  let setup = BC.default_setup in
  let t =
    Table.create
      ~header:
        [ "publish rate"; "SB goodput"; "SB med lat"; "SB drop"; "FM goodput"; "FM med lat";
          "FM drop" ]
  in
  List.iter
    (fun rate ->
      let sb = BC.run setup ~mode:Sb_msgbus.Bus.Switchboard ~rate in
      let fm = BC.run setup ~mode:Sb_msgbus.Bus.Full_mesh ~rate in
      Table.add_row t
        [
          Printf.sprintf "%.0f/s" rate;
          Printf.sprintf "%.1f/s" sb.BC.goodput;
          Printf.sprintf "%.0f ms" (1000. *. sb.BC.median_latency);
          Printf.sprintf "%.0f%%" (100. *. sb.BC.drop_fraction);
          Printf.sprintf "%.1f/s" fm.BC.goodput;
          Printf.sprintf "%.0f ms" (1000. *. fm.BC.median_latency);
          Printf.sprintf "%.0f%%" (100. *. fm.BC.drop_fraction);
        ])
    [ 10.; 25.; 42.; 100.; 200.; 400. ];
  Table.print t;
  let sb = BC.run setup ~mode:Sb_msgbus.Bus.Switchboard ~rate:42. in
  let fm = BC.run setup ~mode:Sb_msgbus.Bus.Full_mesh ~rate:42. in
  Printf.printf
    "at the full-mesh saturation knee: bus delivers +%.0f%% goodput (paper: +57%%)\n"
    (100. *. ((sb.BC.goodput /. fm.BC.goodput) -. 1.));
  let sb_sat = BC.run setup ~mode:Sb_msgbus.Bus.Switchboard ~rate:150. in
  let fm_sat = BC.run setup ~mode:Sb_msgbus.Bus.Full_mesh ~rate:150. in
  Printf.printf "under load: full-mesh latency is %.1fx the bus (paper: >10x)\n"
    (fm_sat.BC.median_latency /. sb_sat.BC.median_latency);
  (* The iBGP-style route-reflector alternative Section 6 discusses: fewer
     copies than full mesh, but it floods uninterested sites and the
     reflector serializes everything. *)
  let t2 =
    Table.create ~header:[ "publish rate"; "RR goodput"; "RR med lat"; "RR WAN msgs/publish" ]
  in
  List.iter
    (fun rate ->
      let rr = BC.run setup ~mode:(Sb_msgbus.Bus.Route_reflector 1) ~rate in
      Table.add_row t2
        [
          Printf.sprintf "%.0f/s" rate;
          Printf.sprintf "%.1f/s" rr.BC.goodput;
          Printf.sprintf "%.0f ms" (1000. *. rr.BC.median_latency);
          Printf.sprintf "%.1f"
            (float_of_int rr.BC.wan_messages /. (rate *. setup.BC.duration));
        ])
    [ 42.; 100.; 200. ];
  print_endline "\niBGP-style route reflector (Section 6's strawman):";
  Table.print t2;
  print_endline
    "(the reflector floods every site per update and adds a hop; Switchboard sends only to\n subscribing sites directly)"

(* ------------------------------------------------------------------ *)
(* Fig. 10 / Table 2 fixtures: a two/three-site control-plane system    *)
(* ------------------------------------------------------------------ *)

module Csys = Sb_ctrl.System
module Ct = Sb_ctrl.Types
module Eng = Sb_sim.Engine
module Plane = Sb_dataplane.Plane
module Shard = Sb_dataplane.Shard
module Packet = Sb_dataplane.Packet

let nat_vnf = 7

let make_ctrl_system ~num_sites ~delay ~install_latency =
  let sys = Csys.create ~num_sites ~delay ~gsb_site:0 ~install_latency () in
  Csys.deploy_vnf sys ~vnf:nat_vnf ~site:0 ~capacity:10. ~instances:2;
  Csys.deploy_vnf sys ~vnf:nat_vnf ~site:1 ~capacity:10. ~instances:2;
  Csys.register_edge sys ~site:0 ~attachment:"siteA";
  Csys.register_edge sys ~site:1 ~attachment:"siteB";
  Csys.set_route_policy sys (fun _spec ~exclude ->
      if List.mem (nat_vnf, 0) exclude then
        Some [ { Ct.element_sites = [| 0; 1; 1 |]; weight = 1.0 } ]
      else Some [ { Ct.element_sites = [| 0; 0; 1 |]; weight = 1.0 } ]);
  sys

let nat_chain_spec =
  {
    Ct.spec_name = "nat-chain";
    ingress_attachment = "siteA";
    egress_attachment = "siteB";
    vnfs = [ nat_vnf ];
    traffic = 5.0;
  }

let fig10a () =
  header "Figure 10a: dynamic chain-route creation timeline";
  let delay a b = if a = b then 0. else 0.030 in
  let sys = make_ctrl_system ~num_sites:2 ~delay ~install_latency:0.09 in
  let chain = Csys.request_chain sys nat_chain_spec in
  Eng.run (Csys.engine sys);
  let t0 = Eng.now (Csys.engine sys) in
  Csys.add_route sys ~chain { Ct.element_sites = [| 0; 1; 1 |]; weight = 0.5 };
  Eng.run (Csys.engine sys);
  let t1 = Eng.now (Csys.engine sys) in
  let t = Table.create ~header:[ "t since request (ms)"; "control-plane event" ] in
  List.iter
    (fun (ts, msg) ->
      Table.add_row t [ Printf.sprintf "%.0f" (1000. *. (ts -. t0)); msg ])
    (Csys.log_between sys t0 t1);
  Table.print t;
  Printf.printf "route update completed in %.0f ms (paper: 595 ms total)\n"
    (1000. *. (t1 -. t0))

let fig10b () =
  header "Figure 10b: throughput effect of adding a chain route";
  (* Connections arrive every 200 ms, each worth 0.5 traffic units, for
     40 s; the NAT at each site admits 10 units (20 connections). At t=20 s
     the second route (site B) is activated in the "update" scenario. *)
  let delay a b = if a = b then 0. else 0.030 in
  let run_scenario ~with_update =
    let sys = make_ctrl_system ~num_sites:2 ~delay ~install_latency:0.09 in
    let chain = Csys.request_chain sys nat_chain_spec in
    Eng.run (Csys.engine sys);
    if with_update then begin
      ignore
        (Eng.schedule (Csys.engine sys)
           ~delay:(20. -. Eng.now (Csys.engine sys))
           (fun () ->
             Csys.add_route sys ~chain { Ct.element_sites = [| 0; 1; 1 |]; weight = 0.5 }))
    end;
    (* Sample per-site admitted connections every 2 s. *)
    let rng = Rng.create 5 in
    let site_of_instance i = Shard.instance_site (Csys.shard sys) i in
    let fabric_site s = Shard.forwarder_site (Csys.shard sys) (Csys.site_forwarder sys s) in
    let conns_site = [| 0; 0 |] in
    let samples = ref [] in
    for step = 1 to 200 do
      let now = Eng.now (Csys.engine sys) in
      Eng.run_until (Csys.engine sys) (now +. 0.2);
      (match Csys.probe_chain sys ~chain (Packet.random_tuple rng) with
      | Ok trace ->
        List.iter
          (fun i ->
            if Shard.instance_vnf (Csys.shard sys) i = nat_vnf then begin
              if site_of_instance i = fabric_site 0 then
                conns_site.(0) <- conns_site.(0) + 1
              else conns_site.(1) <- conns_site.(1) + 1
            end)
          (Shard.instances_in_trace trace)
      | Error _ -> ());
      if step mod 20 = 0 then begin
        let tput s = Float.min (0.5 *. float_of_int conns_site.(s)) 10. in
        samples := (Eng.now (Csys.engine sys), tput 0, tput 1) :: !samples
      end
    done;
    List.rev !samples
  in
  let base = run_scenario ~with_update:false in
  let upd = run_scenario ~with_update:true in
  let t =
    Table.create
      ~header:[ "t (s)"; "no-update total"; "update: route A"; "update: route B"; "update total" ]
  in
  List.iter2
    (fun (ts, a0, a1) (_, b0, b1) ->
      Table.add_row t
        [
          Printf.sprintf "%.0f" ts;
          Printf.sprintf "%.1f" (Float.min (a0 +. a1) 10.);
          Printf.sprintf "%.1f" b0;
          Printf.sprintf "%.1f" b1;
          Printf.sprintf "%.1f" (b0 +. b1);
        ])
    base upd;
  Table.print t;
  print_endline "(paper: the added route doubles the chain's total throughput)"

let table2 () =
  header "Table 2: latency of adding a new edge site to a chain";
  (* Paper testbed delays: ~31 ms one-way control latency, ~95 ms data-plane
     configuration. *)
  let delay a b = if a = b then 0. else 0.031 in
  let sys =
    let s = Csys.create ~num_sites:3 ~delay ~gsb_site:0 ~install_latency:0.095 () in
    Csys.deploy_vnf s ~vnf:nat_vnf ~site:0 ~capacity:10. ~instances:2;
    Csys.deploy_vnf s ~vnf:nat_vnf ~site:1 ~capacity:10. ~instances:2;
    Csys.register_edge s ~site:0 ~attachment:"siteA";
    Csys.register_edge s ~site:1 ~attachment:"siteB";
    Csys.register_edge s ~site:2 ~attachment:"mobile-edge";
    Csys.set_route_policy s (fun _spec ~exclude:_ ->
        Some [ { Ct.element_sites = [| 0; 0; 1 |]; weight = 1.0 } ]);
    s
  in
  let chain = Csys.request_chain sys nat_chain_spec in
  Eng.run (Csys.engine sys);
  let t0 = Eng.now (Csys.engine sys) in
  Csys.add_edge_site sys ~chain ~site:2;
  Eng.run (Csys.engine sys);
  let t = Table.create ~header:[ "operation"; "elapsed (ms)"; "paper (ms)" ] in
  let paper =
    [
      ("chose 1st VNF's site", "0");
      ("received 1st VNF's info", "63");
      ("dataplane configured", "93 (cum. 156)");
      ("receives edge's fwrdr info", "74 (cum. 230)");
      ("starts dataplane configuration", "233 (cum. 463)");
      ("finishes configuration", "104 (cum. 567)");
    ]
  in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    m = 0 || go 0
  in
  List.iter
    (fun (key, paper_ms) ->
      match
        List.find_opt (fun (_, msg) -> contains msg key) (Csys.log_between sys t0 infinity)
      with
      | Some (ts, msg) ->
        Table.add_row t [ msg; Printf.sprintf "%.0f" (1000. *. (ts -. t0)); paper_ms ]
      | None -> Table.add_row t [ key; "MISSING"; paper_ms ])
    paper;
  Table.print t;
  (* Verify traffic actually flows from the new edge. *)
  match Csys.probe_chain sys ~chain ~ingress_site:2 (Packet.random_tuple (Rng.create 1)) with
  | Ok _ -> print_endline "probe from the new edge site traverses the chain: OK"
  | Error e -> Format.printf "probe FAILED: %a@." Shard.pp_error e

(* ------------------------------------------------------------------ *)
(* Figure 11: E2E comparison vs distributed load balancing             *)
(* ------------------------------------------------------------------ *)

(* Two sites A and B; a stateful firewall deployed at both; two chain
   routes as in Fig. 11a: chain 1 ingresses at A and egresses at B (either
   firewall is on-path), chain 2 both ingresses and egresses at A (a remote
   firewall costs a WAN detour). Anycast sends both chains to A's firewall
   (overload); Compute-Aware fills A with chain 1 and detours chain 2;
   Switchboard's LP places chain 1 at B and chain 2 at A. *)
let fig11_testbed ~rtt =
  let topo = Topology.line ~delays:[ rtt /. 2. ] ~bandwidth:1000. in
  let b = Model.builder topo in
  let sa = Model.add_site b ~node:0 ~capacity:100. in
  let sb = Model.add_site b ~node:1 ~capacity:100. in
  let fw = Model.add_vnf b ~name:"firewall" ~cpu_per_unit:1. in
  Model.deploy b ~vnf:fw ~site:sa ~capacity:10.;
  Model.deploy b ~vnf:fw ~site:sb ~capacity:10.;
  let _c1 = Model.add_chain b ~name:"route1" ~ingress:0 ~egress:1 ~vnfs:[ fw ] ~fwd:4.8 () in
  let _c2 = Model.add_chain b ~name:"route2" ~ingress:0 ~egress:0 ~vnfs:[ fw ] ~fwd:4.8 () in
  Model.finalize b ()

let fig11_run ~label ~rtt =
  let m = fig11_testbed ~rtt in
  let schemes =
    [
      ("ANYCAST", Sb_core.Greedy.anycast m);
      ("COMPUTE-AWARE", Sb_core.Greedy.compute_aware m);
      ( "SWITCHBOARD",
        match Sb_core.Lp_routing.solve m Sb_core.Lp_routing.Min_latency with
        | Ok { routing; _ } -> routing
        | Error e -> failwith ("fig11 LP: " ^ e) );
    ]
  in
  let t = Table.create ~header:[ "scheme"; "TCP throughput"; "mean RTT (ms)" ] in
  let results =
    List.map
      (fun (name, r) ->
        let e = Sb_flowsim.E2e.evaluate ~flows_per_chain:16 r in
        Table.add_row t
          [
            name;
            Printf.sprintf "%.2f" e.Sb_flowsim.E2e.total_throughput;
            Printf.sprintf "%.0f" (1000. *. e.Sb_flowsim.E2e.mean_rtt);
          ];
        (name, e))
      schemes
  in
  Printf.printf "\n-- %s (inter-site RTT %.0f ms) --\n" label (1000. *. rtt);
  Table.print t;
  let get n = List.assoc n results in
  let sb = get "SWITCHBOARD" and any = get "ANYCAST" and ca = get "COMPUTE-AWARE" in
  Printf.printf
    "Switchboard vs Anycast: +%.0f%% throughput (paper: +34/57%%); vs Compute-Aware: %.0f%% lower latency (paper: 43-49%%)\n"
    (100. *. ((sb.Sb_flowsim.E2e.total_throughput /. any.Sb_flowsim.E2e.total_throughput) -. 1.))
    (100. *. (1. -. (sb.Sb_flowsim.E2e.mean_rtt /. ca.Sb_flowsim.E2e.mean_rtt)))

let fig11 () =
  header "Figure 11: Switchboard vs distributed load-balancing schemes";
  fig11_run ~label:"Amazon testbed" ~rtt:0.150;
  fig11_run ~label:"private cloud testbed" ~rtt:0.080

(* ------------------------------------------------------------------ *)
(* Table 3: shared vs siloed cache VNF                                 *)
(* ------------------------------------------------------------------ *)

let table3 () =
  header "Table 3: sharing a cache VNF instance across chains";
  let module Sharing = Sb_cache.Sharing in
  let p = Sharing.default_params in
  let shared = Sharing.run_shared ~rng:(Rng.create 42) p in
  let siloed = Sharing.run_siloed ~rng:(Rng.create 42) p in
  let t = Table.create ~header:[ "scheme"; "hit rate"; "download time (ms)"; "paper" ] in
  Table.add_row t
    [
      "shared cache inst.";
      Printf.sprintf "%.2f%%" (100. *. shared.Sharing.hit_rate);
      Printf.sprintf "%.2f" (1000. *. shared.Sharing.mean_download_time);
      "57.45% / 56.49 ms";
    ];
  Table.add_row t
    [
      "vertically siloed inst.";
      Printf.sprintf "%.2f%%" (100. *. siloed.Sharing.hit_rate);
      Printf.sprintf "%.2f" (1000. *. siloed.Sharing.mean_download_time);
      "44.25% / 70.02 ms";
    ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* Figures 12-13: traffic engineering on the synthetic backbone        *)
(* ------------------------------------------------------------------ *)

(* The tier-1 scenario, scaled so the dense simplex solves each LP in
   under a second (see DESIGN.md on instance-size substitution): an 8-node
   backbone with 16 chains instead of the paper's full AT&T backbone with
   10 000 chains and CPLEX. *)
let te_model ?(coverage = Workload.default.Workload.coverage)
    ?(cpu = Workload.default.Workload.cpu_per_unit) ?(seed = 42) () =
  let rng = Rng.create seed in
  let topo = Topology.backbone ~rng ~num_core:4 ~pops_per_core:1 () in
  Workload.synthesize ~rng topo
    { Workload.default with Workload.coverage; cpu_per_unit = cpu; num_chains = 16 }

let fig12a () =
  header "Figure 12a: supported throughput vs VNF coverage";
  let t = Table.create ~header:[ "coverage"; "ANYCAST"; "SB-DP"; "SB-LP" ] in
  let coverages = [| 0.25; 0.5; 0.75; 1.0 |] in
  let models = Array.map (fun coverage -> te_model ~coverage ()) coverages in
  let grid = Eval.throughput_grid models [| Eval.Anycast; Eval.Sb_dp; Eval.Sb_lp |] in
  Array.iteri
    (fun i coverage ->
      Table.add_float_row t (Printf.sprintf "%.2f" coverage) (Array.to_list grid.(i)))
    coverages;
  Table.print t;
  print_endline
    "(paper: SB-LP and SB-DP improve with coverage; ANYCAST an order of magnitude lower)"

let fig12b () =
  header "Figure 12b: supported throughput vs VNF CPU/byte";
  let t = Table.create ~header:[ "CPU/unit"; "ANYCAST"; "SB-DP"; "SB-LP" ] in
  let cpus = [| 0.25; 0.5; 1.0; 2.0; 4.0 |] in
  let models = Array.map (fun cpu -> te_model ~cpu ()) cpus in
  let grid = Eval.throughput_grid models [| Eval.Anycast; Eval.Sb_dp; Eval.Sb_lp |] in
  Array.iteri
    (fun i cpu ->
      Table.add_float_row t (Printf.sprintf "%.2g" cpu) (Array.to_list grid.(i)))
    cpus;
  Table.print t;
  print_endline
    "(low CPU/unit: network-bound; high: compute-bound. SB-DP within tens of % of SB-LP)"

let fig12c () =
  header "Figure 12c: mean chain latency vs offered load";
  let m = te_model () in
  let t = Table.create ~header:[ "load factor"; "ANYCAST (ms)"; "SB-DP (ms)"; "SB-LP (ms)" ] in
  let loads = [| 0.1; 0.25; 0.5; 0.75; 1.0; 1.25; 1.5 |] in
  let grid = Eval.latency_grid ~loads m [| Eval.Anycast; Eval.Sb_dp; Eval.Sb_lp |] in
  Array.iteri
    (fun i load ->
      let lat v = if v = infinity then "-" else Printf.sprintf "%.2f" (1000. *. v) in
      Table.add_row t
        [ Printf.sprintf "%.2f" load; lat grid.(i).(0); lat grid.(i).(1); lat grid.(i).(2) ])
    loads;
  Table.print t;
  print_endline
    "('-' = the scheme cannot carry that load; paper: ANYCAST dies at ~10% of SB-LP's max load,\n SB-DP latency within 8% of SB-LP)"

let fig13a () =
  header "Figure 13a: SB-DP cost-function and holistic-routing ablations";
  let t = Table.create ~header:[ "coverage"; "DP-LATENCY"; "ONEHOP"; "SB-DP" ] in
  List.iter
    (fun coverage ->
      let m = te_model ~coverage () in
      let tput s = Eval.throughput m s in
      Table.add_float_row t
        (Printf.sprintf "%.2f" coverage)
        [ tput Eval.Dp_latency; tput Eval.Onehop; tput Eval.Sb_dp ])
    [ 0.25; 0.5; 0.75; 1.0 ];
  Table.print t;
  print_endline
    "(paper: SB-DP up to 6x DP-LATENCY and 2.3x ONEHOP: both the utilization-aware cost\n and the holistic chain-wide optimization contribute)"

let fig13b () =
  header "Figure 13b: cloud capacity planning (extra capacity placement)";
  let m = te_model () in
  let t =
    Table.create ~header:[ "extra capacity"; "uniform alpha"; "optimized alpha"; "gain" ]
  in
  List.iter
    (fun budget ->
      match
        (Sb_core.Capacity.uniform m ~budget, Sb_core.Capacity.optimize m ~budget)
      with
      | Ok uni, Ok opt ->
        Table.add_row t
          [
            Printf.sprintf "%.0f" budget;
            Printf.sprintf "%.3f" uni.Sb_core.Capacity.alpha;
            Printf.sprintf "%.3f" opt.Sb_core.Capacity.alpha;
            Printf.sprintf "+%.1f%%"
              (100. *. ((opt.Sb_core.Capacity.alpha /. uni.Sb_core.Capacity.alpha) -. 1.));
          ]
      | Error e, _ | _, Error e -> Table.add_row t [ Printf.sprintf "%.0f" budget; e; ""; "" ])
    [ 0.; 100.; 200.; 400.; 800. ];
  Table.print t;
  print_endline "(paper: optimized placement up to +22% throughput over uniform)"

let fig13c () =
  header "Figure 13c: VNF placement hints (new deployment sites per VNF)";
  let m = te_model ~coverage:0.25 () in
  let latency_of model =
    1000.
    *. Routing.propagation_latency
         (Sb_core.Dp_routing.solve ~rng:(Rng.create 1) model)
  in
  let t =
    Table.create
      ~header:[ "new sites per VNF"; "random placement (ms)"; "Switchboard hints (ms)"; "gain" ]
  in
  List.iter
    (fun n ->
      if n = 0 then
        Table.add_row t [ "0"; Printf.sprintf "%.2f" (latency_of m); Printf.sprintf "%.2f" (latency_of m); "-" ]
      else begin
        let sugg = latency_of (Sb_core.Placement.suggest m ~new_sites_per_vnf:n) in
        let rand =
          (* average over three random draws *)
          let vals =
            List.map
              (fun s ->
                latency_of (Sb_core.Placement.random ~rng:(Rng.create s) m ~new_sites_per_vnf:n))
              [ 11; 22; 33 ]
          in
          Sb_util.Stats.mean vals
        in
        Table.add_row t
          [
            string_of_int n;
            Printf.sprintf "%.2f" rand;
            Printf.sprintf "%.2f" sugg;
            Printf.sprintf "-%.1f%%" (100. *. (1. -. (sugg /. rand)));
          ]
      end)
    [ 0; 1; 2; 3 ];
  Table.print t;
  print_endline "(paper: hints give up to 27% lower latency than random site selection)"

(* ------------------------------------------------------------------ *)
(* Beyond the paper: the future-work evaluations it calls for          *)
(* ------------------------------------------------------------------ *)

(* Network/compute failures (Section 7.3 future work): degrade the
   scenario and let each scheme re-route; load-aware schemes should absorb
   failures far more gracefully than anycast. *)
let failures () =
  header "Extension: throughput under link and site failures";
  let m = te_model () in
  let topo = Model.topology m in
  let rng = Rng.create 99 in
  (* Sample link-failure sets that keep the graph connected. *)
  let connected m' =
    let p = Model.paths m' in
    let n = Topology.num_nodes (Model.topology m') in
    let ok = ref true in
    for i = 0 to n - 1 do
      if not (Sb_net.Paths.reachable p 0 i) then ok := false
    done;
    !ok
  in
  let rec sample_link_failure count =
    (* Fail [count] full duplex links (both directions). *)
    let duplex = Topology.num_links topo / 2 in
    let picks = Sb_util.Rng.sample_without_replacement rng count duplex in
    let ids = List.concat_map (fun d -> [ 2 * d; (2 * d) + 1 ]) picks in
    let m' = Model.with_failed_links m ids in
    if connected m' then m' else sample_link_failure count
  in
  let t =
    Table.create
      ~header:[ "scenario"; "ANYCAST"; "COMPUTE-AWARE"; "SB-DP"; "SB-LP" ]
  in
  let row label m' =
    let tput s = try Eval.throughput m' s with _ -> 0. in
    Table.add_float_row t label
      [ tput Eval.Anycast; tput Eval.Compute_aware; tput Eval.Sb_dp; tput Eval.Sb_lp ]
  in
  row "no failure" m;
  List.iter (fun k -> row (Printf.sprintf "%d links down" k) (sample_link_failure k)) [ 1; 2; 3 ];
  (* Site failure: fail a site only if every VNF keeps a deployment. *)
  let rec sample_site_failure () =
    let s = Sb_util.Rng.int rng (Model.num_sites m) in
    let m' = Model.with_failed_sites m [ s ] in
    let all_deployed =
      List.init (Model.num_vnfs m') (fun f -> f)
      |> List.for_all (fun f -> Model.vnf_sites m' f <> [])
    in
    if all_deployed then (s, m') else sample_site_failure ()
  in
  let s, m' = sample_site_failure () in
  row (Printf.sprintf "site %d down" s) m';
  Table.print t;
  print_endline
    "(global re-optimization absorbs failures; anycast's fixed nearest-site choice cannot)"

(* Time-varying traffic matrices (Section 7.3 future work): chains follow
   diurnal demand curves with region-dependent phases. Re-running SB-DP
   each epoch tracks the shifting load; a static routing computed at the
   first epoch degrades as demand moves away from it. *)
let timevar () =
  header "Extension: time-varying traffic (diurnal demand, 8 epochs)";
  let m = te_model () in
  let n = Model.num_chains m in
  let rng = Rng.create 123 in
  let phase = Array.init n (fun _ -> Sb_util.Rng.float rng (2. *. Float.pi)) in
  let epoch_model e =
    let factors =
      Array.init n (fun c ->
          1. +. (0.8 *. sin (phase.(c) +. (2. *. Float.pi *. float_of_int e /. 8.))))
    in
    Model.with_chain_traffic_factors m factors
  in
  (* The static routing is SB-DP's placement for epoch 0, re-evaluated
     against each epoch's demand by re-committing its paths. *)
  let static = Sb_core.Dp_routing.solve ~rng:(Rng.create 1) (epoch_model 0) in
  let static_paths c = Routing.decompose_paths static ~chain:c in
  let t =
    Table.create ~header:[ "epoch"; "static alpha"; "re-routed alpha"; "gain" ]
  in
  let worst_static = ref infinity and worst_rerouted = ref infinity in
  for e = 0 to 7 do
    let me = epoch_model e in
    let frozen = Routing.create me in
    for c = 0 to n - 1 do
      List.iter (fun (nodes, frac) -> Routing.add_path frozen ~chain:c ~nodes ~frac)
        (static_paths c)
    done;
    let alpha_static = Routing.max_alpha frozen in
    let alpha_rerouted =
      Routing.max_alpha (Sb_core.Dp_routing.solve ~rng:(Rng.create 1) me)
    in
    worst_static := Float.min !worst_static alpha_static;
    worst_rerouted := Float.min !worst_rerouted alpha_rerouted;
    Table.add_row t
      [
        string_of_int e;
        Printf.sprintf "%.3f" alpha_static;
        Printf.sprintf "%.3f" alpha_rerouted;
        Printf.sprintf "+%.0f%%" (100. *. ((alpha_rerouted /. alpha_static) -. 1.));
      ]
  done;
  Table.print t;
  Printf.printf "worst epoch: static %.3f vs re-routed %.3f (+%.0f%%)\n" !worst_static
    !worst_rerouted
    (100. *. ((!worst_rerouted /. !worst_static) -. 1.))

(* Ablation of SB-DP's two knobs (DESIGN.md design decisions): the
   utilization-cost weight and the per-chain route-split budget. *)
let ablation () =
  header "Extension: SB-DP design-choice ablations";
  let m = te_model () in
  let t1 = Table.create ~header:[ "util_weight (s/cost)"; "supported alpha"; "prop latency (ms)" ] in
  List.iter
    (fun w ->
      let r = Sb_core.Dp_routing.solve ~util_weight:w ~rng:(Rng.create 1) m in
      Table.add_row t1
        [
          Printf.sprintf "%.3f" w;
          Printf.sprintf "%.3f" (Routing.max_alpha r);
          Printf.sprintf "%.2f" (1000. *. Routing.propagation_latency r);
        ])
    [ 0.; 0.005; 0.02; 0.05; 0.2; 1.0 ];
  Table.print t1;
  print_endline "(0 = latency-only routing; larger weights trade propagation for headroom)";
  let t2 = Table.create ~header:[ "max_routes per chain"; "supported alpha" ] in
  List.iter
    (fun k ->
      let r = Sb_core.Dp_routing.solve ~max_routes:k ~rng:(Rng.create 1) m in
      Table.add_row t2 [ string_of_int k; Printf.sprintf "%.3f" (Routing.max_alpha r) ])
    [ 1; 2; 4; 8; 16 ];
  Table.print t2;
  print_endline "(splitting chains over multiple routes is what lets SB-DP fill the network)";
  (* The operator's MLU limit (beta, Eq. 6): tightening it reserves network
     headroom at the price of admissible demand. *)
  let t3 = Table.create ~header:[ "beta (MLU limit)"; "SB-LP alpha" ] in
  List.iter
    (fun beta ->
      let rng = Rng.create 42 in
      let topo = Topology.backbone ~rng ~num_core:4 ~pops_per_core:1 () in
      let mb =
        (* Network-bound regime (cheap VNFs), where the MLU cap binds. *)
        Workload.synthesize ~rng topo
          { Workload.default with Workload.num_chains = 16; beta; cpu_per_unit = 0.1 }
      in
      match Sb_core.Lp_routing.solve mb Sb_core.Lp_routing.Max_throughput with
      | Ok { objective_value; _ } ->
        Table.add_row t3 [ Printf.sprintf "%.2f" beta; Printf.sprintf "%.3f" objective_value ]
      | Error e -> Table.add_row t3 [ Printf.sprintf "%.2f" beta; e ])
    [ 0.4; 0.6; 0.8; 1.0 ];
  Table.print t3;
  print_endline "(a lower MLU cap trades Switchboard throughput for network headroom)"


(* SB-DP scalability (Section 7.3: "SB-DP should perform well in practice
   and scale to larger topologies... SB-LP has much higher running time of
   up to 3 hours"): grow the scenario and time both engines. SB-LP is run
   only while it stays under a few seconds. *)
let scale () =
  header "Extension: routing-engine scalability (SB-DP vs SB-LP run time)";
  let t =
    Table.create
      ~header:[ "nodes"; "chains"; "SB-DP time"; "SB-DP alpha"; "SB-LP time"; "SB-LP alpha" ]
  in
  List.iter
    (fun (cores, pops, chains, run_lp) ->
      let rng = Rng.create 42 in
      let topo = Topology.backbone ~rng ~num_core:cores ~pops_per_core:pops () in
      let m =
        Workload.synthesize ~rng topo
          { Workload.default with Workload.num_chains = chains }
      in
      let t0 = Unix.gettimeofday () in
      let dp = Sb_core.Dp_routing.solve ~rng:(Rng.create 1) m in
      let dp_time = Unix.gettimeofday () -. t0 in
      let lp_time, lp_alpha =
        if run_lp then begin
          let t0 = Unix.gettimeofday () in
          match Sb_core.Lp_routing.solve m Sb_core.Lp_routing.Max_throughput with
          | Ok { objective_value; _ } ->
            (Printf.sprintf "%.1f s" (Unix.gettimeofday () -. t0),
             Printf.sprintf "%.2f" objective_value)
          | Error e -> ("-", e)
        end
        else ("(skipped)", "-")
      in
      Table.add_row t
        [
          string_of_int (Topology.num_nodes topo);
          string_of_int chains;
          Printf.sprintf "%.2f s" dp_time;
          Printf.sprintf "%.2f" (Routing.max_alpha dp);
          lp_time;
          lp_alpha;
        ])
    [
      (4, 1, 16, true);
      (5, 2, 50, true);
      (8, 3, 200, false);
      (12, 4, 500, false);
      (16, 5, 1000, false);
    ];
  Table.print t;
  print_endline
    "(the dense-simplex SB-LP grows superlinearly, as CPLEX did for the paper's authors;\n SB-DP remains sub-second far beyond the LP's practical range)"

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks                                            *)
(* ------------------------------------------------------------------ *)

(* ~100-node synthetic backbone (20 core x 4 PoPs) with a mid-size chain
   workload: the scale at which SB-DP's constant factors start to matter. *)
let big_topo () =
  Topology.backbone ~rng:(Rng.create 21) ~num_core:20 ~pops_per_core:4 ()

let big_model () =
  let rng = Rng.create 21 in
  let topo = big_topo () in
  Workload.synthesize ~rng topo { Workload.default with Workload.num_chains = 128 }

(* ------------------------------------------------------------------ *)
(* Packet-path kernels: packed plane and sharded plane                  *)
(* ------------------------------------------------------------------ *)

(* The sb_chaos harness topology: six sites with one forwarder and one
   edge each, VNF 0 at sites 1,2 / VNF 1 at 2,3 / VNF 2 at 4,5 (two
   instances per site), and three chains whose element placements mirror
   the harness's routes. Cross-site stages relay forwarder-to-forwarder
   with an rx rule on the receiver — the pattern Local Switchboards
   install. Chain entries are (label, vnfs, ingress site, element sites
   ending with the egress site); egress labels are egress-site ids. *)
let chaos_chains =
  [
    (1, [| 0; 1 |], 0, [| 1; 2; 5 |]);
    (2, [| 1; 2 |], 1, [| 2; 4; 4 |]);
    (3, [| 0; 1; 2 |], 0, [| 1; 2; 4; 5 |]);
  ]

(* Built as a shard; with [lanes = 1] its lane 0 is exactly the packed
   plane [Plane.create ~seed:0x5EED] would build, which the single-plane
   kernels drive directly. *)
let build_chaos_fabric ~lanes ~flow_store =
  let fab = Shard.create ~seed:0x5EED ~flow_store ~lanes () in
  let site = Array.init 6 (fun s -> Shard.add_site fab (Printf.sprintf "site%d" s)) in
  let fwd = Array.map (fun s -> Shard.add_forwarder fab ~site:s) site in
  let edge = Array.map2 (fun s f -> Shard.add_edge fab ~site:s ~forwarder:f) site fwd in
  let insts = Hashtbl.create 12 in
  List.iter
    (fun (v, sites) ->
      List.iter
        (fun s ->
          let ids =
            List.init 2 (fun _ ->
                Shard.add_vnf_instance fab ~vnf:v ~site:site.(s) ~forwarder:fwd.(s) ())
          in
          Hashtbl.replace insts (v, s) ids)
        sites)
    [ (0, [ 1; 2 ]); (1, [ 2; 3 ]); (2, [ 4; 5 ]) ];
  List.iter
    (fun (label, vnfs, ingress_site, route) ->
      let n = Array.length route in
      let egress_label = route.(n - 1) in
      for z = 0 to n - 1 do
        let src = if z = 0 then ingress_site else route.(z - 1) in
        let dst = route.(z) in
        let targets =
          if z = n - 1 then [ (Plane.Edge edge.(dst), 1.0) ]
          else
            List.map
              (fun i -> (Plane.Vnf_instance i, 1.0))
              (Hashtbl.find insts (vnfs.(z), dst))
        in
        if src = dst then
          Shard.install_rule fab ~forwarder:fwd.(src) ~chain_label:label
            ~egress_label ~stage:z targets
        else begin
          Shard.install_rule fab ~forwarder:fwd.(src) ~chain_label:label
            ~egress_label ~stage:z
            [ (Plane.Forwarder fwd.(dst), 1.0) ];
          Shard.install_rx_rule fab ~forwarder:fwd.(dst) ~chain_label:label
            ~egress_label ~stage:z targets
        end
      done)
    chaos_chains;
  let entry =
    List.map
      (fun (label, _, ingress_site, route) ->
        (label, edge.(ingress_site), route.(Array.length route - 1)))
      chaos_chains
    |> Array.of_list
  in
  (fab, entry, fwd)

(* One shared connection pool; every arm is warmed with the same 1024
   connections spread over the three chains, so the kernels all measure
   the established-flow fast path doing identical work. *)
let chaos_tuples =
  let rng = Rng.create 21 in
  Array.init 1024 (fun _ -> Packet.random_tuple rng)

let build_warm_chaos_fabric ~lanes ~flow_store =
  let fab, entry, fwd = build_chaos_fabric ~lanes ~flow_store in
  Array.iteri
    (fun j tp ->
      let label, ein, eg = entry.(j mod 3) in
      ignore
        (Shard.send_forward fab ~ingress:ein ~chain_label:label ~egress_label:eg tp))
    chaos_tuples;
  (fab, entry, fwd)

(* chaos_tuples split by owning chain (tuple j is warmed on chain
   entry.(j mod 3)), so a [Shard.drive_batch] call — one chain per batch —
   stays on the established-flow path. *)
let chain_tuples c =
  Array.of_list
    (List.filteri (fun j _ -> j mod 3 = c) (Array.to_list chaos_tuples))

let json_mode = ref false

let micro () =
  header "Microbenchmarks (Bechamel, monotonic clock)";
  let open Bechamel in
  let flow_table_bench =
    let table : int Sb_dataplane.Flow_table.t = Sb_dataplane.Flow_table.create () in
    let rng = Rng.create 3 in
    let keys =
      Array.init 4096 (fun i ->
          let k =
            {
              Sb_dataplane.Flow_table.chain_label = i mod 7;
              egress_label = i mod 3;
              stage = i mod 4;
              flow = Packet.random_tuple rng;
            }
          in
          Sb_dataplane.Flow_table.insert table k { Sb_dataplane.Flow_table.next = i; prev = i };
          k)
    in
    let i = ref 0 in
    Test.make ~name:"flow_table lookup (4K entries)"
      (Staged.stage (fun () ->
           incr i;
           ignore (Sb_dataplane.Flow_table.find table keys.(!i land 4095))))
  in
  let fabric_bench =
    let fab = Plane.create () in
    let s = Plane.add_site fab "A" in
    let f = Plane.add_forwarder fab ~site:s in
    let ein = Plane.add_edge fab ~site:s ~forwarder:f in
    let eout = Plane.add_edge fab ~site:s ~forwarder:f in
    let v = Plane.add_vnf_instance fab ~vnf:1 ~site:s ~forwarder:f () in
    Plane.install_rule fab ~forwarder:f ~chain_label:1 ~egress_label:1 ~stage:0
      [ (Plane.Vnf_instance v, 1.) ];
    Plane.install_rule fab ~forwarder:f ~chain_label:1 ~egress_label:1 ~stage:1
      [ (Plane.Edge eout, 1.) ];
    let rng = Rng.create 4 in
    let tuples = Array.init 1024 (fun _ -> Packet.random_tuple rng) in
    (* Warm the flow table so the bench measures the fast path. *)
    Array.iter
      (fun tp -> ignore (Plane.send_forward fab ~ingress:ein ~chain_label:1 ~egress_label:1 tp))
      tuples;
    let i = ref 0 in
    Test.make ~name:"fabric packet (1-VNF chain, warm flow table)"
      (Staged.stage (fun () ->
           incr i;
           ignore
             (Plane.send_forward fab ~ingress:ein ~chain_label:1 ~egress_label:1
                tuples.(!i land 1023))))
  in
  let dp_bench =
    let m = te_model () in
    let state = Sb_core.Load_state.create m in
    Test.make ~name:"SB-DP best_path (one chain)"
      (Staged.stage (fun () ->
           ignore (Sb_core.Dp_routing.best_path state ~util_weight:0.05 ~chain:0)))
  in
  let dp_full_bench =
    let m = te_model () in
    Test.make ~name:"SB-DP full solve (16 chains)"
      (Staged.stage (fun () -> ignore (Sb_core.Dp_routing.solve m)))
  in
  let lp_bench =
    let m = te_model ~seed:7 () in
    Test.make ~name:"SB-LP throughput solve (16 chains)"
      (Staged.stage (fun () ->
           ignore (Sb_core.Lp_routing.solve m Sb_core.Lp_routing.Max_throughput)))
  in
  let lru_bench =
    let c = Sb_cache.Lru.create ~capacity:1_000_000 in
    let z = Sb_util.Zipf.create ~n:10_000 ~s:1.0 in
    let rng = Rng.create 9 in
    Test.make ~name:"LRU access (Zipf keys)"
      (Staged.stage (fun () ->
           let k = Sb_util.Zipf.sample z rng in
           ignore (Sb_cache.Lru.access c ~key:k ~size:100)))
  in
  let bus_bench =
    Test.make ~name:"message bus publish+run (10 sites)"
      (Staged.stage (fun () ->
           let eng = Eng.create () in
           let bus =
             Sb_msgbus.Bus.create eng ~mode:Sb_msgbus.Bus.Switchboard ~num_sites:10
               ~delay:(fun a b -> if a = b then 0. else 0.05)
               ()
           in
           for s = 1 to 9 do
             Sb_msgbus.Bus.subscribe bus ~site:s ~topic:"/t" (fun () -> ())
           done;
           ignore (Eng.schedule eng ~delay:1. (fun () -> Sb_msgbus.Bus.publish bus ~site:0 ~topic:"/t" ()));
           Eng.run eng))
  in
  let maxmin_bench =
    Test.make ~name:"max-min fair allocation (20 res, 100 flows)"
      (Staged.stage (fun () ->
           let rng = Rng.create 11 in
           let t = Sb_flowsim.Maxmin.create () in
           let res =
             Array.init 20 (fun _ ->
                 Sb_flowsim.Maxmin.add_resource t ~capacity:(Rng.uniform_in rng 1. 10.))
           in
           for _ = 1 to 100 do
             let k = 1 + Rng.int rng 4 in
             let rs = List.map (fun i -> res.(i)) (Rng.sample_without_replacement rng k 20) in
             ignore (Sb_flowsim.Maxmin.add_flow t rs)
           done;
           ignore (Sb_flowsim.Maxmin.solve t)))
  in
  (* Kernels of the packed-CSR routing hot path on the ~100-node
     backbone. *)
  let big = big_topo () in
  let big_paths = Sb_net.Paths.compute big in
  let nbig = Topology.num_nodes big in
  let pairs =
    let rng = Rng.create 13 in
    Array.init 512 (fun _ ->
        let src = Rng.int rng nbig in
        let dst = (src + 1 + Rng.int rng (nbig - 1)) mod nbig in
        (src, dst))
  in
  let big_load = Sb_net.Load.create big big_paths in
  let () =
    let rng = Rng.create 17 in
    for e = 0 to Topology.num_links big - 1 do
      let v = Rng.uniform_in rng 0. (0.8 *. (Topology.link big e).Topology.bandwidth) in
      Sb_net.Load.add_background big_load e v
    done
  in
  (* Each staged run covers a 32-pair batch: the kernels are tens of ns, so
     a single call would drown in the harness's per-run floor. *)
  let batch = 32 in
  let fractions_packed_bench =
    let i = ref 0 in
    Test.make ~name:"paths_fractions x32/packed-csr"
      (Staged.stage (fun () ->
           let acc = ref 0. in
           for _ = 1 to batch do
             incr i;
             let src, dst = pairs.(!i land 511) in
             Sb_net.Paths.iter_fractions big_paths ~src ~dst (fun _ f ->
                 acc := !acc +. f)
           done;
           ignore !acc))
  in
  let net_cost_packed_bench =
    let i = ref 0 in
    Test.make ~name:"path_network_cost x32/packed-csr"
      (Staged.stage (fun () ->
           let acc = ref 0. in
           for _ = 1 to batch do
             incr i;
             let src, dst = pairs.(!i land 511) in
             acc := !acc +. Sb_net.Load.path_network_cost big_load ~src ~dst ~extra:1.
           done;
           ignore !acc))
  in
  (* Packed packet path on the six-site chaos topology (see
     build_chaos_fabric): the per-call send_forward (allocates the trace)
     and the allocation-free drive, each over Local and Replicated-2 flow
     stores. Warm flow tables: every packet hits the
     established-connection path, the regime packets/sec is quoted in. *)
  let warm_plane flow_store =
    let sf, entry, _ = build_warm_chaos_fabric ~lanes:1 ~flow_store in
    (Shard.lane sf 0, entry)
  in
  let fab_local, e_local = warm_plane Plane.Local in
  let fab_repl, e_repl = warm_plane (Plane.Replicated 2) in
  let fabric_kernel name send =
    let i = ref 0 in
    Test.make ~name
      (Staged.stage (fun () ->
           for _ = 1 to batch do
             incr i;
             send !i
           done))
  in
  let send_arm fab entry i =
    let label, ein, eg = entry.(i mod 3) in
    ignore
      (Plane.send_forward fab ~ingress:ein ~chain_label:label ~egress_label:eg
         chaos_tuples.(i land 1023))
  in
  let drive_arm fab entry i =
    let label, ein, eg = entry.(i mod 3) in
    ignore
      (Plane.drive fab ~ingress:ein ~chain_label:label ~egress_label:eg
         ~size:500 chaos_tuples.(i land 1023))
  in
  let fabric_benches =
    [
      fabric_kernel "fabric pkt x32/packed-local" (send_arm fab_local e_local);
      fabric_kernel "fabric drive x32/packed-local" (drive_arm fab_local e_local);
      fabric_kernel "fabric pkt x32/packed-repl2" (send_arm fab_repl e_repl);
      fabric_kernel "fabric drive x32/packed-repl2" (drive_arm fab_repl e_repl);
    ]
  in
  (* Sharded fabric: one warmed shard per lane count, reused by both the
     Bechamel batch kernels and the pps walls below. The D = 1 shard is
     the inline packed plane (no pool); D > 1 pays a submit/join handoff
     per batch, amortized over the batch. *)
  let shard_lane_counts = [| 1; 2; 4; 8 |] in
  let shards =
    Array.map
      (fun lanes ->
        let sf, entry, _ =
          build_warm_chaos_fabric ~lanes ~flow_store:Plane.Local
        in
        (lanes, sf, entry))
      shard_lane_counts
  in
  let shard_kernel_batch = Array.sub (chain_tuples 0) 0 256 in
  let shard_batch_bench (lanes, sf, entry) =
    let label, ein, eg = entry.(0) in
    Test.make ~name:(Printf.sprintf "fabric shard_batch x256/D%d" lanes)
      (Staged.stage (fun () ->
           ignore
             (Shard.drive_batch sf ~ingress:ein ~chain_label:label
                ~egress_label:eg ~size:500 shard_kernel_batch)))
  in
  let shard_batch_benches =
    Array.to_list (Array.map shard_batch_bench shards)
  in
  let big_m = big_model () in
  let dp_solve_big_bench =
    Test.make ~name:"dp_solve (100 nodes, 128 chains)"
      (Staged.stage (fun () -> ignore (Sb_core.Dp_routing.solve big_m)))
  in
  let tests =
    Test.make_grouped ~name:"switchboard"
      ([
         flow_table_bench; fabric_bench; dp_bench; dp_full_bench; lp_bench; lru_bench;
         bus_bench; maxmin_bench; fractions_packed_bench; net_cost_packed_bench;
         dp_solve_big_bench;
       ]
      @ fabric_benches @ shard_batch_benches)
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:3000 ~quota:(Time.second 1.0) () in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let t = Table.create ~header:[ "benchmark"; "ns/run" ] in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let est =
        match Analyze.OLS.estimates ols_result with
        | Some [ v ] -> Some v
        | _ -> None
      in
      rows := (name, est) :: !rows)
    results;
  let rows = List.sort compare !rows in
  List.iter
    (fun (n, e) ->
      Table.add_row t
        [ n; (match e with Some v -> Printf.sprintf "%.0f" v | None -> "n/a") ])
    rows;
  Table.print t;
  (* Fig-level wall times: one full SB-DP solve at both scales, plus the
     all-pairs precompute on the 100-node backbone. *)
  let wall f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let wall_paths = wall (fun () -> ignore (Sb_net.Paths.compute big)) in
  let wall_dp_big = wall (fun () -> ignore (Sb_core.Dp_routing.solve big_m)) in
  let te = te_model () in
  let wall_dp_te = wall (fun () -> ignore (Sb_core.Dp_routing.solve te)) in
  Printf.printf "wall: paths_compute_100=%.3fs dp_solve_100=%.3fs dp_solve_16=%.3fs\n"
    wall_paths wall_dp_big wall_dp_te;
  if !json_mode then begin
    let oc = open_out "BENCH_dp.json" in
    let kernel_lines =
      List.filter_map
        (fun (name, est) ->
          match est with
          | Some v -> Some (Printf.sprintf "    %S: %.1f" name v)
          | None -> None)
        rows
    in
    Printf.fprintf oc "{\n  \"kernels_ns_per_op\": {\n%s\n  },\n"
      (String.concat ",\n" kernel_lines);
    Printf.fprintf oc "  \"wall_seconds\": {\n";
    Printf.fprintf oc "    \"paths_compute_100_nodes\": %.4f,\n" wall_paths;
    Printf.fprintf oc "    \"dp_solve_100_nodes_128_chains\": %.4f,\n" wall_dp_big;
    Printf.fprintf oc "    \"dp_solve_8_nodes_16_chains\": %.4f\n  }\n}\n" wall_dp_te;
    close_out oc;
    print_endline "wrote BENCH_dp.json"
  end;
  (* Walls of the packed Eval arena's bisection (in-place instance
     scaling) on the 100-node backbone. *)
  let eval_packed_dp = ref nan and eval_packed_ca = ref nan in
  let wall_eval_packed_dp =
    wall (fun () -> eval_packed_dp := Eval.max_load_factor big_m Eval.Sb_dp)
  in
  let wall_eval_packed_ca =
    wall (fun () -> eval_packed_ca := Eval.max_load_factor big_m Eval.Compute_aware)
  in
  let ratio b a = if a > 0. then b /. a else nan in
  Printf.printf "wall: eval_mlf sb-dp=%.3fs compute-aware=%.3fs\n" wall_eval_packed_dp
    wall_eval_packed_ca;
  (* The fig12a sweep, sequential vs fanned over domains: same cells, same
     results, wall clock divided by the grid parallelism. *)
  let fig12a_models =
    Array.map (fun coverage -> te_model ~coverage ()) [| 0.25; 0.5; 0.75; 1.0 |]
  in
  let fig12a_schemes = [| Eval.Anycast; Eval.Sb_dp; Eval.Sb_lp |] in
  let grid_seq = ref [||] and grid_par = ref [||] in
  (* Warm once so neither timed run pays the other's GC debt. *)
  ignore (Eval.throughput_grid ~domains:1 fig12a_models fig12a_schemes);
  let wall_fig12a_seq =
    wall (fun () -> grid_seq := Eval.throughput_grid ~domains:1 fig12a_models fig12a_schemes)
  in
  let wall_fig12a_par =
    wall (fun () -> grid_par := Eval.throughput_grid fig12a_models fig12a_schemes)
  in
  let grid_identical = !grid_seq = !grid_par in
  let domains = Sb_util.Par.default_domains () in
  Printf.printf
    "wall: fig12a sweep sequential=%.3fs parallel=%.3fs (%.1fx over %d domains); \
     identical=%b\n"
    wall_fig12a_seq wall_fig12a_par
    (ratio wall_fig12a_seq wall_fig12a_par)
    domains grid_identical;
  if !json_mode then begin
    let oc = open_out "BENCH_eval.json" in
    Printf.fprintf oc "{\n  \"max_load_factor_wall_seconds\": {\n";
    Printf.fprintf oc "    \"sb_dp_packed\": %.4f,\n" wall_eval_packed_dp;
    Printf.fprintf oc "    \"compute_aware_packed\": %.4f\n  },\n" wall_eval_packed_ca;
    Printf.fprintf oc "  \"values\": {\n";
    Printf.fprintf oc "    \"sb_dp_max_load_factor\": %.12g,\n" !eval_packed_dp;
    Printf.fprintf oc "    \"compute_aware_max_load_factor\": %.12g\n  },\n" !eval_packed_ca;
    Printf.fprintf oc "  \"fig12a_sweep_wall_seconds\": {\n";
    Printf.fprintf oc "    \"sequential\": %.4f,\n" wall_fig12a_seq;
    Printf.fprintf oc "    \"parallel\": %.4f,\n" wall_fig12a_par;
    Printf.fprintf oc "    \"domains\": %d,\n" domains;
    Printf.fprintf oc "    \"grids_identical\": %b\n  }\n}\n" grid_identical;
    close_out oc;
    print_endline "wrote BENCH_eval.json"
  end;
  (* Packets-per-second walls of the packed plane's allocation-free drive
     on the six-site chaos topology, reusing the warmed planes the
     Bechamel kernels ran on. *)
  let pps_packets = 300_000 in
  let pps_drive fab entry =
    let w =
      wall (fun () ->
          for i = 1 to pps_packets do
            let label, ein, eg = entry.(i mod 3) in
            ignore
              (Plane.drive fab ~ingress:ein ~chain_label:label ~egress_label:eg
                 ~size:500 chaos_tuples.(i land 1023))
          done)
    in
    float_of_int pps_packets /. w
  in
  let pps_local = pps_drive fab_local e_local in
  let pps_repl = pps_drive fab_repl e_repl in
  Printf.printf "fabric pps (six-site chaos topology): local=%.2fM replicated-2=%.2fM\n"
    (pps_local /. 1e6) (pps_repl /. 1e6);
  let has_sub s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  if !json_mode then begin
    let oc = open_out "BENCH_fabric.json" in
    let kernel_lines =
      List.filter_map
        (fun (name, est) ->
          match est with
          | Some v when has_sub name "fabric pkt x32" || has_sub name "fabric drive x32"
            ->
            Some (Printf.sprintf "    %S: %.1f" name v)
          | _ -> None)
        rows
    in
    Printf.fprintf oc "{\n  \"topology\": \"six sites, 3 chains over VNFs 0-2 \
                       (2 instances x 2 sites each), cross-site relays\",\n";
    Printf.fprintf oc "  \"kernels_ns_per_op\": {\n%s\n  },\n"
      (String.concat ",\n" kernel_lines);
    Printf.fprintf oc "  \"packets_per_second\": {\n";
    Printf.fprintf oc "    \"packed_local\": %.0f,\n" pps_local;
    Printf.fprintf oc "    \"packed_replicated2\": %.0f\n  }\n}\n" pps_repl;
    close_out oc;
    print_endline "wrote BENCH_fabric.json"
  end;
  (* Sharded scale-out walls (Fig 8's per-core scale-out, measured). Two
     series, because the CI box may have fewer cores than lanes:
     [wallclock] drives batches through [Shard.drive_batch] — pool
     handoff included — and is only a speedup when real cores back the
     lanes; [capacity] times each lane alone draining its own partition
     inline on its private plane and sums the rates — the throughput D
     pinned cores would sustain, comparable across machines. *)
  let per_chain = Array.init 3 chain_tuples in
  let shard_wall_pps (_lanes, sf, entry) =
    let total = ref 0 in
    let w =
      wall (fun () ->
          while !total < pps_packets do
            for c = 0 to 2 do
              let label, ein, eg = entry.(c) in
              ignore
                (Shard.drive_batch sf ~ingress:ein ~chain_label:label
                   ~egress_label:eg ~size:500 per_chain.(c));
              total := !total + Array.length per_chain.(c)
            done
          done)
    in
    float_of_int !total /. w
  in
  let shard_capacity_pps (lanes, sf, entry) =
    let parts = Array.make lanes [] in
    Array.iteri
      (fun j tp -> parts.(Shard.lane_of sf tp) <- (j mod 3, tp) :: parts.(Shard.lane_of sf tp))
      chaos_tuples;
    let per_lane_target = max 20_000 (pps_packets / lanes) in
    let rate = ref 0. in
    for l = 0 to lanes - 1 do
      let part = Array.of_list parts.(l) in
      let n = Array.length part in
      if n > 0 then begin
        let plane = Shard.lane sf l in
        let reps = max 1 (per_lane_target / n) in
        let w =
          wall (fun () ->
              for _ = 1 to reps do
                Array.iter
                  (fun (c, tp) ->
                    let label, ein, eg = entry.(c) in
                    ignore
                      (Plane.drive plane ~ingress:ein ~chain_label:label
                         ~egress_label:eg ~size:500 tp))
                  part
              done)
        in
        rate := !rate +. (float_of_int (reps * n) /. w)
      end
    done;
    !rate
  in
  let shard_wall = Array.map shard_wall_pps shards in
  let shard_cap = Array.map shard_capacity_pps shards in
  let cores = Sb_util.Par.default_domains () in
  let st = Table.create ~header:[ "lanes"; "wallclock Mpps"; "capacity Mpps"; "cap x vs D1" ] in
  Array.iteri
    (fun i (lanes, _, _) ->
      Table.add_row st
        [
          string_of_int lanes;
          Printf.sprintf "%.2f" (shard_wall.(i) /. 1e6);
          Printf.sprintf "%.2f" (shard_cap.(i) /. 1e6);
          Printf.sprintf "%.2f" (shard_cap.(i) /. shard_cap.(0));
        ])
    shards;
  Printf.printf "\nsharded fabric scale-out (%d core(s) available):\n" cores;
  Table.print st;
  (* Flow-table occupancy sweep: one packed plane grown to 10M
     connections on the six-site topology (~4 table entries per
     connection), sampling warm-path pps over 4096 established
     connections spread across the whole population at each checkpoint.
     The aggregate tables blow through L3 somewhere past the first
     million connections — the Fig 8 'single-core line dips as state
     outgrows cache' effect, here as a pps-vs-load-factor curve. *)
  let sweep_points = [| 100_000; 300_000; 1_000_000; 3_000_000; 10_000_000 |] in
  let sweep_seed = 0xACC in
  let sweep_shard, sweep_entry, sweep_fwd =
    build_chaos_fabric ~lanes:1 ~flow_store:Plane.Local
  in
  let sweep_fab = Shard.lane sweep_shard 0 in
  let sweep_gen = Rng.create sweep_seed in
  let inserted = ref 0 in
  let sweep_rows =
    Array.map
      (fun target ->
        while !inserted < target do
          let tp = Packet.random_tuple sweep_gen in
          let label, ein, eg = sweep_entry.(!inserted mod 3) in
          ignore
            (Plane.drive sweep_fab ~ingress:ein ~chain_label:label
               ~egress_label:eg ~size:500 tp);
          incr inserted
        done;
        let entries = ref 0 and cap = ref 0 and probe = ref 0 in
        Array.iter
          (fun f ->
            let c, k, p = Plane.flow_table_stats sweep_fab ~forwarder:f in
            entries := !entries + c;
            cap := !cap + k;
            probe := max !probe p)
          sweep_fwd;
        (* Re-generate the tuple stream to pick an evenly spread sample
           of established connections, then time the warm path over it. *)
        let sample_n = 4096 in
        let stride = max 1 (target / sample_n) in
        let sample = Array.make sample_n (sweep_entry.(0), chaos_tuples.(0)) in
        let re = Rng.create sweep_seed in
        let filled = ref 0 in
        for j = 0 to target - 1 do
          let tp = Packet.random_tuple re in
          if j mod stride = 0 && !filled < sample_n then begin
            sample.(!filled) <- (sweep_entry.(j mod 3), tp);
            incr filled
          end
        done;
        let passes = 3 in
        let w =
          wall (fun () ->
              for _ = 1 to passes do
                for i = 0 to !filled - 1 do
                  let (label, ein, eg), tp = sample.(i) in
                  ignore
                    (Plane.drive sweep_fab ~ingress:ein ~chain_label:label
                       ~egress_label:eg ~size:500 tp)
                done
              done)
        in
        let pps = float_of_int (passes * !filled) /. w in
        (* 5 word-sized parallel arrays per table slot (hash keys, next,
           prev, full hash, chain link). *)
        let mib = float_of_int (!cap * 5 * 8) /. (1024. *. 1024.) in
        (target, !entries, !cap, !probe, mib, pps))
      sweep_points
  in
  let ot =
    Table.create
      ~header:[ "connections"; "entries"; "load factor"; "max probe"; "tables MiB"; "warm Mpps" ]
  in
  Array.iter
    (fun (target, entries, cap, probe, mib, pps) ->
      Table.add_row ot
        [
          string_of_int target;
          string_of_int entries;
          Printf.sprintf "%.3f" (float_of_int entries /. float_of_int (max 1 cap));
          string_of_int probe;
          Printf.sprintf "%.1f" mib;
          Printf.sprintf "%.2f" (pps /. 1e6);
        ])
    sweep_rows;
  Printf.printf "\nflow-table occupancy sweep (packed plane, Local store):\n";
  Table.print ot;
  if !json_mode then begin
    let oc = open_out "BENCH_fabric_shard.json" in
    Printf.fprintf oc "{\n  \"topology\": \"six sites, 3 chains over VNFs 0-2 \
                       (2 instances x 2 sites each), cross-site relays\",\n";
    Printf.fprintf oc "  \"cores_available\": %d,\n" cores;
    Printf.fprintf oc
      "  \"methodology\": \"wallclock = Shard.drive_batch incl. pool handoff \
       on whatever cores exist; capacity = per-lane isolated rates summed \
       (each lane drains its own RSS partition inline on its private \
       plane), i.e. the throughput of one pinned core per lane\",\n";
    let kernel_lines =
      List.filter_map
        (fun (name, est) ->
          match est with
          | Some v when has_sub name "shard_batch" ->
            Some (Printf.sprintf "    %S: %.1f" name v)
          | _ -> None)
        rows
    in
    Printf.fprintf oc "  \"kernels_ns_per_op\": {\n%s\n  },\n"
      (String.concat ",\n" kernel_lines);
    let series name values =
      Printf.fprintf oc "  %S: {\n%s\n  },\n" name
        (String.concat ",\n"
           (Array.to_list
              (Array.mapi
                 (fun i (lanes, _, _) ->
                   Printf.sprintf "    \"lanes_%d\": %.0f" lanes values.(i))
                 shards)))
    in
    series "pps_wallclock" shard_wall;
    series "pps_capacity" shard_cap;
    let idx_of n =
      let r = ref (-1) in
      Array.iteri (fun i (l, _, _) -> if l = n then r := i) shards;
      !r
    in
    let cap_of n = shard_cap.(idx_of n) in
    Printf.fprintf oc "  \"scaleout\": {\n";
    Printf.fprintf oc "    \"capacity_2_over_1\": %.2f,\n" (cap_of 2 /. cap_of 1);
    Printf.fprintf oc "    \"capacity_4_over_1\": %.2f,\n" (cap_of 4 /. cap_of 1);
    Printf.fprintf oc "    \"capacity_8_over_1\": %.2f,\n" (cap_of 8 /. cap_of 1);
    Printf.fprintf oc "    \"monotone_1_2_4\": %b\n  },\n"
      (cap_of 2 > cap_of 1 && cap_of 4 > cap_of 2);
    Printf.fprintf oc "  \"occupancy_sweep\": [\n%s\n  ]\n}\n"
      (String.concat ",\n"
         (Array.to_list
            (Array.map
               (fun (target, entries, cap, probe, mib, pps) ->
                 Printf.sprintf
                   "    {\"connections\": %d, \"entries\": %d, \"capacity\": %d, \
                    \"load_factor\": %.4f, \"max_probe\": %d, \"tables_mib\": %.1f, \
                    \"warm_pps\": %.0f}"
                   target entries cap
                   (float_of_int entries /. float_of_int (max 1 cap))
                   probe mib pps)
               sweep_rows)));
    close_out oc;
    print_endline "wrote BENCH_fabric_shard.json"
  end;
  Array.iter (fun (_, sf, _) -> Shard.shutdown sf) shards

(* ------------------------------------------------------------------ *)
(* sb_adapt: closed-loop telemetry aggregation + incremental re-routing *)
(* ------------------------------------------------------------------ *)

module Adapt = Sb_adapt.Loop

(* Diurnal demand drift plus a mid-run failure of the hottest core-core
   duplex; closed loop (measured telemetry -> incremental resolve ->
   two-phase-commit rollout) vs the frozen epoch-0 routing and the
   full-knowledge full-re-solve oracle. *)
let adapt () =
  header "Extension: closed-loop adaptation (diurnal drift + link failure)";
  (* Scale the tier-1 TE scenario so the full re-solve can satisfy every
     epoch's demand (alpha >= 1): the oracle is then a genuine upper bound
     and "fraction of oracle" reads as fraction of satisfiable demand. *)
  let m = Model.with_scaled_traffic (te_model ()) 0.75 in
  let n = Model.num_chains m in
  let epochs = 12 and epoch_len = 2.0 and fail_epoch = 6 in
  (* Control epochs are minutes while diurnal drift spans a day, so demand
     moves a small phase step per epoch (period >> horizon). *)
  let demand = Adapt.diurnal_demand ~period:16 ~seed:7 n in
  (* Pick the failure: the core-core duplex carrying the most Switchboard
     traffic under the epoch-0 solve (the most disruptive single failure
     that keeps the core ring connected). *)
  let topo = Model.topology m in
  let is_core node =
    let name = Topology.node_name topo node in
    String.length name >= 4 && String.sub name 0 4 = "core"
  in
  let m0 =
    Model.with_chain_traffic_factors m
      (Array.init n (fun c -> demand ~epoch:0 ~chain:c))
  in
  let ls0 = Routing.load_state (Sb_core.Dp_routing.solve m0) in
  let links = Topology.links topo in
  let failed_links =
    let best = ref (-1., []) in
    Array.iter
      (fun (l : Topology.link) ->
        if
          l.Topology.src < l.Topology.dst
          && is_core l.Topology.src
          && is_core l.Topology.dst
        then begin
          let ids =
            Array.to_list links
            |> List.filter_map (fun (k : Topology.link) ->
                   if
                     (k.Topology.src = l.Topology.src && k.Topology.dst = l.Topology.dst)
                     || (k.Topology.src = l.Topology.dst
                        && k.Topology.dst = l.Topology.src)
                   then Some k.Topology.id
                   else None)
          in
          let load =
            List.fold_left
              (fun acc i -> acc +. Sb_core.Load_state.link_sb_load ls0 i)
              0. ids
          in
          if load > fst !best then best := (load, ids)
        end)
      links;
    snd !best
  in
  let sc =
    {
      Adapt.sc_model = m;
      sc_epochs = epochs;
      sc_epoch_len = epoch_len;
      sc_demand = demand;
      sc_failures = [ (fail_epoch, failed_links) ];
    }
  in
  let params = Adapt.default_params in
  let static = Adapt.run ~params sc Adapt.Static in
  let closed = Adapt.run ~params sc Adapt.Closed_loop in
  let oracle = Adapt.run ~params sc Adapt.Oracle in
  let s = Array.of_list static.Adapt.epochs in
  let c = Array.of_list closed.Adapt.epochs in
  let o = Array.of_list oracle.Adapt.epochs in
  let ratio arr e =
    if o.(e).Adapt.ep_supported <= 0. then 1.
    else arr.(e).Adapt.ep_supported /. o.(e).Adapt.ep_supported
  in
  let t =
    Table.create
      ~header:
        [ "epoch"; "oracle tput"; "closed tput"; "static tput"; "closed/oracle";
          "moved"; "down" ]
  in
  for e = 0 to epochs - 1 do
    Table.add_row t
      [
        (if e = fail_epoch then Printf.sprintf "%d*" e else string_of_int e);
        Printf.sprintf "%.2f" o.(e).Adapt.ep_supported;
        Printf.sprintf "%.2f" c.(e).Adapt.ep_supported;
        Printf.sprintf "%.2f" s.(e).Adapt.ep_supported;
        Printf.sprintf "%.0f%%" (100. *. ratio c e);
        string_of_int c.(e).Adapt.ep_rerouted;
        string_of_int c.(e).Adapt.ep_down_links;
      ]
  done;
  Table.print t;
  Printf.printf "(* = %d links fail at epoch %d)\n" (List.length failed_links) fail_epoch;
  let first_recovered from =
    let rec go e =
      if e >= epochs then epochs else if ratio c e >= 0.9 then e else go (e + 1)
    in
    go from
  in
  let conv_start = first_recovered 0 in
  (* The failure's damage can surface a few epochs later (demand has to
     grow into the lost capacity): recovery is measured from the first
     post-failure epoch that actually drops below the bar. *)
  let dip_fail =
    let rec go e =
      if e >= epochs then fail_epoch else if ratio c e < 0.9 then e else go (e + 1)
    in
    go fail_epoch
  in
  let conv_fail = first_recovered dip_fail in
  let max_moved =
    Array.fold_left (fun acc r -> max acc r.Adapt.ep_rerouted) 0 c
  in
  Printf.printf
    "closed loop: >=90%% of oracle from epoch %d; back >=90%% at epoch %d (%d epochs \
     after failure)\n"
    conv_start conv_fail (conv_fail - fail_epoch);
  Printf.printf
    "final epoch: closed %.0f%% vs static %.0f%% of oracle; max churn %d/epoch \
     (budget %d)\n"
    (100. *. ratio c (epochs - 1))
    (100. *. ratio s (epochs - 1))
    max_moved params.Adapt.churn_budget;
  if !json_mode then begin
    let oc = open_out "BENCH_adapt.json" in
    let floats get arr =
      String.concat ", "
        (List.map (fun r -> Printf.sprintf "%.4f" (get r)) (Array.to_list arr))
    in
    let ints get arr =
      String.concat ", "
        (List.map (fun r -> string_of_int (get r)) (Array.to_list arr))
    in
    let series name arr =
      Printf.sprintf
        "    %S: {\n\
        \      \"supported\": [%s],\n\
        \      \"flow_throughput\": [%s],\n\
        \      \"mean_rtt_ms\": [%s],\n\
        \      \"rerouted\": [%s],\n\
        \      \"down_links\": [%s],\n\
        \      \"reports\": [%s]\n\
        \    }"
        name
        (floats (fun r -> r.Adapt.ep_supported) arr)
        (floats (fun r -> r.Adapt.ep_throughput) arr)
        (floats (fun r -> 1000. *. r.Adapt.ep_mean_rtt) arr)
        (ints (fun r -> r.Adapt.ep_rerouted) arr)
        (ints (fun r -> r.Adapt.ep_down_links) arr)
        (ints (fun r -> r.Adapt.ep_reports) arr)
    in
    Printf.fprintf oc "{\n  \"params\": {\n";
    Printf.fprintf oc "    \"epochs\": %d,\n    \"epoch_len\": %.1f,\n" epochs epoch_len;
    Printf.fprintf oc "    \"fail_epoch\": %d,\n    \"failed_links\": [%s],\n" fail_epoch
      (String.concat ", " (List.map string_of_int failed_links));
    Printf.fprintf oc "    \"hysteresis\": %.3f,\n    \"churn_budget\": %d\n  },\n"
      params.Adapt.hysteresis params.Adapt.churn_budget;
    Printf.fprintf oc "  \"series\": {\n%s,\n%s,\n%s\n  },\n" (series "oracle" o)
      (series "closed" c) (series "static" s);
    Printf.fprintf oc "  \"recovery\": {\n";
    Printf.fprintf oc "    \"converged_epoch\": %d,\n" conv_start;
    Printf.fprintf oc "    \"failure_recovered_epoch\": %d,\n" conv_fail;
    Printf.fprintf oc "    \"epochs_after_failure\": %d,\n" (conv_fail - fail_epoch);
    Printf.fprintf oc "    \"final_closed_over_oracle\": %.4f,\n" (ratio c (epochs - 1));
    Printf.fprintf oc "    \"final_static_over_oracle\": %.4f,\n" (ratio s (epochs - 1));
    Printf.fprintf oc "    \"max_rerouted_per_epoch\": %d,\n" max_moved;
    Printf.fprintf oc "    \"churn_budget_respected\": %b\n  }\n}\n"
      (max_moved <= params.Adapt.churn_budget);
    close_out oc;
    print_endline "wrote BENCH_adapt.json"
  end

(* ------------------------------------------------------------------ *)
(* Scenario suite: streaming workloads end to end (BENCH_scenarios)    *)
(* ------------------------------------------------------------------ *)

module Scenario = Sb_adapt.Scenario

(* The sb_net.Workload matrix (flash crowd, DDoS flood, elephant/mice,
   regional failover, diurnal drift, combinator overlay) on the shared
   25-site backbone: closed-loop + oracle control arms for satisfied
   demand and bus p99, and a streaming flow-churn stress of the packed
   dataplane for pps and flow-table occupancy. SB_SCENARIOS_SCALE=smoke
   selects the CI-sized config. Everything except pps is deterministic. *)
let scenarios () =
  header "Extension: workload scenario suite (25-site backbone)";
  let scale =
    match Sys.getenv_opt "SB_SCENARIOS_SCALE" with
    | Some "smoke" -> "smoke"
    | _ -> "full"
  in
  let cfg = if scale = "smoke" then Scenario.smoke_config else Scenario.default_config in
  Printf.printf
    "config: %s (seed=%d ticks=%d chains=%d window=%d pkts/tick=%d lanes=%d)\n" scale
    cfg.Scenario.seed cfg.Scenario.ticks cfg.Scenario.num_chains cfg.Scenario.window
    cfg.Scenario.pkts_per_tick cfg.Scenario.lanes;
  let results = Scenario.run_matrix ~clock:Unix.gettimeofday cfg in
  let t =
    Table.create
      ~header:
        [ "scenario"; "pps"; "packets"; "distinct flows"; "peak tab"; "expired";
          "p99 bus ms"; "satisfied"; "oracle"; "ratio" ]
  in
  List.iter
    (fun m ->
      Table.add_row t
        [
          m.Scenario.m_scenario;
          Printf.sprintf "%.2fM" (m.Scenario.m_pps /. 1e6);
          string_of_int m.Scenario.m_packets;
          string_of_int m.Scenario.m_distinct_flows;
          string_of_int m.Scenario.m_peak_entries;
          string_of_int m.Scenario.m_expired;
          Printf.sprintf "%.2f" m.Scenario.m_p99_latency_ms;
          Printf.sprintf "%.1f" m.Scenario.m_satisfied;
          Printf.sprintf "%.1f" m.Scenario.m_oracle;
          Printf.sprintf "%.3f" m.Scenario.m_ratio;
        ])
    results;
  Table.print t;
  (match List.find_opt (fun m -> m.Scenario.m_scenario = "ddos") results with
  | Some m ->
    Printf.printf "ddos: %d distinct flows through the tables, live window %d, peak %d entries\n"
      m.Scenario.m_distinct_flows m.Scenario.m_live_flows m.Scenario.m_peak_entries
  | None -> ());
  if !json_mode then begin
    let oc = open_out "BENCH_scenarios.json" in
    Printf.fprintf oc "{\n  \"params\": {\n";
    Printf.fprintf oc "    \"scale\": %S,\n    \"seed\": %d,\n    \"ticks\": %d,\n" scale
      cfg.Scenario.seed cfg.Scenario.ticks;
    Printf.fprintf oc "    \"epoch_len\": %.2f,\n    \"num_chains\": %d,\n"
      cfg.Scenario.epoch_len cfg.Scenario.num_chains;
    Printf.fprintf oc "    \"window\": %d,\n    \"pkts_per_tick\": %d,\n"
      cfg.Scenario.window cfg.Scenario.pkts_per_tick;
    Printf.fprintf oc "    \"lanes\": %d,\n    \"idle_ticks\": %d,\n"
      cfg.Scenario.lanes cfg.Scenario.idle_ticks;
    Printf.fprintf oc "    \"sites\": 25\n  },\n";
    Printf.fprintf oc "  \"scenarios\": {\n";
    let n = List.length results in
    List.iteri
      (fun i m ->
        Printf.fprintf oc "    %S: {\n" m.Scenario.m_scenario;
        Printf.fprintf oc "      \"pps\": %.0f,\n" m.Scenario.m_pps;
        Printf.fprintf oc "      \"wall_s\": %.3f,\n" m.Scenario.m_wall;
        Printf.fprintf oc "      \"packets\": %d,\n" m.Scenario.m_packets;
        Printf.fprintf oc "      \"delivered\": %d,\n" m.Scenario.m_delivered;
        Printf.fprintf oc "      \"distinct_flows\": %d,\n" m.Scenario.m_distinct_flows;
        Printf.fprintf oc "      \"live_flows\": %d,\n" m.Scenario.m_live_flows;
        Printf.fprintf oc "      \"peak_flow_entries\": %d,\n" m.Scenario.m_peak_entries;
        Printf.fprintf oc "      \"final_flow_entries\": %d,\n" m.Scenario.m_final_entries;
        Printf.fprintf oc "      \"expired\": %d,\n" m.Scenario.m_expired;
        Printf.fprintf oc "      \"unroutable\": %d,\n" m.Scenario.m_unroutable;
        Printf.fprintf oc "      \"p99_bus_latency_ms\": %.4f,\n"
          m.Scenario.m_p99_latency_ms;
        Printf.fprintf oc "      \"bus_delivered\": %d,\n" m.Scenario.m_bus_delivered;
        Printf.fprintf oc "      \"satisfied\": %.4f,\n" m.Scenario.m_satisfied;
        Printf.fprintf oc "      \"oracle\": %.4f,\n" m.Scenario.m_oracle;
        Printf.fprintf oc "      \"satisfied_over_oracle\": %.4f\n" m.Scenario.m_ratio;
        Printf.fprintf oc "    }%s\n" (if i = n - 1 then "" else ","))
      results;
    Printf.fprintf oc "  }\n}\n";
    close_out oc;
    print_endline "wrote BENCH_scenarios.json"
  end

(* ------------------------------------------------------------------ *)
(* Decentralized anycast arm: controller-outage sweep (BENCH_anycast)  *)
(* ------------------------------------------------------------------ *)

(* The decentralization trade, measured: all four Loop arms on the
   25-site backbone with a Global Switchboard outage covering a growing
   fraction of the run (and the sweep's sacrificial site going dark one
   epoch in). Satisfied demand and path stretch per (fraction, arm) —
   closed-loop degrades toward static as the outage grows, the anycast
   agents keep adapting without the controller. SB_ANYCAST_SCALE=smoke
   selects the CI-sized config. Fully deterministic (no wall clocks in
   the JSON, so CI diffs a double run byte for byte). *)
let anycast_bench () =
  header "Extension: decentralized anycast arm under controller outage";
  let scale =
    match Sys.getenv_opt "SB_ANYCAST_SCALE" with
    | Some "smoke" -> "smoke"
    | _ -> "full"
  in
  let cfg = if scale = "smoke" then Scenario.smoke_config else Scenario.default_config in
  Printf.printf "config: %s (seed=%d ticks=%d chains=%d lanes=%d outage_start_epoch=%d)\n"
    scale cfg.Scenario.seed cfg.Scenario.ticks cfg.Scenario.num_chains
    cfg.Scenario.lanes
    (Scenario.outage_start_epoch cfg);
  let fractions = [ 0.; 0.25; 0.5; 0.75; 1.0 ] in
  let points = Scenario.outage_sweep ~fractions cfg in
  let t =
    Table.create
      ~header:[ "outage frac"; "arm"; "pre"; "during"; "stretch"; "rerouted" ]
  in
  List.iter
    (fun (p : Scenario.outage_point) ->
      Table.add_row t
        [
          Printf.sprintf "%.2f" p.Scenario.op_fraction;
          p.Scenario.op_arm;
          Printf.sprintf "%.1f" p.Scenario.op_pre;
          Printf.sprintf "%.1f" p.Scenario.op_during;
          Printf.sprintf "%.3f" p.Scenario.op_stretch;
          string_of_int p.Scenario.op_rerouted;
        ])
    points;
  Table.print t;
  let find frac arm =
    List.find
      (fun (p : Scenario.outage_point) ->
        Float.abs (p.Scenario.op_fraction -. frac) < 1e-9 && p.Scenario.op_arm = arm)
      points
  in
  let full_any = find 1.0 "anycast" and full_closed = find 1.0 "closed-loop" in
  let zero_any = find 0. "anycast" and zero_closed = find 0. "closed-loop" in
  Printf.printf
    "full outage: anycast %.1f vs closed-loop %.1f (x%.3f); zero outage: closed-loop \
     %.1f vs anycast %.1f (x%.3f)\n"
    full_any.Scenario.op_during full_closed.Scenario.op_during
    (full_any.Scenario.op_during /. full_closed.Scenario.op_during)
    zero_closed.Scenario.op_during zero_any.Scenario.op_during
    (zero_closed.Scenario.op_during /. zero_any.Scenario.op_during);
  if !json_mode then begin
    let oc = open_out "BENCH_anycast.json" in
    Printf.fprintf oc "{\n  \"params\": {\n";
    Printf.fprintf oc "    \"scale\": %S,\n    \"seed\": %d,\n    \"ticks\": %d,\n" scale
      cfg.Scenario.seed cfg.Scenario.ticks;
    Printf.fprintf oc "    \"epoch_len\": %.2f,\n    \"num_chains\": %d,\n"
      cfg.Scenario.epoch_len cfg.Scenario.num_chains;
    Printf.fprintf oc "    \"lanes\": %d,\n    \"sites\": 25,\n" cfg.Scenario.lanes;
    Printf.fprintf oc "    \"outage_start_epoch\": %d\n  },\n"
      (Scenario.outage_start_epoch cfg);
    Printf.fprintf oc "  \"sweep\": [\n";
    let n = List.length points in
    List.iteri
      (fun i (p : Scenario.outage_point) ->
        Printf.fprintf oc
          "    {\"fraction\": %.2f, \"arm\": %S, \"pre\": %.4f, \"during\": %.4f, \
           \"stretch\": %.4f, \"rerouted\": %d}%s\n"
          p.Scenario.op_fraction p.Scenario.op_arm p.Scenario.op_pre
          p.Scenario.op_during p.Scenario.op_stretch p.Scenario.op_rerouted
          (if i = n - 1 then "" else ","))
      points;
    Printf.fprintf oc "  ],\n";
    Printf.fprintf oc "  \"headline\": {\n";
    Printf.fprintf oc "    \"full_outage_anycast_over_closed\": %.4f,\n"
      (full_any.Scenario.op_during /. full_closed.Scenario.op_during);
    Printf.fprintf oc "    \"zero_outage_closed_over_anycast\": %.4f\n"
      (zero_closed.Scenario.op_during /. zero_any.Scenario.op_during);
    Printf.fprintf oc "  }\n}\n";
    close_out oc;
    print_endline "wrote BENCH_anycast.json"
  end

(* ------------------------------------------------------------------ *)
(* Elastic placement: flash-crowd sweep (BENCH_placement)              *)
(* ------------------------------------------------------------------ *)

(* The placement experiment (DESIGN.md section 16): diurnal drift plus a
   flash crowd on one PoP, on the sparse two-deployments-per-VNF
   footprint. Route-only closed loop vs the same loop with the Place
   planner armed vs the oracle (the identical loop with the
   perfect-knowledge placements provisioned in advance), so the headline
   ratio reads as "how much of perfect advance provisioning does elastic
   placement recover online". SB_PLACEMENT_SCALE=smoke selects the
   CI-sized config. Fully deterministic (no wall clocks in the JSON, so
   CI diffs a double run byte for byte). *)
let placement_bench () =
  header "Extension: elastic placement under a one-PoP flash crowd";
  let scale =
    match Sys.getenv_opt "SB_PLACEMENT_SCALE" with
    | Some "smoke" -> "smoke"
    | _ -> "full"
  in
  (* The smoke grid stretches to 12 ticks: the planner needs its observe
     window plus a rollout epoch before an open carries traffic, and an
     8-tick run would end the flash crowd before the second open lands. *)
  let cfg =
    if scale = "smoke" then { Scenario.smoke_config with Scenario.ticks = 12 }
    else Scenario.default_config
  in
  let flash_lo, flash_hi = Scenario.flash_window cfg in
  Printf.printf "config: %s (seed=%d ticks=%d chains=%d lanes=%d flash=[%d,%d))\n"
    scale cfg.Scenario.seed cfg.Scenario.ticks cfg.Scenario.num_chains
    cfg.Scenario.lanes flash_lo flash_hi;
  let points = Scenario.placement_sweep cfg in
  let t =
    Table.create ~header:[ "arm"; "mean"; "flash"; "rerouted"; "scale actions" ]
  in
  List.iter
    (fun (p : Scenario.placement_point) ->
      Table.add_row t
        [
          p.Scenario.pl_arm;
          Printf.sprintf "%.1f" p.Scenario.pl_mean;
          Printf.sprintf "%.1f" p.Scenario.pl_flash;
          string_of_int p.Scenario.pl_rerouted;
          string_of_int p.Scenario.pl_scale_actions;
        ])
    points;
  Table.print t;
  let find arm =
    List.find (fun (p : Scenario.placement_point) -> p.Scenario.pl_arm = arm) points
  in
  let ro = find "route-only" and pl = find "placement" and orc = find "oracle" in
  (* The planner's own worst case: one action per cooldown cycle, opens
     plus the drains that close them. *)
  let churn_budget = 2 * Sb_adapt.Place.default_params.Sb_adapt.Place.max_extra in
  Printf.printf
    "flash window: route-only %.1f, placement %.1f, oracle %.1f -> placement holds \
     %.1f%% of oracle (route-only %.1f%%); %d scale actions (budget %d)\n"
    ro.Scenario.pl_flash pl.Scenario.pl_flash orc.Scenario.pl_flash
    (100. *. pl.Scenario.pl_flash /. orc.Scenario.pl_flash)
    (100. *. ro.Scenario.pl_flash /. orc.Scenario.pl_flash)
    pl.Scenario.pl_scale_actions churn_budget;
  if !json_mode then begin
    let oc = open_out "BENCH_placement.json" in
    Printf.fprintf oc "{\n  \"params\": {\n";
    Printf.fprintf oc "    \"scale\": %S,\n    \"seed\": %d,\n    \"ticks\": %d,\n" scale
      cfg.Scenario.seed cfg.Scenario.ticks;
    Printf.fprintf oc "    \"epoch_len\": %.2f,\n    \"num_chains\": %d,\n"
      cfg.Scenario.epoch_len cfg.Scenario.num_chains;
    Printf.fprintf oc "    \"lanes\": %d,\n    \"sites\": 25,\n" cfg.Scenario.lanes;
    Printf.fprintf oc "    \"flash_lo\": %d,\n    \"flash_hi\": %d,\n" flash_lo flash_hi;
    Printf.fprintf oc "    \"churn_budget\": %d\n  },\n" churn_budget;
    Printf.fprintf oc "  \"sweep\": [\n";
    let n = List.length points in
    List.iteri
      (fun i (p : Scenario.placement_point) ->
        Printf.fprintf oc
          "    {\"arm\": %S, \"mean\": %.4f, \"flash\": %.4f, \"rerouted\": %d, \
           \"scale_actions\": %d}%s\n"
          p.Scenario.pl_arm p.Scenario.pl_mean p.Scenario.pl_flash
          p.Scenario.pl_rerouted p.Scenario.pl_scale_actions
          (if i = n - 1 then "" else ","))
      points;
    Printf.fprintf oc "  ],\n";
    Printf.fprintf oc "  \"headline\": {\n";
    Printf.fprintf oc "    \"placement_over_oracle_flash\": %.4f,\n"
      (pl.Scenario.pl_flash /. orc.Scenario.pl_flash);
    Printf.fprintf oc "    \"placement_over_oracle_mean\": %.4f,\n"
      (pl.Scenario.pl_mean /. orc.Scenario.pl_mean);
    Printf.fprintf oc "    \"route_only_over_oracle_flash\": %.4f,\n"
      (ro.Scenario.pl_flash /. orc.Scenario.pl_flash);
    Printf.fprintf oc "    \"scale_actions\": %d\n" pl.Scenario.pl_scale_actions;
    Printf.fprintf oc "  }\n}\n";
    close_out oc;
    print_endline "wrote BENCH_placement.json"
  end

(* ------------------------------------------------------------------ *)
(* Extension: rule compiler + delta rollout (BENCH_compile)            *)
(* ------------------------------------------------------------------ *)

module Compile = Sb_ctrl.Compile

(* Two measurements, both fully deterministic (no wall clocks in the
   JSON, so CI can diff a double run byte for byte):

   1. Diagram scale: compile N templated chains (route/spec templates
      model a fleet of cloned service chains) into the hash-consed
      interner and price a 2%-churn epoch — the bytes a delta Prepare
      ships vs a full one, using the Types.msg_size wire model.

   2. Rollout latency: a live System under a byte-priced bus
      (bus_bandwidth), Delta vs Full rollout — simulated commit latency
      and wide-area bytes of one route update as the committed chain
      population grows. *)
let compile_bench () =
  header "Extension: compiled delta rollout (bytes + 2PC latency)";
  let scale =
    match Sys.getenv_opt "SB_COMPILE_SCALE" with
    | Some "smoke" -> "smoke"
    | _ -> "full"
  in
  let counts =
    if scale = "smoke" then [ 1_000; 10_000 ]
    else [ 10_000; 100_000; 1_000_000 ]
  in
  let nsites = 25 in
  let vnf_of k = k mod 8 in
  (* Template pool: 64 spec shapes x route patterns keyed by chain id —
     a fleet of cloned service chains, the regime where hash-consing
     shares VNF suffixes across chains. *)
  let spec_of id =
    let tpl = id mod 64 in
    let nvnfs = 5 + (tpl mod 4) in
    {
      Ct.spec_name = "tpl";
      ingress_attachment = "in";
      egress_attachment = "out";
      vnfs = List.init nvnfs (fun i -> vnf_of (tpl + i));
      traffic = 1.0;
    }
  in
  (* [churn = true] is the epoch's incremental update: only the LAST
     VNF's site moves (one admission-demand row, two adjacent stages). *)
  let routes_of id ~churn =
    let sp = spec_of id in
    let last = List.length sp.Ct.vnfs - 1 in
    let mk o w =
      {
        Ct.element_sites =
          Array.of_list
            ((id mod nsites)
             :: List.mapi
                  (fun i v ->
                    (v + o + i + if churn && i = last then 1 else 0) mod nsites)
                  sp.Ct.vnfs
            @ [ (id + 1) mod nsites ]);
        weight = w;
      }
    in
    [ mk 0 0.4; mk 3 0.3; mk 6 0.2; mk 9 0.1 ]
  in
  let t =
    Table.create
      ~header:
        [ "chains"; "nodes"; "actions"; "stages"; "sharing"; "ruleset B";
          "churn B"; "ratio" ]
  in
  let diagram_rows =
    List.map
      (fun n ->
        let c = ref (Compile.empty ()) in
        for id = 0 to n - 1 do
          let p =
            Compile.prepare !c ~chain:id ~spec:(spec_of id)
              ~routes:(routes_of id ~churn:false)
          in
          c := Compile.commit !c ~chain:id p
        done;
        let st = Compile.stats !c in
        (* A 2%-churn epoch under delta rollout broadcasts one Route_delta
           per churned chain; the full-reinstall baseline re-broadcasts
           every chain's Route_update. Both priced by the wire model. *)
        let ruleset_b = ref 0 and churn_b = ref 0 in
        let prep_full = ref 0 and prep_delta = ref 0 in
        for id = 0 to n - 1 do
          let spec = spec_of id in
          ruleset_b :=
            !ruleset_b
            + Ct.msg_size
                (Ct.Route_update
                   { chain = id; egress_label = 0; spec;
                     routes = routes_of id ~churn:false; version = 0 });
          if id mod 50 = 0 then begin
            let routes = routes_of id ~churn:true in
            let p = Compile.prepare !c ~chain:id ~spec ~routes in
            let d = Compile.delta_from_committed !c p in
            churn_b :=
              !churn_b
              + Ct.msg_size
                  (Ct.Route_delta { chain = id; egress_label = 0; spec; delta = d });
            prep_full :=
              !prep_full
              + Ct.msg_size (Ct.Prepare { txid = 0; chain = id; routes; delta = None; spec });
            prep_delta :=
              !prep_delta
              + Ct.msg_size
                  (Ct.Prepare { txid = 0; chain = id; routes = []; delta = Some d; spec })
          end
        done;
        let sharing = float_of_int st.Compile.nodes /. float_of_int st.Compile.stages_total in
        Table.add_row t
          [
            string_of_int n;
            string_of_int st.Compile.nodes;
            string_of_int st.Compile.actions;
            string_of_int st.Compile.stages_total;
            Printf.sprintf "%.4f" sharing;
            string_of_int !ruleset_b;
            string_of_int !churn_b;
            Printf.sprintf "%.4f" (float_of_int !churn_b /. float_of_int !ruleset_b);
          ];
        (n, st, !ruleset_b, !churn_b, !prep_full, !prep_delta))
      counts
  in
  Table.print t;
  (* Part 2: live rollout, Delta vs Full. Each VNF controller homes at a
     distinct site so the 2PC crosses the wide area, and the bus prices
     serialization by bytes (10 kB/s), so payload size is visible in the
     commit latency. The update moves only the last VNF — the localized
     churn the delta encodes in O(changed stages). *)
  let sys_counts = if scale = "smoke" then [ 10; 25 ] else [ 10; 50; 200 ] in
  let delay a b = if a = b then 0. else 0.030 in
  let chain_vnfs i = List.init 8 (fun k -> (i + k) mod 3) in
  let routes_for sp ~churn =
    let last = List.length sp.Ct.vnfs - 1 in
    let mk o w =
      {
        Ct.element_sites =
          Array.of_list
            ((0
             :: List.mapi
                  (fun i v ->
                    (v + o + i + if churn && i = last then 1 else 0) mod 4)
                  sp.Ct.vnfs)
            @ [ 3 ]);
        weight = w;
      }
    in
    [ mk 0 0.25; mk 1 0.25; mk 2 0.25; mk 3 0.25 ]
  in
  let run_rollout rollout n =
    let sys =
      Csys.create ~num_sites:4 ~delay ~gsb_site:0 ~rollout ~bus_bandwidth:10_000. ()
    in
    for v = 0 to 2 do
      (* first deployment site = controller home: spread off the GSB *)
      Csys.deploy_vnf sys ~vnf:v ~site:(v + 1) ~capacity:1e9 ~instances:2
    done;
    for site = 0 to 3 do
      for v = 0 to 2 do
        Csys.deploy_vnf sys ~vnf:v ~site ~capacity:1e9 ~instances:2
      done;
      Csys.register_edge sys ~site ~attachment:(Printf.sprintf "a%d" site)
    done;
    Csys.set_route_policy sys (fun sp ~exclude:_ -> Some (routes_for sp ~churn:false));
    let chains =
      List.init n (fun i ->
          let c =
            Csys.request_chain sys
              {
                Ct.spec_name = Printf.sprintf "c%d" i;
                ingress_attachment = "a0";
                egress_attachment = "a3";
                vnfs = chain_vnfs i;
                traffic = 0.1;
              }
          in
          Eng.run (Csys.engine sys);
          c)
    in
    Sb_msgbus.Bus.reset_stats (Csys.bus sys);
    let chain = List.nth chains (n / 2) in
    let spec = Option.get (Csys.chain_spec sys ~chain) in
    let t0 = Eng.now (Csys.engine sys) in
    Csys.update_routes sys ~chain (routes_for spec ~churn:true);
    Eng.run (Csys.engine sys);
    let commit_at =
      List.find_map
        (fun (ts, m) ->
          if ts >= t0 && String.length m >= 15 && String.sub m 0 15 = "gsb: 2pc commit"
          then Some ts
          else None)
        (Csys.log sys)
    in
    let commit_latency =
      match commit_at with
      | Some ts -> ts -. t0
      | None -> Eng.now (Csys.engine sys) -. t0
    in
    let stats = Sb_msgbus.Bus.stats (Csys.bus sys) in
    (commit_latency, stats.Sb_msgbus.Bus.wan_bytes)
  in
  let t2 =
    Table.create
      ~header:
        [ "chains"; "delta commit ms"; "full commit ms"; "delta wan B"; "full wan B" ]
  in
  let rollout_rows =
    List.map
      (fun n ->
        let dl, db = run_rollout Csys.Delta_rollout n in
        let fl, fb = run_rollout Csys.Full_rollout n in
        Table.add_row t2
          [
            string_of_int n;
            Printf.sprintf "%.1f" (1000. *. dl);
            Printf.sprintf "%.1f" (1000. *. fl);
            string_of_int db;
            string_of_int fb;
          ];
        (n, dl, fl, db, fb))
      sys_counts
  in
  Table.print t2;
  if !json_mode then begin
    let oc = open_out "BENCH_compile.json" in
    Printf.fprintf oc "{\n  \"params\": { \"scale\": %S, \"sites\": %d, \"churn\": 0.02 },\n"
      scale nsites;
    Printf.fprintf oc "  \"diagram\": [\n";
    let nd = List.length diagram_rows in
    List.iteri
      (fun i (n, st, ruleset_b, churn_b, prep_full, prep_delta) ->
        Printf.fprintf oc
          "    { \"chains\": %d, \"nodes\": %d, \"actions\": %d, \"stages\": %d, \
           \"sharing\": %.6f, \"full_ruleset_bytes\": %d, \"churn_epoch_bytes\": %d, \
           \"epoch_ratio\": %.6f, \"prepare_full_bytes\": %d, \"prepare_delta_bytes\": %d }%s\n"
          n st.Compile.nodes st.Compile.actions st.Compile.stages_total
          (float_of_int st.Compile.nodes /. float_of_int st.Compile.stages_total)
          ruleset_b churn_b
          (float_of_int churn_b /. float_of_int ruleset_b)
          prep_full prep_delta
          (if i = nd - 1 then "" else ","))
      diagram_rows;
    Printf.fprintf oc "  ],\n  \"rollout\": [\n";
    let nr = List.length rollout_rows in
    List.iteri
      (fun i (n, dl, fl, db, fb) ->
        Printf.fprintf oc
          "    { \"chains\": %d, \"delta_commit_s\": %.6f, \"full_commit_s\": %.6f, \
           \"delta_wan_bytes\": %d, \"full_wan_bytes\": %d }%s\n"
          n dl fl db fb
          (if i = nr - 1 then "" else ","))
      rollout_rows;
    Printf.fprintf oc "  ]\n}\n";
    close_out oc;
    print_endline "wrote BENCH_compile.json"
  end

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10a", fig10a);
    ("fig10b", fig10b);
    ("table2", table2);
    ("fig11", fig11);
    ("table3", table3);
    ("fig12a", fig12a);
    ("fig12b", fig12b);
    ("fig12c", fig12c);
    ("fig13a", fig13a);
    ("fig13b", fig13b);
    ("fig13c", fig13c);
    ("failures", failures);
    ("timevar", timevar);
    ("adapt", adapt);
    ("scenarios", scenarios);
    ("anycast", anycast_bench);
    ("placement", placement_bench);
    ("compile", compile_bench);
    ("ablation", ablation);
    ("scale", scale);
    ("micro", micro);
  ]

let () =
  ignore fmt_or_dash;
  let args =
    match Array.to_list Sys.argv with _ :: rest -> rest | [] -> []
  in
  let requested =
    List.filter
      (fun a ->
        if a = "--json" then begin
          json_mode := true;
          false
        end
        else true)
      args
  in
  let selected =
    if requested = [] then experiments
    else
      List.filter_map
        (fun name ->
          match List.assoc_opt name experiments with
          | Some f -> Some (name, f)
          | None ->
            Printf.eprintf "unknown experiment %s (known: %s)\n" name
              (String.concat " " (List.map fst experiments));
            None)
        requested
  in
  List.iter (fun (_, f) -> f ()) selected
