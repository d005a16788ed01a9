(* Reproduction harness: one entry per table/figure of the paper's
   evaluation (Sections 5.4, 6 and 7), plus the failure, time-varying
   demand, ablation and scalability studies its Section 7.3 calls for.
   Run all with `dune exec bench/main.exe`, or a subset with
   `dune exec bench/main.exe -- fig12a fig9`. The extensions beyond the
   paper (adapt, scenarios, anycast, placement, compile, chaos) are
   `switchboard_cli` subcommands. *)

module Table = Sb_util.Table
module Rng = Sb_util.Rng
module Model = Sb_core.Model
module Routing = Sb_core.Routing
module Eval = Sb_core.Eval
module Workload = Sb_core.Workload
module Topology = Sb_net.Topology

let header title = Printf.printf "\n=== %s ===\n" title

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

(* The tier-1 scenario, scaled so the simplex solves each LP in
   milliseconds (see DESIGN.md on instance-size substitution): an 8-node
   backbone with 16 chains instead of the paper's full AT&T backbone with
   10 000 chains and CPLEX. *)
let te_model ?(coverage = Workload.default.Workload.coverage)
    ?(cpu = Workload.default.Workload.cpu_per_unit) () =
  let rng = Rng.create 42 in
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
   up to 200 chains (~13 k simplex iterations, about 10 s), which also
   makes this experiment the solver's deepest numerical workout. *)
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
      (8, 3, 200, true);
      (12, 4, 500, false);
      (16, 5, 1000, false);
    ];
  Table.print t;
  print_endline
    "(SB-LP's simplex grows superlinearly, as CPLEX did for the paper's authors;\n SB-DP remains sub-second far beyond the LP's practical range)"

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
    ("ablation", ablation);
    ("scale", scale);
  ]

(* Every name is checked before any experiment runs, so a typo fails the
   whole invocation before it prints anything. *)
let () =
  let requested = List.tl (Array.to_list Sys.argv) in
  match List.filter (fun n -> not (List.mem_assoc n experiments)) requested with
  | [] ->
    let names = if requested = [] then List.map fst experiments else requested in
    List.iter (fun n -> (List.assoc n experiments) ()) names
  | unknown ->
    Printf.eprintf "unknown experiment(s): %s (known: %s)\n" (String.concat " " unknown)
      (String.concat " " (List.map fst experiments));
    exit 2
