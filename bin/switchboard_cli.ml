(* Command-line front end to Global Switchboard's traffic engineering.

   Synthesizes a reproducible wide-area scenario (seeded backbone topology +
   chain workload, Section 7.3 style) and exposes the three planning
   operations of Section 4.2:

     switchboard_cli route --scheme sb-dp --chains 24 --coverage 0.5
     switchboard_cli compare --seed 7
     switchboard_cli plan-cloud --budget 200
     switchboard_cli plan-vnf --new-sites 2 *)

open Cmdliner

module Model = Sb_core.Model
module Routing = Sb_core.Routing
module Eval = Sb_core.Eval
module Workload = Sb_core.Workload

(* ----------------------------- options ----------------------------- *)

let seed =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Random seed for the scenario.")

let chains =
  Arg.(value & opt int 24 & info [ "chains" ] ~docv:"N" ~doc:"Number of service chains.")

let coverage =
  Arg.(
    value
    & opt float 0.5
    & info [ "coverage" ] ~docv:"F" ~doc:"Fraction of sites hosting each VNF (0, 1].")

let cores =
  Arg.(value & opt int 5 & info [ "cores" ] ~docv:"N" ~doc:"Backbone core routers.")

let scheme =
  let schemes =
    [
      ("anycast", Eval.Anycast);
      ("compute-aware", Eval.Compute_aware);
      ("onehop", Eval.Onehop);
      ("dp-latency", Eval.Dp_latency);
      ("sb-dp", Eval.Sb_dp);
      ("sb-lp", Eval.Sb_lp);
    ]
  in
  Arg.(
    value
    & opt (enum schemes) Eval.Sb_dp
    & info [ "scheme" ] ~docv:"SCHEME"
        ~doc:"Routing scheme: anycast, compute-aware, onehop, dp-latency, sb-dp, sb-lp.")

let verbose =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print each chain's route.")

let smoke =
  Arg.(
    value & flag
    & info [ "smoke" ]
        ~doc:
          "Run the small smoke-scale config (the one the test goldens pin) instead of \
           the full-scale one.")

let file =
  Arg.(
    value
    & opt (some file) None
    & info [ "file" ] ~docv:"SCENARIO"
        ~doc:
          "Load the deployment from a scenario file (see lib/core/spec.mli for the \
           format) instead of synthesizing one.")

let build_model ?file seed cores chains coverage =
  match file with
  | Some path -> (
    match Sb_core.Spec.load_file path with
    | Ok m -> m
    | Error e ->
      Printf.eprintf "cannot load %s: %s\n" path e;
      exit 2)
  | None ->
    let rng = Sb_util.Rng.create seed in
    let topo = Sb_net.Topology.backbone ~rng ~num_core:cores ~pops_per_core:2 () in
    Workload.synthesize ~rng topo
      { Workload.default with Workload.num_chains = chains; coverage }

(* ------------------------------ route ------------------------------ *)

let route_cmd =
  let run seed cores chains coverage scheme verbose file =
    let m = build_model ?file seed cores chains coverage in
    Printf.printf "scenario: %d nodes, %d chains, coverage %.2f, demand %.1f\n"
      (Model.num_sites m) (Model.num_chains m) coverage (Model.total_demand m);
    match Eval.route ~seed m scheme with
    | Error e ->
      Printf.eprintf "routing failed: %s\n" e;
      1
    | Ok r ->
      if verbose then
        for c = 0 to Model.num_chains m - 1 do
          Format.printf "%a@." (fun ppf r -> Routing.pp_chain ppf r c) r
        done;
      Printf.printf "%s: supported load %.2fx, mean latency %.2f ms\n"
        (Eval.scheme_name scheme) (Routing.max_alpha r)
        (1000. *. Routing.mean_latency r);
      (match Routing.validate r with
      | Ok () -> 0
      | Error e ->
        Printf.eprintf "INVALID ROUTING: %s\n" e;
        1)
  in
  let term =
    Term.(const run $ seed $ cores $ chains $ coverage $ scheme $ verbose $ file)
  in
  Cmd.v
    (Cmd.info "route" ~doc:"Route a chain workload (synthetic or from a file) with one scheme.")
    term

(* ----------------------------- compare ----------------------------- *)

let compare_cmd =
  let run seed cores chains coverage file =
    let m = build_model ?file seed cores chains coverage in
    (* Every (scheme, metric) cell is an independent evaluation over its
       own arena; fan them over domains. *)
    let schemes = Array.of_list Eval.all_schemes in
    let ns = Array.length schemes in
    let mlf = Array.make ns 0. in
    let lat = Array.make ns 0. in
    Sb_util.Par.map_chunks ~n:(2 * ns) (fun lo hi ->
        for k = lo to hi - 1 do
          if k < ns then mlf.(k) <- Eval.max_load_factor ~seed m schemes.(k)
          else lat.(k - ns) <- Eval.latency ~seed ~load:0.5 m schemes.(k - ns)
        done);
    Printf.printf "%-14s %10s %14s\n" "scheme" "max load" "latency@0.5";
    Array.iteri
      (fun i s ->
        Printf.printf "%-14s %9.2fx %11s\n" (Eval.scheme_name s) mlf.(i)
          (if lat.(i) = infinity then "overload"
           else Printf.sprintf "%.2f ms" (1000. *. lat.(i))))
      schemes;
    0
  in
  let term = Term.(const run $ seed $ cores $ chains $ coverage $ file) in
  Cmd.v
    (Cmd.info "compare" ~doc:"Compare all routing schemes on one scenario.")
    term

(* ---------------------------- plan-cloud --------------------------- *)

let plan_cloud_cmd =
  let budget =
    Arg.(value & opt float 200. & info [ "budget" ] ~docv:"B" ~doc:"Extra compute to place.")
  in
  let run seed cores chains coverage budget =
    let m = build_model seed cores chains coverage in
    match (Sb_core.Capacity.optimize m ~budget, Sb_core.Capacity.uniform m ~budget) with
    | Ok opt, Ok uni ->
      Printf.printf "uniform placement:   alpha = %.3f\n" uni.Sb_core.Capacity.alpha;
      Printf.printf "optimized placement: alpha = %.3f (+%.1f%%)\n" opt.Sb_core.Capacity.alpha
        (100. *. ((opt.Sb_core.Capacity.alpha /. uni.Sb_core.Capacity.alpha) -. 1.));
      Array.iteri
        (fun s a -> if a > 1e-6 then Printf.printf "  site %2d: +%.1f\n" s a)
        opt.Sb_core.Capacity.allocation;
      0
    | Error e, _ | _, Error e ->
      Printf.eprintf "planning failed: %s\n" e;
      1
  in
  let term = Term.(const run $ seed $ cores $ chains $ coverage $ budget) in
  Cmd.v
    (Cmd.info "plan-cloud"
       ~doc:"Place additional cloud capacity to maximize supported demand (Section 4.2).")
    term

(* ------------------------------ adapt ------------------------------ *)

let adapt_cmd =
  let module Adapt = Sb_adapt.Loop in
  let module Topology = Sb_net.Topology in
  let epochs =
    Arg.(value & opt int 12 & info [ "epochs" ] ~docv:"N" ~doc:"Control epochs to simulate.")
  in
  let epoch_len =
    Arg.(
      value
      & opt float 2.0
      & info [ "epoch-len" ] ~docv:"S" ~doc:"Simulated seconds per control epoch.")
  in
  let fail_epoch =
    Arg.(
      value
      & opt int 6
      & info [ "fail-epoch" ] ~docv:"E"
          ~doc:"Epoch at which links fail (negative: no failure).")
  in
  let fail_links =
    Arg.(
      value
      & opt (list int) []
      & info [ "fail-links" ] ~docv:"IDS"
          ~doc:
            "Comma-separated link ids to fail at $(b,--fail-epoch); default picks the \
             busiest core-core duplex under the epoch-0 solve.")
  in
  let hysteresis =
    Arg.(
      value
      & opt float Adapt.default_params.Adapt.hysteresis
      & info [ "hysteresis" ] ~docv:"F"
          ~doc:"Relative cost gain a chain must show before it is re-routed.")
  in
  let budget =
    Arg.(
      value
      & opt int Adapt.default_params.Adapt.churn_budget
      & info [ "budget" ] ~docv:"N" ~doc:"Max chains re-routed per control epoch.")
  in
  let run seed cores chains coverage file epochs epoch_len fail_epoch fail_links
      hysteresis budget =
    let m = build_model ?file seed cores chains coverage in
    let topo = Model.topology m in
    (* The closed loop stands up a site agent at every routable node. *)
    let unsited = ref [] in
    for node = Topology.num_nodes topo - 1 downto 0 do
      if Model.site_of_node m node = None then unsited := node :: !unsited
    done;
    if !unsited <> [] then begin
      Printf.eprintf
        "scenario unusable for adaptation: %d node(s) have no Switchboard site (e.g. node %d)\n"
        (List.length !unsited) (List.hd !unsited);
      exit 2
    end;
    let n = Model.num_chains m in
    let demand = Adapt.diurnal_demand ~period:(2 * epochs) ~seed n in
    let failed_links =
      if fail_epoch < 0 || fail_epoch >= epochs then []
      else if fail_links <> [] then fail_links
      else begin
        (* Busiest core-core duplex under the epoch-0 solve: the most
           disruptive single failure that keeps the core ring connected. *)
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
        let best = ref (-1., []) in
        Array.iter
          (fun (l : Topology.link) ->
            if l.Topology.src < l.Topology.dst && is_core l.Topology.src
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
      end
    in
    let sc =
      {
        Adapt.sc_model = m;
        sc_epochs = epochs;
        sc_epoch_len = epoch_len;
        sc_demand = demand;
        sc_failures = (if failed_links = [] then [] else [ (fail_epoch, failed_links) ]);
      }
    in
    let params =
      { Adapt.default_params with Adapt.hysteresis; churn_budget = budget; seed }
    in
    Printf.printf "scenario: %d nodes, %d chains, %d epochs x %.1fs" (Model.num_sites m)
      n epochs epoch_len;
    if failed_links <> [] then
      Printf.printf "; %d link(s) fail at epoch %d" (List.length failed_links) fail_epoch;
    print_newline ();
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
    Printf.printf "%-6s %12s %12s %12s %15s %6s %5s\n" "epoch" "oracle tput"
      "closed tput" "static tput" "closed/oracle" "moved" "down";
    for e = 0 to epochs - 1 do
      Printf.printf "%-6s %12.2f %12.2f %12.2f %14.0f%% %6d %5d\n"
        (if failed_links <> [] && e = fail_epoch then Printf.sprintf "%d*" e
         else string_of_int e)
        o.(e).Adapt.ep_supported c.(e).Adapt.ep_supported s.(e).Adapt.ep_supported
        (100. *. ratio c e) c.(e).Adapt.ep_rerouted c.(e).Adapt.ep_down_links
    done;
    Printf.printf
      "closed loop moved %d chain route(s) in total (budget %d/epoch); final epoch: \
       closed %.0f%%, static %.0f%% of oracle\n"
      closed.Adapt.total_rerouted budget
      (100. *. ratio c (epochs - 1))
      (100. *. ratio s (epochs - 1));
    0
  in
  let term =
    Term.(
      const run $ seed $ cores $ chains $ coverage $ file $ epochs $ epoch_len
      $ fail_epoch $ fail_links $ hysteresis $ budget)
  in
  Cmd.v
    (Cmd.info "adapt"
       ~doc:
         "Run the closed telemetry/re-routing loop on a scenario (synthetic or from a \
          file) against static and oracle baselines.")
    term

(* ----------------------------- plan-vnf ---------------------------- *)

let plan_vnf_cmd =
  let new_sites =
    Arg.(value & opt int 1 & info [ "new-sites" ] ~docv:"N" ~doc:"New sites per VNF.")
  in
  let exact =
    Arg.(
      value & flag
      & info [ "exact" ]
          ~doc:
            "Solve the Section 4.3 placement MIP by branch-and-bound instead of the \
             greedy (falls back to the greedy if the search returns no incumbent).")
  in
  let run seed cores chains coverage new_sites exact =
    let m = build_model seed cores chains coverage in
    let lat model =
      1000.
      *. Routing.propagation_latency
           (Sb_core.Dp_routing.solve ~rng:(Sb_util.Rng.create seed) model)
    in
    let sugg =
      if exact then
        match Sb_core.Placement.mip m ~new_sites_per_vnf:new_sites with
        | Some exact -> exact
        | None ->
          (* The MIP already warned on stderr (node budget / infeasible);
             hand the operator the greedy hint rather than nothing. *)
          Printf.printf "MIP returned no incumbent; using the greedy placement\n";
          Sb_core.Placement.suggest m ~new_sites_per_vnf:new_sites
      else Sb_core.Placement.suggest m ~new_sites_per_vnf:new_sites
    in
    let rand = Sb_core.Placement.random ~rng:(Sb_util.Rng.create seed) m ~new_sites_per_vnf:new_sites in
    Printf.printf "current deployment:     %.2f ms mean propagation latency\n" (lat m);
    Printf.printf "random new sites:       %.2f ms\n" (lat rand);
    Printf.printf "Switchboard placement:  %.2f ms\n" (lat sugg);
    0
  in
  let term = Term.(const run $ seed $ cores $ chains $ coverage $ new_sites $ exact) in
  Cmd.v
    (Cmd.info "plan-vnf"
       ~doc:"Suggest new VNF deployment sites that minimize chain latency (Section 4.2).")
    term

(* ------------------------------ chaos ------------------------------ *)

let chaos_cmd =
  let module Schedule = Sb_chaos.Schedule in
  let module Harness = Sb_chaos.Harness in
  let search =
    Arg.(value & flag & info [ "search" ] ~doc:"Search seeds for a violating schedule.")
  in
  let budget =
    Arg.(
      value & opt int 200
      & info [ "budget" ] ~docv:"N" ~doc:"Schedules to try under $(b,--search).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Write the (shrunk) violating schedule to FILE, for CI artifacts.")
  in
  let lanes =
    Arg.(
      value
      & opt (some int) None
      & info [ "lanes" ] ~docv:"D"
          ~doc:
            "Dataplane shard lanes for the replayed system (default 1). The \
             invariants must hold at any lane count.")
  in
  let run seed search budget out lanes =
    let print_result (r : Harness.result) =
      Format.printf "schedule (seed %d):@.%a@.%a@." r.schedule.Schedule.seed
        Schedule.pp r.schedule Harness.pp_result r
    in
    if search then begin
      match Harness.search ~base_seed:seed ~budget with
      | None ->
        Format.printf
          "chaos: %d schedules (seeds %d..%d), zero invariant violations@." budget
          seed
          (seed + budget - 1);
        0
      | Some r ->
        Format.printf "chaos: VIOLATION — minimal failing schedule:@.";
        print_result r;
        Format.printf "replay: switchboard_cli chaos --seed %d@."
          r.schedule.Schedule.seed;
        (match out with
        | Some file ->
          let oc = open_out file in
          output_string oc (Schedule.to_string r.schedule);
          output_string oc "\n";
          List.iter
            (fun v ->
              output_string oc (Format.asprintf "%a\n" Sb_chaos.Invariant.pp_violation v))
            r.violations;
          close_out oc
        | None -> ());
        1
    end
    else begin
      let r = Harness.run_seed ?lanes seed in
      print_result r;
      if r.violations = [] then 0 else 1
    end
  in
  let term = Term.(const run $ seed $ search $ budget $ out $ lanes) in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Replay one fault schedule ($(b,--seed)) or search many ($(b,--search)) against \
          the whole-system invariant checker. Deterministic: the same seed replays \
          bit-identically.")
    term

(* ---------------------------- scenarios ---------------------------- *)

let scenarios_cmd =
  let module Scenario = Sb_adapt.Scenario in
  let ticks =
    Arg.(
      value
      & opt (some int) None
      & info [ "ticks" ] ~docv:"N" ~doc:"Scenario horizon in control epochs.")
  in
  let window =
    Arg.(
      value
      & opt (some int) None
      & info [ "window" ] ~docv:"N" ~doc:"Total concurrently-live flows.")
  in
  let pkts =
    Arg.(
      value
      & opt (some int) None
      & info [ "pkts" ] ~docv:"N" ~doc:"Sustained packets per tick.")
  in
  let lanes =
    Arg.(
      value
      & opt (some int) None
      & info [ "lanes" ] ~docv:"D" ~doc:"Dataplane shard lanes.")
  in
  let num_chains =
    Arg.(
      value
      & opt (some int) None
      & info [ "chains" ] ~docv:"N" ~doc:"Service chains (= workload keys).")
  in
  let names =
    Arg.(
      value & opt_all string []
      & info [ "scenario" ] ~docv:"NAME"
          ~doc:"Run only this scenario (repeatable); default: the whole catalog.")
  in
  let run seed smoke ticks window pkts lanes num_chains names =
    let base = if smoke then Scenario.smoke_config else Scenario.default_config in
    let cfg =
      {
        base with
        Scenario.seed;
        ticks = Option.value ~default:base.Scenario.ticks ticks;
        window = Option.value ~default:base.Scenario.window window;
        pkts_per_tick = Option.value ~default:base.Scenario.pkts_per_tick pkts;
        lanes = Option.value ~default:base.Scenario.lanes lanes;
        num_chains = Option.value ~default:base.Scenario.num_chains num_chains;
      }
    in
    let unknown =
      List.filter (fun n -> not (List.mem n Scenario.scenario_names)) names
    in
    if unknown <> [] then begin
      Format.eprintf "scenarios: unknown scenario(s): %s (known: %s)@."
        (String.concat ", " unknown)
        (String.concat ", " Scenario.scenario_names);
      1
    end
    else begin
      (* Deterministic output only (no wall clock), so CI can run this
         twice and diff byte-for-byte. *)
      let results =
        Scenario.run_matrix ?names:(if names = [] then None else Some names) cfg
      in
      Format.printf
        "scenarios: seed=%d ticks=%d chains=%d window=%d pkts/tick=%d lanes=%d@."
        cfg.Scenario.seed cfg.Scenario.ticks cfg.Scenario.num_chains
        cfg.Scenario.window cfg.Scenario.pkts_per_tick cfg.Scenario.lanes;
      List.iter (fun m -> Format.printf "%a@." Scenario.pp_metrics m) results;
      0
    end
  in
  let term =
    Term.(const run $ seed $ smoke $ ticks $ window $ pkts $ lanes $ num_chains $ names)
  in
  Cmd.v
    (Cmd.info "scenarios"
       ~doc:
         "Run the workload scenario suite (flash crowd, DDoS flood, elephant/mice, \
          regional failover, diurnal drift, combinator overlay) end to end on the \
          25-site backbone: closed-loop + oracle control arms and a streaming \
          flow-churn stress of the packed dataplane. Deterministic: same seed, same \
          output.")
    term

(* ----------------------------- anycast ----------------------------- *)

let anycast_cmd =
  let module Scenario = Sb_adapt.Scenario in
  let ticks =
    Arg.(
      value
      & opt (some int) None
      & info [ "ticks" ] ~docv:"N" ~doc:"Scenario horizon in control epochs.")
  in
  let num_chains =
    Arg.(
      value
      & opt (some int) None
      & info [ "chains" ] ~docv:"N" ~doc:"Service chains (= workload keys).")
  in
  let lanes =
    Arg.(
      value
      & opt (some int) None
      & info [ "lanes" ] ~docv:"D" ~doc:"Forwarder RSS lanes in the live arms.")
  in
  let fractions =
    Arg.(
      value & opt_all float []
      & info [ "fraction" ] ~docv:"F"
          ~doc:
            "Controller-outage fraction of the post-start horizon (repeatable); \
             default: 0, 0.25, 0.5, 0.75, 1.")
  in
  let run seed smoke ticks num_chains lanes fractions =
    let base = if smoke then Scenario.smoke_config else Scenario.default_config in
    let cfg =
      {
        base with
        Scenario.seed;
        ticks = Option.value ~default:base.Scenario.ticks ticks;
        num_chains = Option.value ~default:base.Scenario.num_chains num_chains;
        lanes = Option.value ~default:base.Scenario.lanes lanes;
      }
    in
    let fractions = if fractions = [] then None else Some fractions in
    let points = Scenario.outage_sweep ?fractions cfg in
    Format.printf "anycast: seed=%d ticks=%d chains=%d lanes=%d outage_start_epoch=%d@."
      cfg.Scenario.seed cfg.Scenario.ticks cfg.Scenario.num_chains cfg.Scenario.lanes
      (Scenario.outage_start_epoch cfg);
    List.iter (fun p -> Format.printf "%a@." Scenario.pp_outage_point p) points;
    0
  in
  let term = Term.(const run $ seed $ smoke $ ticks $ num_chains $ lanes $ fractions) in
  Cmd.v
    (Cmd.info "anycast"
       ~doc:
         "Controller-outage sweep of the four control arms (static, oracle, \
          closed-loop, decentralized anycast) on the 25-site backbone: satisfied \
          demand and path stretch vs. the fraction of the run the Global \
          Switchboard is down. Deterministic: same seed, same output.")
    term

(* ---------------------------- placement ---------------------------- *)

let placement_cmd =
  let module Scenario = Sb_adapt.Scenario in
  let module Table = Sb_util.Table in
  (* The placement experiment (DESIGN.md section 16): diurnal drift plus a
     flash crowd on one PoP, on the sparse two-deployments-per-VNF
     footprint. Route-only closed loop vs the same loop with the Place
     planner armed vs the oracle (the identical loop with the
     perfect-knowledge placements provisioned in advance), so the headline
     ratio reads as "how much of perfect advance provisioning does elastic
     placement recover online". Fully deterministic. *)
  let run smoke =
    let scale = if smoke then "smoke" else "full" in
    (* The smoke grid stretches to 12 ticks: the planner needs its observe
       window plus a rollout epoch before an open carries traffic, and an
       8-tick run would end the flash crowd before the second open lands. *)
    let cfg =
      if smoke then { Scenario.smoke_config with Scenario.ticks = 12 }
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
    0
  in
  Cmd.v
    (Cmd.info "placement"
       ~doc:
         "Elastic placement under a one-PoP flash crowd on the 25-site backbone: \
          route-only closed loop vs. the loop with the placement planner vs. the \
          oracle provisioned in advance. Deterministic.")
    Term.(const run $ smoke)

(* ----------------------------- compile ----------------------------- *)

let compile_cmd =
  let module Table = Sb_util.Table in
  let module Ct = Sb_ctrl.Types in
  let module Csys = Sb_ctrl.System in
  let module Compile = Sb_ctrl.Compile in
  let module Eng = Sb_sim.Engine in
  (* Two measurements, both fully deterministic (no wall clocks):

     1. Diagram scale: compile N templated chains (route/spec templates
        model a fleet of cloned service chains) into the hash-consed
        interner and price a 2%-churn epoch — the bytes a delta Prepare
        ships vs a full one, using the Types.msg_size wire model.

     2. Rollout latency: a live System under a byte-priced bus
        (bus_bandwidth) — simulated commit latency and wide-area bytes of
        one delta route update as the committed chain population grows. *)
  let run smoke =
    let counts = if smoke then [ 1_000; 10_000 ] else [ 10_000; 100_000; 1_000_000 ] in
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
    List.iter
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
                  (Ct.Route_delta { chain = id; egress_label = 0; spec; delta = d })
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
          ])
      counts;
    Table.print t;
    (* Part 2: live delta rollout. Each VNF controller homes at a
       distinct site so the 2PC crosses the wide area, and the bus prices
       serialization by bytes (10 kB/s), so payload size is visible in the
       commit latency. The update moves only the last VNF — the localized
       churn the delta encodes in O(changed stages). *)
    let sys_counts = if smoke then [ 10; 25 ] else [ 10; 50; 200 ] in
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
    let run_rollout n =
      let sys = Csys.create ~num_sites:4 ~delay ~gsb_site:0 ~bus_bandwidth:10_000. () in
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
    let t2 = Table.create ~header:[ "chains"; "delta commit ms"; "delta wan B" ] in
    List.iter
      (fun n ->
        let dl, db = run_rollout n in
        Table.add_row t2
          [ string_of_int n; Printf.sprintf "%.1f" (1000. *. dl); string_of_int db ])
      sys_counts;
    Table.print t2;
    0
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:
         "Compiled delta rollout: decision-diagram sharing and churn-epoch bytes vs. \
          chain count under the wire model, then the delta 2PC's commit latency \
          and wide-area bytes on a live 4-site system. Deterministic.")
    Term.(const run $ smoke)

let () =
  let info =
    Cmd.info "switchboard_cli" ~version:"1.0"
      ~doc:"Wide-area service chaining traffic engineering (Switchboard reproduction)."
  in
  let cmd =
    Cmd.group info
      [
        route_cmd;
        compare_cmd;
        adapt_cmd;
        plan_cloud_cmd;
        plan_vnf_cmd;
        chaos_cmd;
        scenarios_cmd;
        anycast_cmd;
        placement_cmd;
        compile_cmd;
      ]
  in
  (* A subcommand rejects a bad option value with Invalid_argument: report
     it as a usage error, not as an internal one. *)
  exit
    (match Cmd.eval' ~catch:false cmd with
    | code -> code
    | exception Invalid_argument msg ->
      prerr_endline ("switchboard_cli: " ^ msg);
      2
    | exception e ->
      prerr_endline
        ("switchboard_cli: internal error, uncaught exception: " ^ Printexc.to_string e);
      Cmd.Exit.internal_error)
