(* The traffic-engineering workload: SB-LP ([Lp_routing.solve
   Max_throughput]) and SB-DP ([Dp_routing.solve]) on the same epoch
   models of a diurnal day. One step is one LP solve.

   The LP inputs are the day's demand matrices, fixed by the scenario
   seed: the dense simplex's solve time swings by more than 2x between
   demand draws, far more than a run can average away. The run's input
   seed shuffles SB-DP's chain order instead, as [Loop]'s oracle does. *)

module Sc = Sb_adapt.Scenario
module Model = Sb_core.Model
module Routing = Sb_core.Routing
module Lp = Sb_core.Lp_routing
module Dp = Sb_core.Dp_routing
module W = Sb_net.Workload
module Rng = Sb_util.Rng

type config = { chains : int; epochs : int; scenario_seed : int }

let now = Trace.now_ns
let secs = Trace.secs

(* Set-up: the backbone with its chains, and one model per epoch. The LP
   model itself is built inside [Lp_routing.solve], so it counts in the
   solve step. *)
let setup c =
  let cfg = { Sc.default_config with seed = c.scenario_seed; num_chains = c.chains } in
  let model = Sc.backbone25 cfg in
  let w = W.diurnal ~seed:c.scenario_seed ~ticks:c.epochs ~keys:c.chains ~period:c.epochs () in
  Array.init c.epochs (fun e ->
      Model.with_chain_traffic_factors model
        (Array.init c.chains (fun k -> W.demand w ~tick:e ~key:k)))

let setup_only c =
  let t0 = now () in
  ignore (Sys.opaque_identity (setup c));
  secs (now () - t0)

let pass ?tr c ~input_seed =
  let t_setup = now () in
  let models = setup c in
  let setup_s = secs (now () - t_setup) in
  let nm s = match tr with Some t -> Trace.name t s | None -> 0 in
  let i_run = nm "run" and i_lp = nm "lp_routing.solve" and i_dp = nm "dp_routing.solve" in
  let i_alpha = nm "score.alpha" in
  let span id ~step f = match tr with Some t -> Trace.span t id ~step f | None -> f () in
  let rng = Rng.create input_seed in
  let steps = ref [] and errors = ref 0 in
  let lp_sum = ref 0. and dp_sum = ref 0. and offered = ref 0. and carried = ref 0. in
  let ok_bound = ref true and ok_objective = ref true in
  let gc0 = Gc.quick_stat () in
  let t_body = now () in
  span i_run ~step:0 (fun () ->
      Array.iteri
        (fun e tm ->
          let t0 = now () in
          let lp = span i_lp ~step:e (fun () -> Lp.solve tm Lp.Max_throughput) in
          steps := (1, secs (now () - t0)) :: !steps;
          let dp = span i_dp ~step:e (fun () -> Dp.solve ~rng:(Rng.split rng) tm) in
          let dp_alpha = span i_alpha ~step:e (fun () -> Routing.max_alpha dp) in
          let demand = Model.total_demand tm in
          offered := !offered +. demand;
          carried := !carried +. (Float.min 1. dp_alpha *. demand);
          dp_sum := !dp_sum +. dp_alpha;
          match lp with
          | Error _ -> incr errors
          | Ok r ->
            let obj = r.Lp.objective_value in
            let lp_alpha = span i_alpha ~step:e (fun () -> Routing.max_alpha r.Lp.routing) in
            lp_sum := !lp_sum +. obj;
            (* SB-LP is the bound SB-DP is judged against *)
            if obj < dp_alpha -. (1e-6 *. Float.max 1. dp_alpha) then ok_bound := false;
            if Float.abs (lp_alpha -. obj) > 1e-6 *. Float.max 1. obj then ok_objective := false)
        models);
  let body_s = secs (now () - t_body) in
  let heap_peak_mb = Report.heap_peak_mb () in
  let gc1 = Gc.quick_stat () in
  let f = float_of_int and n = Array.length models in
  let mean x = x /. f (max 1 n) in
  {
    Report.setup_s = [ setup_s ];
    steps = List.rev !steps;
    body_s;
    heap_peak_mb;
    ops = 2 * n;
    failed = !errors;
    exact =
      [
        ("satisfied_frac", !carried /. !offered, "ratio");
        ("lp_alpha_mean", mean !lp_sum, "x");
        ("dp_alpha_mean", mean !dp_sum, "x");
      ];
    checks =
      [
        ("every LP solve succeeds", !errors = 0);
        ("lp.alpha >= dp.alpha", !ok_bound);
        ("LP routing max_alpha = LP objective", !ok_objective);
      ];
    layers =
      [
        ("lp.alpha", mean !lp_sum);
        ("dp.alpha", mean !dp_sum);
        ("gc.major_collections", f (gc1.Gc.major_collections - gc0.Gc.major_collections));
      ];
  }
