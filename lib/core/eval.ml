type scheme = Anycast | Compute_aware | Onehop | Dp_latency | Sb_dp | Sb_lp

let scheme_name = function
  | Anycast -> "ANYCAST"
  | Compute_aware -> "COMPUTE-AWARE"
  | Onehop -> "ONEHOP"
  | Dp_latency -> "DP-LATENCY"
  | Sb_dp -> "SB-DP"
  | Sb_lp -> "SB-LP"

let all_schemes = [ Anycast; Compute_aware; Onehop; Dp_latency; Sb_dp; Sb_lp ]

(* Bisection contract (see eval.mli): a demand scaling is "sustained" when
   the re-routed scaled model supports alpha >= [feasible_alpha] — 1 minus
   a relative epsilon absorbing the float noise of load accumulation, so a
   scheme that routes the scaled demand exactly to capacity counts as
   feasible. [probe_floor] is the initial (and minimum reported non-zero)
   factor; the upper bound doubles at most [growth_guard] times before the
   search gives up and reports the last bound. *)
let feasible_alpha = 1. -. 1e-9
let default_tol = 0.02
let probe_floor = 1e-6
let growth_guard = 40

let route_heuristic ?(seed = 1) m = function
  | Anycast -> Greedy.anycast m
  | Compute_aware -> Greedy.compute_aware m
  | Onehop -> Greedy.onehop m
  | Dp_latency -> Dp_routing.dp_latency ~rng:(Sb_util.Rng.create seed) m
  | Sb_dp -> Dp_routing.solve ~rng:(Sb_util.Rng.create seed) m
  | Sb_lp -> invalid_arg "route_heuristic: Sb_lp"

let route ?seed m scheme =
  match scheme with
  | Sb_lp -> (
    match Lp_routing.solve m Lp_routing.Min_latency with
    | Ok { routing; _ } -> Ok routing
    | Error _ -> (
      (* Demand exceeds capacity: fall back to the throughput objective. *)
      match Lp_routing.solve m Lp_routing.Max_throughput with
      | Ok { routing; _ } -> Ok routing
      | Error e -> Error e))
  | s -> Ok (route_heuristic ?seed m s)

(* Reusable evaluation arena: one compiled instance, one load state and
   routing for the router, one load state for max_alpha — every bisection
   probe scales demand in place and reuses these, instead of allocating a
   scaled model copy plus fresh state per probe. *)
type arena = {
  inst : Instance.t;
  state : Load_state.t;
  routing : Routing.t;
  eval_state : Load_state.t;
}

let make_arena m =
  let inst = Instance.compile m in
  {
    inst;
    state = Load_state.of_instance inst;
    routing = Routing.of_instance inst;
    eval_state = Load_state.of_instance inst;
  }

let route_heuristic_into ?(seed = 1) a = function
  | Anycast -> Greedy.anycast_into a.state a.routing
  | Compute_aware -> Greedy.compute_aware_into a.state a.routing
  | Onehop -> Greedy.onehop_into a.state a.routing
  | Dp_latency ->
    Dp_routing.solve_into ~util_weight:0. ~max_routes:1
      ~rng:(Sb_util.Rng.create seed) a.state a.routing
  | Sb_dp -> Dp_routing.solve_into ~rng:(Sb_util.Rng.create seed) a.state a.routing
  | Sb_lp -> invalid_arg "route_heuristic: Sb_lp"

(* Does the scheme sustain demand scaled by [factor]? Load-aware schemes
   re-route the scaled demand, so the supported alpha of the resulting
   routing must reach 1. Scaling happens through the instance
   ([base *. factor] — the same product Model.with_scaled_traffic takes),
   so probes are bit-identical to routing a scaled model copy. *)
let sustains ?seed a scheme factor =
  Instance.set_scale a.inst factor;
  let r = route_heuristic_into ?seed a scheme in
  Routing.max_alpha_into a.eval_state r >= feasible_alpha

let max_load_factor_result ?seed ?(tol = default_tol) m scheme =
  match scheme with
  | Sb_lp -> (
    match Lp_routing.solve m Lp_routing.Max_throughput with
    | Ok { objective_value; _ } -> Ok objective_value
    | Error e ->
      (* The throughput LP is feasible at alpha = 0 by construction, so an
         error here is a solver failure, not "the scheme supports
         nothing". *)
      Error e)
  | Anycast | Dp_latency ->
    (* Load-oblivious: the routing is scale-invariant, so the supported
       alpha of the unit routing is the answer. *)
    let a = make_arena m in
    let r = route_heuristic_into ?seed a scheme in
    Ok (Routing.max_alpha_into a.eval_state r)
  | Compute_aware | Onehop | Sb_dp ->
    let a = make_arena m in
    if not (sustains ?seed a scheme probe_floor) then Ok 0.
    else begin
      (* Grow an upper bound, then bisect. *)
      let lo = ref probe_floor and hi = ref 1. in
      let guard = ref 0 in
      while sustains ?seed a scheme !hi && !guard < growth_guard do
        lo := !hi;
        hi := !hi *. 2.;
        incr guard
      done;
      if !guard >= growth_guard then Ok !hi
      else begin
        while (!hi -. !lo) /. !hi > tol do
          let mid = (!lo +. !hi) /. 2. in
          if sustains ?seed a scheme mid then lo := mid else hi := mid
        done;
        Ok !lo
      end
    end

let max_load_factor ?seed ?tol m scheme =
  match max_load_factor_result ?seed ?tol m scheme with
  | Ok v -> v
  | Error e ->
    Printf.eprintf "Eval.max_load_factor: %s solver failure (%s); reporting 0.\n%!"
      (scheme_name scheme) e;
    0.

let throughput ?seed m scheme = max_load_factor ?seed m scheme *. Model.total_demand m

(* VNF service time used in the latency metric: fast packet-processing
   functions, so queueing matters near saturation without drowning WAN
   propagation delays. *)
let metric_service_time = 0.0002

let latency ?seed ~load m scheme =
  match scheme with
  | Sb_lp -> (
    let scaled = Model.with_scaled_traffic m load in
    (* The latency objective is blind to queueing, so give the LP a 20%
       compute-capacity margin; the resulting routing never loads a
       deployment beyond ~80%, like an operator would configure. *)
    let margin = Array.init (Model.num_sites m) (fun s -> -0.2 *. Model.site_capacity m s) in
    let constrained = Model.with_site_capacity_delta scaled margin in
    match Lp_routing.solve constrained Lp_routing.Min_latency with
    | Ok { routing; _ } ->
      (* Evaluate against the true capacities, not the planning margin. *)
      let on_true_model = Routing.create scaled in
      for c = 0 to Model.num_chains scaled - 1 do
        for z = 0 to Model.num_stages scaled c - 1 do
          Routing.iter_stage routing ~chain:c ~stage:z (fun src dst frac ->
              Routing.append_flow on_true_model ~chain:c ~stage:z ~src ~dst ~frac)
        done
      done;
      Routing.mean_latency ~vnf_service_time:metric_service_time on_true_model
    | Error _ -> infinity)
  | s ->
    let a = make_arena m in
    Instance.set_scale a.inst load;
    let r = route_heuristic_into ?seed a s in
    Routing.mean_latency ~vnf_service_time:metric_service_time r

(* --------------------- Parallel sweep evaluation --------------------- *)

(* Every (model/load, scheme) cell of a figure sweep is an independent
   evaluation: each one compiles its own arena, so the only shared data are
   the Model.t and its Paths — read-only after construction. Fanning cells
   over domains therefore cannot perturb any per-cell result; outputs land
   in caller-indexed slots. *)

let throughput_grid ?seed ?domains models schemes =
  let nm = Array.length models and ns = Array.length schemes in
  let out = Array.make_matrix nm ns 0. in
  Sb_util.Par.map_chunks ?domains ~n:(nm * ns) (fun lo hi ->
      for k = lo to hi - 1 do
        let i = k / ns and j = k mod ns in
        out.(i).(j) <- throughput ?seed models.(i) schemes.(j)
      done);
  out

let latency_grid ?seed ?domains ~loads m schemes =
  let nl = Array.length loads and ns = Array.length schemes in
  let out = Array.make_matrix nl ns 0. in
  Sb_util.Par.map_chunks ?domains ~n:(nl * ns) (fun lo hi ->
      for k = lo to hi - 1 do
        let i = k / ns and j = k mod ns in
        out.(i).(j) <- latency ?seed ~load:loads.(i) m schemes.(j)
      done);
  out
