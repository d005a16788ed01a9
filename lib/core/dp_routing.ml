let default_util_weight = 0.05

(* ------------------------- Solve scratch arena ----------------------- *)

(* Per-solve scratch: flat DP tables plus dense per-resource demand
   accumulators for path_headroom, allocated once per solve (or per reused
   eval arena) instead of per chain/per probe. The stamp arrays make
   clearing the dense accumulators O(touched). *)
type scratch = {
  mutable stride : int; (* DP table row width *)
  mutable cost : float array; (* [z * stride + j] *)
  mutable parent : int array; (* candidate index at element z - 1 *)
  mutable epoch : int;
  link_demand : float array;
  link_stamp : int array;
  link_touched : int array;
  mutable link_n : int;
  site_demand : float array;
  site_stamp : int array;
  site_touched : int array;
  mutable site_n : int;
  vnf_demand : float array; (* vnf * num_sites + site *)
  vnf_stamp : int array;
  vnf_touched : int array;
  mutable vnf_n : int;
}

let make_scratch inst =
  let ns = Instance.num_sites inst in
  let nf = Instance.num_vnfs inst in
  let nl = Sb_net.Topology.num_links (Model.topology (Instance.model inst)) in
  {
    stride = 0;
    cost = [||];
    parent = [||];
    epoch = 0;
    link_demand = Array.make (max 1 nl) 0.;
    link_stamp = Array.make (max 1 nl) 0;
    link_touched = Array.make (max 1 nl) 0;
    link_n = 0;
    site_demand = Array.make (max 1 ns) 0.;
    site_stamp = Array.make (max 1 ns) 0;
    site_touched = Array.make (max 1 ns) 0;
    site_n = 0;
    vnf_demand = Array.make (max 1 (nf * ns)) 0.;
    vnf_stamp = Array.make (max 1 (nf * ns)) 0;
    vnf_touched = Array.make (max 1 (nf * ns)) 0;
    vnf_n = 0;
  }

let ensure_tables scr ~rows ~stride =
  if rows * stride > Array.length scr.cost then begin
    scr.cost <- Array.make (rows * stride) infinity;
    scr.parent <- Array.make (rows * stride) (-1)
  end;
  scr.stride <- stride

(* The SB-DP sweep (Eq. 8) over the flat scratch tables: fill E(z, j) for
   every element z and candidate j, then walk parents back from the egress.
   Ties break on the earliest source under the strict [<].

   [prune] skips a candidate pair whose delay-plus-compute lower bound
   cannot beat the incumbent before its link-cost scan:
   [stage_cost = delay + uw * (net + cc)] with [net >= 0] ([Load] clamps a
   link's post-addition load at 0., so even the ~1e-16 negative residues
   a lift-out leaves cost nothing) and float rounding is monotone, so
   [pc +. (delay +. uw *. cc) >= best] implies the full cost cannot win —
   the same path as the full scan. [solve] and [resolve] pass it;
   [best_path] and [resolve_unpruned] are the full-scan references the
   property tests hold them to. *)
let sweep scr ~prune state ~util_weight ~chain ~ingress ~egress =
  let inst = Load_state.instance state in
  let paths = Model.paths (Instance.model inst) in
  let base = (Instance.stage_off inst).(chain) in
  let len = Instance.num_stages inst chain - 1 in
  let dst_off = Instance.dst_off inst in
  let dst_nodes = Instance.dst_nodes inst in
  let cand_count z =
    if z = 0 || z = len + 1 then 1 else dst_off.(base + z) - dst_off.(base + z - 1)
  in
  let node_at z j =
    if z = 0 then ingress
    else if z = len + 1 then egress
    else dst_nodes.(dst_off.(base + z - 1) + j)
  in
  let stride = ref 1 in
  for z = 1 to len do
    let c = cand_count z in
    if c > !stride then stride := c
  done;
  ensure_tables scr ~rows:(len + 2) ~stride:!stride;
  let stride = !stride in
  let cost = scr.cost and parent = scr.parent in
  cost.(0) <- 0.;
  for z = 1 to len + 1 do
    let prev_n = cand_count (z - 1) in
    let cur_n = cand_count z in
    let prow = (z - 1) * stride in
    let crow = z * stride in
    for j = 0 to cur_n - 1 do
      let node = node_at z j in
      let bc = ref infinity and bp = ref (-1) in
      if util_weight = 0. then
        for i = 0 to prev_n - 1 do
          let pc = cost.(prow + i) in
          if pc < infinity then begin
            let c = pc +. Sb_net.Paths.delay paths (node_at (z - 1) i) node in
            if c < !bc then begin
              bc := c;
              bp := i
            end
          end
        done
      else begin
        let cc = Load_state.stage_compute_cost state ~chain ~stage:(z - 1) ~dst:node in
        let uwcc = util_weight *. cc in
        for i = 0 to prev_n - 1 do
          let pc = cost.(prow + i) in
          if pc < infinity then begin
            let src = node_at (z - 1) i in
            let delay = Sb_net.Paths.delay paths src node in
            if delay < infinity && ((not prune) || pc +. (delay +. uwcc) < !bc)
            then begin
              let net = Load_state.stage_net_cost state ~chain ~stage:(z - 1) ~src ~dst:node in
              let c = pc +. (delay +. (util_weight *. (net +. cc))) in
              if c < !bc then begin
                bc := c;
                bp := i
              end
            end
          end
        done
      end;
      cost.(crow + j) <- !bc;
      parent.(crow + j) <- !bp
    done
  done;
  if cost.(((len + 1) * stride)) < infinity then begin
    let nodes = Array.make (len + 2) egress in
    let j = ref parent.(((len + 1) * stride)) in
    for z = len downto 1 do
      nodes.(z) <- node_at z !j;
      j := parent.((z * stride) + !j)
    done;
    nodes.(0) <- ingress;
    Some nodes
  end
  else None

let best_path_with ~prune ?ingress ?egress state ~util_weight ~chain =
  let m = Load_state.model state in
  let ingress = match ingress with Some i -> i | None -> Model.chain_ingress m chain in
  let egress = match egress with Some e -> e | None -> Model.chain_egress m chain in
  sweep (make_scratch (Load_state.instance state)) ~prune state ~util_weight ~chain
    ~ingress ~egress

let best_path = best_path_with ~prune:false
let best_path_pruned = best_path_with ~prune:true

(* Largest fraction of the chain the path can carry within remaining link,
   site, and deployment capacities. Demand is accumulated per resource over
   the whole path first (a VNF is charged on both its inbound and outbound
   stages per Eq. 4, and a link may carry several stages), then the binding
   resource determines the fraction — an exact min over per-resource
   ratios, so the dense accumulation order is free to differ from the
   hashtable iteration order this replaces. *)
let path_headroom scr state chain nodes =
  let inst = Load_state.instance state in
  let m = Instance.model inst in
  let topo = Model.topology m in
  let paths = Model.paths m in
  let base = (Instance.stage_off inst).(chain) in
  let fwd_base = Instance.fwd_base inst in
  let rev_base = Instance.rev_base inst in
  let scale = Instance.scale inst in
  let stage_vnf = Instance.stage_vnf inst in
  let node_site = Instance.node_site inst in
  let vnf_cpu = Instance.vnf_cpu inst in
  let dep_cap = Instance.dep_cap inst in
  let site_cap = Instance.site_cap inst in
  let ns = Instance.num_sites inst in
  scr.epoch <- scr.epoch + 1;
  let ep = scr.epoch in
  scr.link_n <- 0;
  scr.site_n <- 0;
  scr.vnf_n <- 0;
  let bump_link e amount =
    if scr.link_stamp.(e) = ep then
      scr.link_demand.(e) <- scr.link_demand.(e) +. amount
    else begin
      scr.link_stamp.(e) <- ep;
      scr.link_demand.(e) <- amount;
      scr.link_touched.(scr.link_n) <- e;
      scr.link_n <- scr.link_n + 1
    end
  in
  let charge_compute f node volume =
    if f >= 0 then begin
      let s = node_site.(node) in
      if s >= 0 then begin
        let load = vnf_cpu.(f) *. volume in
        let fs = (f * ns) + s in
        (if scr.vnf_stamp.(fs) = ep then
           scr.vnf_demand.(fs) <- scr.vnf_demand.(fs) +. load
         else begin
           scr.vnf_stamp.(fs) <- ep;
           scr.vnf_demand.(fs) <- load;
           scr.vnf_touched.(scr.vnf_n) <- fs;
           scr.vnf_n <- scr.vnf_n + 1
         end);
        if scr.site_stamp.(s) = ep then
          scr.site_demand.(s) <- scr.site_demand.(s) +. load
        else begin
          scr.site_stamp.(s) <- ep;
          scr.site_demand.(s) <- load;
          scr.site_touched.(scr.site_n) <- s;
          scr.site_n <- scr.site_n + 1
        end
      end
    end
  in
  for z = 0 to Array.length nodes - 2 do
    let src = nodes.(z) and dst = nodes.(z + 1) in
    let w = fwd_base.(base + z) *. scale in
    let v = rev_base.(base + z) *. scale in
    Sb_net.Paths.iter_fractions paths ~src ~dst (fun e frac ->
        bump_link e (w *. frac));
    Sb_net.Paths.iter_fractions paths ~src:dst ~dst:src (fun e frac ->
        bump_link e (v *. frac));
    let src_vnf = if z = 0 then -1 else stage_vnf.(base + z - 1) in
    charge_compute src_vnf src (w +. v);
    charge_compute stage_vnf.(base + z) dst (w +. v)
  done;
  let cap = ref infinity in
  let consider room per_unit =
    if per_unit > 1e-12 then cap := Float.min !cap (room /. per_unit)
  in
  for k = 0 to scr.link_n - 1 do
    let e = scr.link_touched.(k) in
    let l = Sb_net.Topology.link topo e in
    let room =
      (Model.beta m *. l.bandwidth) -. Model.background m e
      -. Load_state.link_sb_load state e
    in
    consider room scr.link_demand.(e)
  done;
  for k = 0 to scr.vnf_n - 1 do
    let fs = scr.vnf_touched.(k) in
    consider
      (dep_cap.(fs) -. Load_state.vnf_load state ~vnf:(fs / ns) ~site:(fs mod ns))
      scr.vnf_demand.(fs)
  done;
  for k = 0 to scr.site_n - 1 do
    let s = scr.site_touched.(k) in
    consider (site_cap.(s) -. Load_state.site_load state s) scr.site_demand.(s)
  done;
  Float.max 0. !cap

let commit state chain nodes frac =
  for z = 0 to Array.length nodes - 2 do
    Load_state.add_stage_flow state ~chain ~stage:z ~src:nodes.(z) ~dst:nodes.(z + 1)
      ~frac
  done

let chain_order ?rng m =
  let order = Array.init (Model.num_chains m) (fun c -> c) in
  (match rng with Some r -> Sb_util.Rng.shuffle r order | None -> ());
  order

let min_split = 0.02

(* Route one (ingress, egress) pair of a chain, carrying [share] of the
   chain's traffic; splits across successive least-cost routes as capacity
   runs out (Section 4.4). [prune] is passed to the sweep. *)
let route_pair scr ~prune state routing ~util_weight ~max_routes chain ~ingress ~egress ~share =
  let rec go remaining routes_left =
    if remaining > 1e-9 then begin
      match sweep scr ~prune state ~util_weight ~chain ~ingress ~egress with
      | None -> () (* unroutable chain: leave unrouted; validate will flag *)
      | Some nodes ->
        let headroom =
          if util_weight = 0. then remaining else path_headroom scr state chain nodes
        in
        let frac =
          if routes_left <= 1 || headroom >= remaining -. 1e-9 || headroom < min_split
          then remaining (* last route, enough room, or saturated: take it all *)
          else Float.min remaining headroom
        in
        Routing.add_path routing ~chain ~nodes ~frac;
        commit state chain nodes frac;
        go (remaining -. frac) (routes_left - 1)
    end
  in
  go share max_routes

let route_chain scr ~prune state routing ~util_weight ~max_routes chain =
  let m = Load_state.model state in
  List.iter
    (fun (ingress, ishare) ->
      List.iter
        (fun (egress, eshare) ->
          route_pair scr ~prune state routing ~util_weight ~max_routes chain
            ~ingress ~egress ~share:(ishare *. eshare))
        (Model.chain_egresses m chain))
    (Model.chain_ingresses m chain)

let solve_into ?(util_weight = default_util_weight) ?(max_routes = 8) ?rng state routing =
  let inst = Load_state.instance state in
  if not (Routing.instance routing == inst) then
    invalid_arg "Dp_routing.solve_into: routing compiled from a different instance";
  Load_state.reset state;
  Routing.reset routing;
  let scr = make_scratch inst in
  Array.iter
    (fun c -> route_chain scr ~prune:true state routing ~util_weight ~max_routes c)
    (chain_order ?rng (Instance.model inst));
  routing

let solve ?util_weight ?max_routes ?rng m =
  let inst = Instance.compile m in
  solve_into ?util_weight ?max_routes ?rng (Load_state.of_instance inst)
    (Routing.of_instance inst)

let dp_latency ?rng m = solve ~util_weight:0. ~max_routes:1 ?rng m

(* ------------------------ Incremental re-solve ---------------------- *)

type resolve_stats = {
  rerouted : int list;
  considered : int;
  over_threshold : int;
}

let path_cost state ~util_weight chain nodes =
  let c = ref 0. in
  for z = 0 to Array.length nodes - 2 do
    c :=
      !c
      +. Load_state.stage_cost state ~util_weight ~chain ~stage:z ~src:nodes.(z)
           ~dst:nodes.(z + 1)
  done;
  !c

(* Cost of the chain's committed route set as a marginal insertion onto
   the rest of the load (the chain itself must be lifted out first,
   otherwise its own contribution sits on the steep convex region and
   inflates every comparison into an apparent gain). *)
let current_cost state ~util_weight chain paths =
  List.fold_left
    (fun acc (nodes, frac) -> acc +. (frac *. path_cost state ~util_weight chain nodes))
    0. paths

(* Cost of the chain's best single route per endpoint pair on the same
   lifted-out load — marginal vs marginal, so the hysteresis threshold
   compares like with like. *)
let alternative_cost scr ~prune state ~util_weight chain =
  let m = Load_state.model state in
  let total = ref 0. and feasible = ref true in
  List.iter
    (fun (ingress, ishare) ->
      List.iter
        (fun (egress, eshare) ->
          match sweep scr ~prune state ~util_weight ~chain ~ingress ~egress with
          | Some nodes ->
            total := !total +. (ishare *. eshare *. path_cost state ~util_weight chain nodes)
          | None -> feasible := false)
        (Model.chain_egresses m chain))
    (Model.chain_ingresses m chain);
  if !feasible then Some !total else None

let resolve_with ~prune ?(util_weight = default_util_weight) ?(max_routes = 8)
    ?(hysteresis = 0.1) ?(churn_budget = max_int) ~prev m =
  let inst = Instance.compile m in
  let routing = Routing.of_instance inst in
  let state = Load_state.of_instance inst in
  let scr = make_scratch inst in
  let n = Model.num_chains m in
  (* Re-commit the previous paths under [m]'s (possibly measured/shifted)
     demand and topology. [prev] may belong to a structurally identical
     sibling of [m] (same chains/stages, different traffic or failed
     links). *)
  let prev_paths = Array.init n (fun c -> Routing.decompose_paths prev ~chain:c) in
  for c = 0 to n - 1 do
    List.iter
      (fun (nodes, frac) ->
        Routing.add_path routing ~chain:c ~nodes ~frac;
        commit state c nodes frac)
      prev_paths.(c)
  done;
  (* Scan phase: lift each chain out, cost its current route set and its
     best alternative as the same marginal insertion, put it back. An unrouted
     chain (dropped by an earlier epoch or unroutable at creation) scores
     infinite gain: routing it at all is the best move. *)
  let candidates = ref [] in
  let considered = ref 0 in
  for c = 0 to n - 1 do
    let lifted = prev_paths.(c) <> [] in
    if lifted then begin
      incr considered;
      List.iter (fun (nodes, frac) -> commit state c nodes (-.frac)) prev_paths.(c)
    end;
    let cur =
      if lifted then current_cost state ~util_weight c prev_paths.(c) else infinity
    in
    let alt = alternative_cost scr ~prune state ~util_weight c in
    if lifted then
      List.iter (fun (nodes, frac) -> commit state c nodes frac) prev_paths.(c);
    match alt with
    | None -> () (* no feasible route at all: leave the chain as it is *)
    | Some alt ->
      let gain =
        if cur = infinity then infinity
        else if alt <= 1e-12 then if cur > 1e-12 then infinity else 0.
        else (cur -. alt) /. alt
      in
      if gain > hysteresis then candidates := (c, gain) :: !candidates
  done;
  let ranked =
    List.sort
      (fun (c1, g1) (c2, g2) ->
        match compare (g2 : float) g1 with 0 -> compare (c1 : int) c2 | o -> o)
      !candidates
  in
  let selected = List.filteri (fun i _ -> i < churn_budget) ranked in
  let rerouted = List.map fst selected in
  (* Re-route phase: lift each selected chain's load out, then route it
     afresh against everything else (sequential re-commit, mirroring
     [solve]; later selections see earlier moves). *)
  List.iter
    (fun c ->
      for stage = 0 to Model.num_stages m c - 1 do
        Routing.iter_stage routing ~chain:c ~stage (fun src dst frac ->
            if frac > 1e-12 then
              Load_state.add_stage_flow state ~chain:c ~stage ~src ~dst ~frac:(-.frac))
      done;
      Routing.clear_chain routing ~chain:c;
      route_chain scr ~prune state routing ~util_weight ~max_routes c)
    rerouted;
  (routing, { rerouted; considered = !considered; over_threshold = List.length ranked })

let resolve = resolve_with ~prune:true
let resolve_unpruned = resolve_with ~prune:false
