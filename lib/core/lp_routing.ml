type objective = Min_latency | Max_throughput

type result = {
  routing : Routing.t;
  objective_value : float;
  site_extra : float array option;
  lp : Sb_lp.Lp.solution;
}

module Lp = Sb_lp.Lp

(* SB-LP in column form and where its columns sit: the x columns
   [0, vstart.(total)), stage by stage in candidate (src, dst) order, with
   their source and destination nodes; then alpha (Max_throughput); then
   one a_s per site (cloud budget). *)
type sb_lp = {
  cols : Lp.columns;
  vstart : int array;
  xsrc : int array;
  xdst : int array;
  alpha : int; (* -1 without *)
  extra : int; (* first a_s column, -1 without *)
}

let check_objective ?cloud_budget objective =
  match (cloud_budget, objective) with
  | Some _, Min_latency -> invalid_arg "Lp_routing.solve: cloud_budget requires Max_throughput"
  | _ -> ()

(* The model is written straight from the compiled instance's arrays, one
   column at a time, into arrays sized before the first write.

   Rows, in this order: the cloud budget row; per chain, its ingress rows
   (each ingress emits its share of the chain's traffic) and egress rows
   (each egress receives its share); the flow-conservation rows (Eq. 5),
   one per destination slot of every stage but a chain's last; the site
   and VNF-site load rows (Eq. 4); the link rows (Eq. 6). Every load and
   link row first gets a provisional id; those no x touches are dropped
   afterwards, keeping the order of the rest.

   A stage's source slots are its chain's ingresses at the first stage and
   otherwise the previous stage's destination slots, so every slot has
   one row: an x leaves its source slot's row with -1 (+1 at an ingress)
   and enters its destination slot's with +1. Each column's rows are
   written ascending, and an x charging one row twice (both ends at one
   site, or one link on both path directions) gets the sum, in the order
   the terms are listed below. *)
let build ?cloud_budget m objective inst =
  let paths = Model.paths m in
  let topo = Model.topology m in
  let num_sites = Model.num_sites m and num_chains = Model.num_chains m in
  let stage_off = Instance.stage_off inst in
  let total = Instance.num_stages_total inst in
  let fwd = Instance.fwd_base inst and rev = Instance.rev_base inst in
  let stage_vnf = Instance.stage_vnf inst in
  let node_site = Instance.node_site inst and vnf_cpu = Instance.vnf_cpu inst in
  let dst_off = Instance.dst_off inst and dst_nodes = Instance.dst_nodes inst in
  let frac_off = Sb_net.Paths.frac_offsets paths in
  let frac_link = Sb_net.Paths.frac_link_ids paths in
  let frac_val = Sb_net.Paths.frac_values paths in
  let pair n1 n2 = Sb_net.Paths.pair_index paths ~src:n1 ~dst:n2 in
  let first_stage g c = g = stage_off.(c) and last_stage g c = g = stage_off.(c + 1) - 1 in
  (* --- rows ------------------------------------------------------- *)
  let ingresses = Array.init num_chains (fun c -> Array.of_list (Model.chain_ingresses m c)) in
  let egresses = Array.init num_chains (fun c -> Array.of_list (Model.chain_egresses m c)) in
  let next = ref (if cloud_budget = None then 0 else 1) in
  let ing_row = Array.make num_chains 0 and egr_row = Array.make num_chains 0 in
  for c = 0 to num_chains - 1 do
    ing_row.(c) <- !next;
    egr_row.(c) <- !next + Array.length ingresses.(c);
    next := egr_row.(c) + Array.length egresses.(c)
  done;
  let first_cons = !next in
  let drow = Array.make dst_off.(total) 0 in
  for c = 0 to num_chains - 1 do
    for t = dst_off.(stage_off.(c)) to dst_off.(stage_off.(c + 1) - 1) - 1 do
      drow.(t) <- !next;
      incr next
    done;
    let last = stage_off.(c + 1) - 1 in
    for t = dst_off.(last) to dst_off.(last + 1) - 1 do
      drow.(t) <- egr_row.(c) + t - dst_off.(last)
    done
  done;
  let first_load = !next in
  let first_link = first_load + ((Model.num_vnfs m + 1) * num_sites) in
  let num_links = Sb_net.Topology.num_links topo in
  let used = Array.make (first_link + num_links) false in
  (* --- source slots ------------------------------------------------ *)
  let soff = Array.make (total + 1) 0 in
  for c = 0 to num_chains - 1 do
    for g = stage_off.(c) to stage_off.(c + 1) - 1 do
      let len =
        if first_stage g c then Array.length ingresses.(c) else dst_off.(g) - dst_off.(g - 1)
      in
      soff.(g + 1) <- soff.(g) + len
    done
  done;
  let snode = Array.make soff.(total) 0 and srow = Array.make soff.(total) 0 in
  for c = 0 to num_chains - 1 do
    for g = stage_off.(c) to stage_off.(c + 1) - 1 do
      for i = soff.(g) to soff.(g + 1) - 1 do
        if first_stage g c then begin
          snode.(i) <- fst ingresses.(c).(i - soff.(g));
          srow.(i) <- ing_row.(c) + i - soff.(g)
        end
        else begin
          let t = dst_off.(g - 1) + i - soff.(g) in
          snode.(i) <- dst_nodes.(t);
          srow.(i) <- drow.(t)
        end
      done
    done
  done;
  (* Slots sharing a node with another slot of their stage (a node listed
     twice) share that slot's rows; [smult]/[dmult] count them. *)
  let multiplicity nodes lo hi t =
    let k = ref 0 in
    for u = lo to hi - 1 do
      if nodes.(u) = nodes.(t) then incr k
    done;
    !k
  in
  let smult = Array.make soff.(total) 1 and dmult = Array.make dst_off.(total) 1 in
  for g = 0 to total - 1 do
    for i = soff.(g) to soff.(g + 1) - 1 do
      smult.(i) <- multiplicity snode soff.(g) soff.(g + 1) i
    done;
    for t = dst_off.(g) to dst_off.(g + 1) - 1 do
      dmult.(t) <- multiplicity dst_nodes dst_off.(g) dst_off.(g + 1) t
    done
  done;
  (* --- x columns: layout and capacity ------------------------------ *)
  let keep n1 n2 = n1 = n2 || Sb_net.Paths.reachable paths n1 n2 in
  let vstart = Array.make (total + 1) 0 in
  for g = 0 to total - 1 do
    let k = ref 0 in
    for i = soff.(g) to soff.(g + 1) - 1 do
      for t = dst_off.(g) to dst_off.(g + 1) - 1 do
        if keep snode.(i) dst_nodes.(t) then incr k
      done
    done;
    vstart.(g + 1) <- vstart.(g) + !k
  done;
  let nx = vstart.(total) in
  let xs = Array.make nx 0 and xd = Array.make nx 0 in
  let charges f node = if f >= 0 && node_site.(node) >= 0 then 2 else 0 in
  let cap = ref 0 in
  for c = 0 to num_chains - 1 do
    for g = stage_off.(c) to stage_off.(c + 1) - 1 do
      let src_vnf = if first_stage g c then -1 else stage_vnf.(g - 1) in
      let k = ref vstart.(g) in
      for i = soff.(g) to soff.(g + 1) - 1 do
        for t = dst_off.(g) to dst_off.(g + 1) - 1 do
          let n1 = snode.(i) and n2 = dst_nodes.(t) in
          if keep n1 n2 then begin
            xs.(!k) <- i;
            xd.(!k) <- t;
            incr k;
            let links =
              if n1 = n2 then 0
              else
                let p = pair n1 n2 and q = pair n2 n1 in
                frac_off.(p + 1) - frac_off.(p)
                + if rev.(g) > 0. then frac_off.(q + 1) - frac_off.(q) else 0
            in
            cap :=
              !cap + smult.(i) + dmult.(t) + charges src_vnf n1 + charges stage_vnf.(g) n2 + links
          end
        done
      done
    done
  done;
  let alpha = match objective with Max_throughput -> nx | Min_latency -> -1 in
  let extra =
    match cloud_budget with None -> -1 | Some _ -> if alpha >= 0 then nx + 1 else nx
  in
  let ncols = nx + (if alpha >= 0 then 1 else 0) + if extra >= 0 then num_sites else 0 in
  let num_endpoint_rows = first_cons - if cloud_budget = None then 0 else 1 in
  let cap =
    !cap
    + (if alpha >= 0 then num_endpoint_rows else 0)
    + if extra >= 0 then num_sites * (Model.num_vnfs m + 2) else 0
  in
  let cstart = Array.make (ncols + 1) 0 in
  let cidx = Array.make cap 0 and cval = Array.make cap 0. in
  let nnz = ref 0 in
  let emit r v =
    cidx.(!nnz) <- r;
    cval.(!nnz) <- v;
    incr nnz
  in
  let emit_used r v =
    used.(r) <- true;
    emit r v
  in
  (* The rows of every slot of [lo, hi) holding node [nodes.(t)]. *)
  let emit_slots nodes rows mult lo hi t coef =
    if mult.(t) = 1 then emit rows.(t) coef
    else
      for u = lo to hi - 1 do
        if nodes.(u) = nodes.(t) then emit rows.(u) coef
      done
  in
  (* Two load charges, row [-1] for an absent one, in ascending row
     order; a row charged twice gets the sum, the first charge first. *)
  let emit_two r1 l1 r2 l2 =
    if r1 < 0 then begin
      if r2 >= 0 then emit_used r2 l2
    end
    else if r2 < 0 then emit_used r1 l1
    else if r1 = r2 then emit_used r1 (l1 +. l2)
    else if r1 < r2 then begin
      emit_used r1 l1;
      emit_used r2 l2
    end
    else begin
      emit_used r2 l2;
      emit_used r1 l1
    end
  in
  (* --- x columns: entries ----------------------------------------- *)
  for c = 0 to num_chains - 1 do
    for g = stage_off.(c) to stage_off.(c + 1) - 1 do
      let first = first_stage g c in
      let src_vnf = if first then -1 else stage_vnf.(g - 1) and dst_vnf = stage_vnf.(g) in
      let coef = fwd.(g) +. rev.(g) and w = fwd.(g) and rv = rev.(g) in
      let src_coef = if first then 1. else -1. in
      for k = vstart.(g) to vstart.(g + 1) - 1 do
        let i = xs.(k) and t = xd.(k) in
        let n1 = snode.(i) and n2 = dst_nodes.(t) in
        (* only a later stage's egress rows come before its source rows *)
        if (not first) && last_stage g c then begin
          emit_slots dst_nodes drow dmult dst_off.(g) dst_off.(g + 1) t 1.;
          emit_slots snode srow smult soff.(g) soff.(g + 1) i src_coef
        end
        else begin
          emit_slots snode srow smult soff.(g) soff.(g + 1) i src_coef;
          emit_slots dst_nodes drow dmult dst_off.(g) dst_off.(g + 1) t 1.
        end;
        (* compute loads: the VNF the stage leaves at n1 and the one it
           enters at n2, each charged to its site's row and its
           (VNF, site) row *)
        let s1 = if src_vnf >= 0 then node_site.(n1) else -1 in
        let s2 = if dst_vnf >= 0 then node_site.(n2) else -1 in
        let l1 = if s1 >= 0 then vnf_cpu.(src_vnf) *. coef else 0. in
        let l2 = if s2 >= 0 then vnf_cpu.(dst_vnf) *. coef else 0. in
        let row s base = if s >= 0 then first_load + base + s else -1 in
        emit_two (row s1 0) l1 (row s2 0) l2;
        emit_two (row s1 ((src_vnf + 1) * num_sites)) l1 (row s2 ((dst_vnf + 1) * num_sites)) l2;
        (* link loads: the forward path's fractions, merged with the
           reverse path's when the stage has return traffic *)
        if n1 <> n2 then begin
          let p = pair n1 n2 and q = pair n2 n1 in
          let a = ref frac_off.(p) and a_end = frac_off.(p + 1) in
          let b = ref (if rv > 0. then frac_off.(q) else 0)
          and b_end = if rv > 0. then frac_off.(q + 1) else 0 in
          while !a < a_end || !b < b_end do
            let ea = if !a < a_end then frac_link.(!a) else max_int in
            let eb = if !b < b_end then frac_link.(!b) else max_int in
            if ea < eb then begin
              emit_used (first_link + ea) (w *. frac_val.(!a));
              incr a
            end
            else if eb < ea then begin
              emit_used (first_link + eb) (rv *. frac_val.(!b));
              incr b
            end
            else begin
              emit_used (first_link + ea) ((w *. frac_val.(!a)) +. (rv *. frac_val.(!b)));
              incr a;
              incr b
            end
          done
        end;
        cstart.(k + 1) <- !nnz
      done
    done
  done;
  (* --- drop the load and link rows no x touches ------------------- *)
  let row_id = Array.make (Array.length used) (-1) in
  let nrows = ref first_load in
  for r = first_load to Array.length used - 1 do
    if used.(r) then begin
      row_id.(r) <- !nrows;
      incr nrows
    end
  done;
  for u = 0 to !nnz - 1 do
    if cidx.(u) >= first_load then cidx.(u) <- row_id.(cidx.(u))
  done;
  let nrows = !nrows in
  let rel = Array.make nrows Lp.Le and rhs = Array.make nrows 0. in
  (match cloud_budget with Some budget -> rhs.(0) <- budget | None -> ());
  for c = 0 to num_chains - 1 do
    let endpoint row0 ends =
      Array.iteri
        (fun e (_, share) ->
          rel.(row0 + e) <- Lp.Eq;
          rhs.(row0 + e) <- (if alpha >= 0 then 0. else share))
        ends
    in
    endpoint ing_row.(c) ingresses.(c);
    endpoint egr_row.(c) egresses.(c)
  done;
  Array.fill rel first_cons (first_load - first_cons) Lp.Eq;
  let vnf_row f s = row_id.(first_load + ((f + 1) * num_sites) + s) in
  for s = 0 to num_sites - 1 do
    let r = row_id.(first_load + s) in
    if r >= 0 then rhs.(r) <- Model.site_capacity m s;
    for f = 0 to Model.num_vnfs m - 1 do
      let r = vnf_row f s in
      if r >= 0 then rhs.(r) <- Model.vnf_site_capacity m ~vnf:f ~site:s
    done
  done;
  for e = 0 to num_links - 1 do
    let r = row_id.(first_link + e) in
    if r >= 0 then begin
      let l = Sb_net.Topology.link topo e in
      rhs.(r) <- (Model.beta m *. l.bandwidth) -. Model.background m e
    end
  done;
  (* --- alpha and a_s columns -------------------------------------- *)
  if alpha >= 0 then begin
    for c = 0 to num_chains - 1 do
      Array.iteri (fun e (_, share) -> emit (ing_row.(c) + e) (-.share)) ingresses.(c);
      Array.iteri (fun e (_, share) -> emit (egr_row.(c) + e) (-.share)) egresses.(c)
    done;
    cstart.(alpha + 1) <- !nnz
  end;
  if extra >= 0 then
    for s = 0 to num_sites - 1 do
      emit 0 1.;
      let r = row_id.(first_load + s) in
      if r >= 0 then emit r (-1.);
      for f = 0 to Model.num_vnfs m - 1 do
        let r = vnf_row f s in
        (* Extra site capacity grows the deployments there proportionally:
           m_sf * (1 + a_s / m_s), which is linear in a_s (m_sf is the
           row's right-hand side). *)
        if r >= 0 then emit r (-.rhs.(r) /. Model.site_capacity m s)
      done;
      cstart.(extra + s + 1) <- !nnz
    done;
  (* --- objective -------------------------------------------------- *)
  let cost = Array.make ncols 0. in
  let sense =
    match objective with
    | Min_latency ->
      for g = 0 to total - 1 do
        for k = vstart.(g) to vstart.(g + 1) - 1 do
          let coef =
            (fwd.(g) +. rev.(g)) *. Sb_net.Paths.delay paths snode.(xs.(k)) dst_nodes.(xd.(k))
          in
          if coef > 0. then cost.(k) <- coef
        done
      done;
      Lp.Minimize
    | Max_throughput ->
      cost.(alpha) <- 1.;
      Lp.Maximize
  in
  let cols =
    {
      Lp.ncols;
      nrows;
      cstart;
      cidx;
      cval;
      lb = Array.make ncols 0.;
      ub = Array.make ncols infinity;
      rel;
      rhs;
      sense;
      cost;
    }
  in
  let xsrc = Array.map (fun i -> snode.(i)) xs and xdst = Array.map (fun t -> dst_nodes.(t)) xd in
  { cols; vstart; xsrc; xdst; alpha; extra }

let columns ?cloud_budget m objective =
  check_objective ?cloud_budget objective;
  (build ?cloud_budget m objective (Instance.compile m)).cols

let solve ?cloud_budget m objective =
  check_objective ?cloud_budget objective;
  let inst = Instance.compile m in
  let sb = build ?cloud_budget m objective inst in
  match Lp.solve_columns sb.cols with
  | Lp.Infeasible -> Error "chain routing LP is infeasible"
  | Lp.Unbounded -> Error "chain routing LP is unbounded"
  | Lp.Optimal sol ->
    let scale =
      if sb.alpha < 0 then 1.
      else
        let av = Lp.column_value sol sb.alpha in
        if av > 1e-9 then 1. /. av else 0.
    in
    let routing = Routing.of_instance inst in
    let stage_off = Instance.stage_off inst in
    for c = 0 to Model.num_chains m - 1 do
      for z = 0 to Model.num_stages m c - 1 do
        let g = stage_off.(c) + z in
        for k = sb.vstart.(g) to sb.vstart.(g + 1) - 1 do
          let x = Lp.column_value sol k *. scale in
          if x > 1e-9 then
            Routing.append_flow routing ~chain:c ~stage:z ~src:sb.xsrc.(k) ~dst:sb.xdst.(k)
              ~frac:x
        done
      done
    done;
    let objective_value =
      match objective with
      | Max_throughput -> Lp.objective_value sol
      | Min_latency ->
        let demand = Model.total_demand m in
        if demand > 0. then Lp.objective_value sol /. demand else 0.
    in
    let site_extra =
      if sb.extra < 0 then None
      else Some (Array.init (Model.num_sites m) (fun s -> Lp.column_value sol (sb.extra + s)))
    in
    Ok { routing; objective_value; site_extra; lp = sol }
