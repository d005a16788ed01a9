(* SB-LP built through the list modelling API: one [(float * var)] term
   per coefficient, rows gathered in buckets, variables and rows created
   in the order [Lp_routing.columns] documents. The reference that
   [Lp_routing]'s column builder is checked against, entry for entry, in
   test_core. *)

open Sb_core
module Lp = Sb_lp.Lp

type objective = Lp_routing.objective = Min_latency | Max_throughput

let problem ?cloud_budget m objective =
  let paths = Model.paths m in
  let topo = Model.topology m in
  (* The model is built straight from the compiled instance's arrays: one
     variable per (global stage, src, dst) pair, numbered stage by stage in
     candidate order, and every row gathered by array index. *)
  let inst = Instance.compile m in
  let num_sites = Model.num_sites m in
  let stage_off = Instance.stage_off inst in
  let total = Instance.num_stages_total inst in
  let fwd = Instance.fwd_base inst and rev = Instance.rev_base inst in
  let stage_vnf = Instance.stage_vnf inst in
  let node_site = Instance.node_site inst and vnf_cpu = Instance.vnf_cpu inst in
  let p = Lp.create ~name:"chain_routing" () in
  (* --- variables ------------------------------------------------- *)
  (* Flat, stage by stage: stage [g]'s variables are [vstart.(g)] ..
     [vstart.(g+1) - 1], in candidate (src, dst) order. *)
  let vstart = Array.make (total + 1) 0 in
  let pairs = Array.make total [||] in
  for c = 0 to Model.num_chains m - 1 do
    for z = 0 to Model.num_stages m c - 1 do
      let g = stage_off.(c) + z in
      let dsts = Instance.stage_dst_nodes inst ~chain:c ~stage:z in
      pairs.(g) <-
        List.concat_map
          (fun n1 ->
            List.filter_map
              (fun n2 ->
                if n1 = n2 || Sb_net.Paths.reachable paths n1 n2 then Some (n1, n2) else None)
              dsts)
          (Model.stage_src_nodes m ~chain:c ~stage:z)
        |> Array.of_list
    done
  done;
  for g = 0 to total - 1 do
    vstart.(g + 1) <- vstart.(g) + Array.length pairs.(g)
  done;
  let nv = vstart.(total) in
  let xsrc = Array.make nv 0 and xdst = Array.make nv 0 in
  Array.iteri
    (fun g ps ->
      Array.iteri
        (fun k (n1, n2) ->
          xsrc.(vstart.(g) + k) <- n1;
          xdst.(vstart.(g) + k) <- n2)
        ps)
    pairs;
  let xvar = Array.init nv (fun _ -> Lp.add_var p "x") in
  let alpha =
    match objective with
    | Max_throughput -> Some (Lp.add_var p "alpha")
    | Min_latency -> None
  in
  let site_extra_vars =
    match cloud_budget with
    | None -> None
    | Some budget ->
      let a = Array.init num_sites (fun _ -> Lp.add_var p "a_s") in
      Lp.add_constraint p
        (Array.to_list (Array.map (fun v -> (1., v)) a))
        Lp.Le budget;
      Some a
  in
  (* Stage [g]'s variables whose [ends] node is [node], with [coef]. *)
  let terms_at g (ends : int array) (node : int) coef tail =
    let acc = ref tail in
    for k = vstart.(g + 1) - 1 downto vstart.(g) do
      if ends.(k) = node then acc := (coef, xvar.(k)) :: !acc
    done;
    !acc
  in
  (* Rows whose terms come from all over the model (loads, links) are
     gathered into buckets in two passes, counting and then filling flat
     arrays, so each row's term list exists only while the row is added. *)
  let buckets nb gen =
    let off = Array.make (nb + 1) 0 in
    gen (fun b _ _ -> off.(b + 1) <- off.(b + 1) + 1);
    for b = 0 to nb - 1 do
      off.(b + 1) <- off.(b + 1) + off.(b)
    done;
    let fill = Array.sub off 0 nb in
    let var = Array.make off.(nb) 0 and coef = Array.make off.(nb) 0. in
    gen (fun b k c ->
        var.(fill.(b)) <- k;
        coef.(fill.(b)) <- c;
        fill.(b) <- fill.(b) + 1);
    let terms b tail =
      let acc = ref tail in
      for t = off.(b + 1) - 1 downto off.(b) do
        acc := (coef.(t), xvar.(var.(t))) :: !acc
      done;
      !acc
    in
    (fun b -> off.(b + 1) > off.(b)), terms
  in
  (* --- per-ingress emission and per-egress delivery --------------- *)
  (* Each ingress node emits its fixed share of the chain's traffic and
     each egress node receives its share (the multi-endpoint
     generalization; with single endpoints these are the paper's source
     constraint plus a redundant egress row). *)
  let endpoint_row terms share =
    match alpha with
    | None -> Lp.add_constraint p terms Lp.Eq share
    | Some a -> Lp.add_constraint p ((-.share, a) :: terms) Lp.Eq 0.
  in
  for c = 0 to Model.num_chains m - 1 do
    let first = stage_off.(c) and last = stage_off.(c + 1) - 1 in
    List.iter
      (fun (node, share) -> endpoint_row (terms_at first xsrc node 1. []) share)
      (Model.chain_ingresses m c);
    List.iter
      (fun (node, share) -> endpoint_row (terms_at last xdst node 1. []) share)
      (Model.chain_egresses m c)
  done;
  (* --- flow conservation at every VNF element (Eq. 5) ------------ *)
  for c = 0 to Model.num_chains m - 1 do
    for g = stage_off.(c) to stage_off.(c + 1) - 2 do
      List.iter
        (fun node ->
          Lp.add_constraint p
            (terms_at g xdst node 1. (terms_at (g + 1) xsrc node (-1.) []))
            Lp.Eq 0.)
        (Instance.stage_dst_nodes inst ~chain:c ~stage:(g - stage_off.(c)))
    done
  done;
  (* --- compute loads (Eq. 4) ------------------------------------- *)
  (* Each variable charges the VNFs at both of its endpoints: the VNF the
     stage leaves (none for the first stage) and the one it enters (none
     for the last). Buckets [0, num_sites) are the site rows, then one per
     (vnf, site). *)
  let has_load, load_terms =
    buckets
      ((Model.num_vnfs m + 1) * num_sites)
      (fun emit ->
        let charge f node coef k =
          let s = node_site.(node) in
          if f >= 0 && s >= 0 then begin
            let load = vnf_cpu.(f) *. coef in
            emit s k load;
            emit (((f + 1) * num_sites) + s) k load
          end
        in
        for c = 0 to Model.num_chains m - 1 do
          for g = stage_off.(c) to stage_off.(c + 1) - 1 do
            let coef = fwd.(g) +. rev.(g) in
            let src_vnf = if g = stage_off.(c) then -1 else stage_vnf.(g - 1) in
            for k = vstart.(g) to vstart.(g + 1) - 1 do
              charge src_vnf xsrc.(k) coef k;
              charge stage_vnf.(g) xdst.(k) coef k
            done
          done
        done)
  in
  for s = 0 to num_sites - 1 do
    if has_load s then begin
      let extra = match site_extra_vars with Some a -> [ (-1., a.(s)) ] | None -> [] in
      Lp.add_constraint p (extra @ load_terms s []) Lp.Le (Model.site_capacity m s)
    end
  done;
  for f = 0 to Model.num_vnfs m - 1 do
    for s = 0 to num_sites - 1 do
      let b = ((f + 1) * num_sites) + s in
      if has_load b then begin
        let cap = Model.vnf_site_capacity m ~vnf:f ~site:s in
        (* Extra site capacity grows the deployments there proportionally:
           m_sf * (1 + a_s / m_s), which is linear in a_s. *)
        let extra =
          match site_extra_vars with
          | Some a -> [ (-.cap /. Model.site_capacity m s, a.(s)) ]
          | None -> []
        in
        Lp.add_constraint p (extra @ load_terms b []) Lp.Le cap
      end
    done
  done;
  (* --- network cost / MLU (Eq. 6) -------------------------------- *)
  let num_links = Sb_net.Topology.num_links topo in
  let has_link, link_terms =
    buckets num_links (fun emit ->
        for g = 0 to total - 1 do
          let w = fwd.(g) and rv = rev.(g) in
          for k = vstart.(g) to vstart.(g + 1) - 1 do
            let n1 = xsrc.(k) and n2 = xdst.(k) in
            if n1 <> n2 then begin
              Sb_net.Paths.iter_fractions paths ~src:n1 ~dst:n2 (fun e frac ->
                  emit e k (w *. frac));
              if rv > 0. then
                Sb_net.Paths.iter_fractions paths ~src:n2 ~dst:n1 (fun e frac ->
                    emit e k (rv *. frac))
            end
          done
        done)
  in
  for e = 0 to num_links - 1 do
    if has_link e then begin
      let l = Sb_net.Topology.link topo e in
      let rhs = (Model.beta m *. l.bandwidth) -. Model.background m e in
      Lp.add_constraint p (link_terms e []) Lp.Le rhs
    end
  done;
  (* --- objective -------------------------------------------------- *)
  (match (objective, alpha) with
  | Min_latency, _ ->
    let terms = ref [] in
    for g = 0 to total - 1 do
      for k = vstart.(g) to vstart.(g + 1) - 1 do
        let coef = (fwd.(g) +. rev.(g)) *. Sb_net.Paths.delay paths xsrc.(k) xdst.(k) in
        if coef > 0. then terms := (coef, xvar.(k)) :: !terms
      done
    done;
    Lp.set_objective p Lp.Minimize !terms
  | Max_throughput, Some a -> Lp.set_objective p Lp.Maximize [ (1., a) ]
  | Max_throughput, None -> assert false);
  p
