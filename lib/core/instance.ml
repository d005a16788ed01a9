type t = {
  m : Model.t;
  num_chains : int;
  num_nodes : int;
  num_sites : int;
  num_vnfs : int;
  (* chain -> first global stage id; length num_chains + 1. Stage [z] of
     chain [c] is global stage [stage_off.(c) + z]. *)
  stage_off : int array;
  (* Per global stage: the model's (unscaled) demand. Engines read demand
     as [base *. scale]; [scale = 1.] reproduces the model bit-for-bit
     because [x *. 1. = x] for every float the model can hold. *)
  fwd_base : float array;
  rev_base : float array;
  mutable scale : float;
  (* Per global stage: VNF id of the receiving element; -1 when the stage
     ends at the egress. *)
  stage_vnf : int array;
  (* Per global stage: candidate destination nodes (N_cz^dst, Eq. 2) in
     Model.stage_dst_nodes order, as a CSR span and as the identical shared
     list (for consumers that take candidate lists, like Greedy.choose). *)
  dst_off : int array;
  dst_nodes : int array;
  dst_lists : int list array;
  (* node -> site id (-1 when the node hosts no site), and the site/VNF
     tables flattened to arrays. *)
  node_site : int array;
  site_cap : float array;
  site_node : int array;
  vnf_cpu : float array;
  (* Dense (vnf, site) -> m_sf; 0. when not deployed. Indexed
     [vnf * num_sites + site]. *)
  dep_cap : float array;
  (* Per VNF: its deployments as a CSR span, in Model.vnf_sites order
     (increasing site id) — the iteration order bottleneck scans rely on. *)
  vdep_off : int array;
  vdep_site : int array;
  vdep_cap : float array;
}

(* CSR pack of the per-stage candidate-node lists. *)
let build_dst_csr ~total dst_lists =
  let dst_off = Array.make (max 1 total + 1) 0 in
  for gz = 0 to total - 1 do
    dst_off.(gz + 1) <- dst_off.(gz) + List.length dst_lists.(gz)
  done;
  let dst_nodes = Array.make (max 1 dst_off.(total)) 0 in
  for gz = 0 to total - 1 do
    let k = ref dst_off.(gz) in
    List.iter
      (fun n ->
        dst_nodes.(!k) <- n;
        incr k)
      dst_lists.(gz)
  done;
  (dst_off, dst_nodes)

(* VNF-deployment CSR plus the dense [dep_cap] view of the same table. *)
let build_vdeps m ~nf ~ns =
  let dep_cap = Array.make (max 1 (nf * ns)) 0. in
  let vdep_off = Array.make (nf + 1) 0 in
  for f = 0 to nf - 1 do
    vdep_off.(f + 1) <- vdep_off.(f) + List.length (Model.vnf_sites m f)
  done;
  let ndep = vdep_off.(nf) in
  let vdep_site = Array.make (max 1 ndep) 0 in
  let vdep_cap = Array.make (max 1 ndep) 0. in
  for f = 0 to nf - 1 do
    let k = ref vdep_off.(f) in
    List.iter
      (fun (s, cap) ->
        vdep_site.(!k) <- s;
        vdep_cap.(!k) <- cap;
        dep_cap.((f * ns) + s) <- cap;
        incr k)
      (Model.vnf_sites m f)
  done;
  (vdep_off, vdep_site, vdep_cap, dep_cap)

let compile m =
  let nc = Model.num_chains m in
  let ns = Model.num_sites m in
  let nf = Model.num_vnfs m in
  let nn = Sb_net.Topology.num_nodes (Model.topology m) in
  let stage_off = Array.make (nc + 1) 0 in
  for c = 0 to nc - 1 do
    stage_off.(c + 1) <- stage_off.(c) + Model.num_stages m c
  done;
  let total = stage_off.(nc) in
  let fwd_base = Array.make (max 1 total) 0. in
  let rev_base = Array.make (max 1 total) 0. in
  let stage_vnf = Array.make (max 1 total) (-1) in
  let dst_lists = Array.make (max 1 total) [] in
  for c = 0 to nc - 1 do
    let base = stage_off.(c) in
    for z = 0 to stage_off.(c + 1) - base - 1 do
      let gz = base + z in
      fwd_base.(gz) <- Model.fwd_traffic m ~chain:c ~stage:z;
      rev_base.(gz) <- Model.rev_traffic m ~chain:c ~stage:z;
      (match Model.stage_dst_vnf m ~chain:c ~stage:z with
      | Some f -> stage_vnf.(gz) <- f
      | None -> ());
      dst_lists.(gz) <- Model.stage_dst_nodes m ~chain:c ~stage:z
    done
  done;
  let dst_off, dst_nodes = build_dst_csr ~total dst_lists in
  let node_site = Array.make (max 1 nn) (-1) in
  for n = 0 to nn - 1 do
    match Model.site_of_node m n with
    | Some s -> node_site.(n) <- s
    | None -> ()
  done;
  let vdep_off, vdep_site, vdep_cap, dep_cap = build_vdeps m ~nf ~ns in
  {
    m;
    num_chains = nc;
    num_nodes = nn;
    num_sites = ns;
    num_vnfs = nf;
    stage_off;
    fwd_base;
    rev_base;
    scale = 1.;
    stage_vnf;
    dst_off;
    dst_nodes;
    dst_lists;
    node_site;
    site_cap = Array.init ns (Model.site_capacity m);
    site_node = Array.init ns (Model.site_node m);
    vnf_cpu = Array.init nf (Model.vnf_cpu_per_unit m);
    dep_cap;
    vdep_off;
    vdep_site;
    vdep_cap;
  }

let model t = t.m
let num_chains t = t.num_chains
let num_nodes t = t.num_nodes
let num_sites t = t.num_sites
let num_vnfs t = t.num_vnfs
let num_stages_total t = t.stage_off.(t.num_chains)
let num_stages t c = t.stage_off.(c + 1) - t.stage_off.(c)
let stage_index t ~chain ~stage = t.stage_off.(chain) + stage
let scale t = t.scale
let set_scale t s = t.scale <- s

let fwd_traffic t ~chain ~stage =
  t.fwd_base.(t.stage_off.(chain) + stage) *. t.scale

let rev_traffic t ~chain ~stage =
  t.rev_base.(t.stage_off.(chain) + stage) *. t.scale

let stage_dst_nodes t ~chain ~stage = t.dst_lists.(t.stage_off.(chain) + stage)

let stage_off t = t.stage_off
let fwd_base t = t.fwd_base
let rev_base t = t.rev_base
let stage_vnf t = t.stage_vnf
let dst_off t = t.dst_off
let dst_nodes t = t.dst_nodes
let node_site t = t.node_site
let site_cap t = t.site_cap
let site_node t = t.site_node
let vnf_cpu t = t.vnf_cpu
let dep_cap t = t.dep_cap
let vdep_off t = t.vdep_off
let vdep_site t = t.vdep_site
let vdep_cap t = t.vdep_cap
