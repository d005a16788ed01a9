type t = {
  inst : Instance.t;
  net : Sb_net.Load.t; (* Switchboard traffic only; background added on demand *)
  site_loads : float array;
  vnf_loads : float array; (* flattened: vnf * num_sites + site *)
  num_sites : int;
  (* Hot fields of [inst], re-exposed to keep commits at field-read cost. *)
  stage_off : int array;
  fwd_base : float array;
  rev_base : float array;
  stage_vnf : int array;
  node_site : int array;
  vnf_cpu : float array;
  dep_cap : float array;
}

let of_instance inst =
  let m = Instance.model inst in
  {
    inst;
    net = Sb_net.Load.create (Model.topology m) (Model.paths m);
    site_loads = Array.make (Instance.num_sites inst) 0.;
    vnf_loads = Array.make (Instance.num_vnfs inst * Instance.num_sites inst) 0.;
    num_sites = Instance.num_sites inst;
    stage_off = Instance.stage_off inst;
    fwd_base = Instance.fwd_base inst;
    rev_base = Instance.rev_base inst;
    stage_vnf = Instance.stage_vnf inst;
    node_site = Instance.node_site inst;
    vnf_cpu = Instance.vnf_cpu inst;
    dep_cap = Instance.dep_cap inst;
  }

let create m = of_instance (Instance.compile m)

let reset t =
  Sb_net.Load.reset t.net;
  Array.fill t.site_loads 0 (Array.length t.site_loads) 0.;
  Array.fill t.vnf_loads 0 (Array.length t.vnf_loads) 0.

let model t = Instance.model t.inst
let instance t = t.inst
let site_load t s = t.site_loads.(s)
let vnf_load t ~vnf ~site = t.vnf_loads.((vnf * t.num_sites) + site)
let link_sb_load t e = Sb_net.Load.link_load t.net e

let site_utilization t s = t.site_loads.(s) /. (Instance.site_cap t.inst).(s)

let vnf_utilization t ~vnf ~site =
  let cap = t.dep_cap.((vnf * t.num_sites) + site) in
  if cap <= 0. then 0. else t.vnf_loads.((vnf * t.num_sites) + site) /. cap

(* Charge compute for one endpoint of a stage flow: the VNF at [node] (if
   the element is a VNF, [f >= 0]) gains l_f * volume * frac. *)
let charge_compute t ~f ~node ~volume =
  if f >= 0 then begin
    let s = t.node_site.(node) in
    if s < 0 then invalid_arg "Load_state: VNF element at a node with no site";
    let load = t.vnf_cpu.(f) *. volume in
    let fs = (f * t.num_sites) + s in
    t.vnf_loads.(fs) <- t.vnf_loads.(fs) +. load;
    t.site_loads.(s) <- t.site_loads.(s) +. load
  end

let add_stage_flow t ~chain ~stage ~src ~dst ~frac =
  let gz = t.stage_off.(chain) + stage in
  let scale = Instance.scale t.inst in
  let w = t.fwd_base.(gz) *. scale in
  let v = t.rev_base.(gz) *. scale in
  Sb_net.Load.add_flow t.net ~src ~dst ~volume:(w *. frac);
  Sb_net.Load.add_flow t.net ~src:dst ~dst:src ~volume:(v *. frac);
  let volume = (w +. v) *. frac in
  (* Element [stage] sends this stage's traffic; element [stage + 1]
     receives it (Eq. 4 charges both). Element 0 is the ingress and element
     L+1 the egress — neither is a VNF. *)
  let src_vnf = if stage = 0 then -1 else t.stage_vnf.(gz - 1) in
  charge_compute t ~f:src_vnf ~node:src ~volume;
  charge_compute t ~f:t.stage_vnf.(gz) ~node:dst ~volume

(* The least headroom ratio over every loaded link, site and deployment. *)
let max_alpha t =
  let m = Instance.model t.inst in
  let topo = Model.topology m in
  let best = ref infinity in
  let consider a = if a < !best then best := a in
  for e = 0 to Sb_net.Topology.num_links topo - 1 do
    let load = Sb_net.Load.link_load t.net e in
    if load > 1e-12 then begin
      let l = Sb_net.Topology.link topo e in
      let headroom = (Model.beta m *. l.bandwidth) -. Model.background m e in
      consider (Float.max 0. headroom /. load)
    end
  done;
  let site_cap = Instance.site_cap t.inst in
  for s = 0 to t.num_sites - 1 do
    if t.site_loads.(s) > 1e-12 then
      consider (site_cap.(s) /. t.site_loads.(s))
  done;
  let vdep_off = Instance.vdep_off t.inst in
  let vdep_site = Instance.vdep_site t.inst in
  let vdep_cap = Instance.vdep_cap t.inst in
  for f = 0 to Instance.num_vnfs t.inst - 1 do
    for k = vdep_off.(f) to vdep_off.(f + 1) - 1 do
      let s = vdep_site.(k) in
      let load = t.vnf_loads.((f * t.num_sites) + s) in
      if load > 1e-12 then consider (vdep_cap.(k) /. load)
    done
  done;
  !best

let stage_compute_cost t ~chain ~stage ~dst =
  let gz = t.stage_off.(chain) + stage in
  let f = t.stage_vnf.(gz) in
  if f < 0 then 0.
  else begin
    let s = t.node_site.(dst) in
    if s < 0 then infinity
    else begin
      let cap = t.dep_cap.((f * t.num_sites) + s) in
      if cap <= 0. then infinity
      else begin
        let scale = Instance.scale t.inst in
        let w = t.fwd_base.(gz) *. scale in
        let v = t.rev_base.(gz) *. scale in
        let added = t.vnf_cpu.(f) *. (w +. v) in
        let cur = t.vnf_loads.((f * t.num_sites) + s) in
        (* clamp the tiny negative residue a flow removal can leave *)
        let before = Float.max 0. (cur /. cap) in
        let after = Float.max 0. ((cur +. added) /. cap) in
        Sb_util.Convex_cost.cost after -. Sb_util.Convex_cost.cost before
      end
    end
  end

let stage_net_cost t ~chain ~stage ~src ~dst =
  let gz = t.stage_off.(chain) + stage in
  let scale = Instance.scale t.inst in
  let w = t.fwd_base.(gz) *. scale in
  let v = t.rev_base.(gz) *. scale in
  Sb_net.Load.path_network_cost_pair t.net ~src ~dst ~fwd:w ~rev:v

let stage_cost t ~util_weight ~chain ~stage ~src ~dst =
  let delay = Sb_net.Paths.delay (Model.paths (Instance.model t.inst)) src dst in
  if util_weight = 0. || delay = infinity then delay
  else
    delay
    +. (util_weight
       *. (stage_net_cost t ~chain ~stage ~src ~dst
          +. stage_compute_cost t ~chain ~stage ~dst))
