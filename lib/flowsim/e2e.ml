module Model = Sb_core.Model
module Routing = Sb_core.Routing

type result = {
  total_throughput : float;
  mean_rtt : float;
  per_chain : (float * float) list;
}

(* A TCP connection's rate through a VNF consumes compute on both its
   inbound and outbound halves (Eq. 4), hence the factor 2. *)
let vnf_rate_capacity m ~vnf ~site =
  Model.vnf_site_capacity m ~vnf ~site /. (2. *. Model.vnf_cpu_per_unit m vnf)

(* A path's population: flows [first .. first + count - 1] of chain [c],
   their RTT, and the deployments (keys into [vnf_res]) they pass, last
   hop first. *)
type path = { c : int; rtt : float; passes : int list; first : int; count : int }

let evaluate ?(flows_per_chain = 16) ?(window_rtt_cap = 2.0) ?(vnf_service_time = 0.001)
    routing =
  if flows_per_chain <= 0 then invalid_arg "E2e.evaluate: flows_per_chain must be positive";
  if not (window_rtt_cap > 0.) then
    invalid_arg "E2e.evaluate: window_rtt_cap must be positive";
  if not (vnf_service_time >= 0.) then
    invalid_arg "E2e.evaluate: vnf_service_time must be non-negative";
  let m = Routing.model routing in
  let topo = Model.topology m in
  let paths = Model.paths m in
  let mm = Maxmin.create () in
  (* Wide-area link resources (headroom after background traffic). *)
  let link_res =
    Array.init (Sb_net.Topology.num_links topo) (fun e ->
        let l = Sb_net.Topology.link topo e in
        let headroom = (Model.beta m *. l.bandwidth) -. Model.background m e in
        if headroom > 1e-9 then Maxmin.add_resource mm ~capacity:headroom else -1)
  in
  (* VNF deployment resources, keyed [vnf * num_sites + site]. *)
  let nsites = Model.num_sites m in
  let vnf_res = Array.make (Model.num_vnfs m * nsites) (-1) in
  for f = 0 to Model.num_vnfs m - 1 do
    List.iter
      (fun (s, _) ->
        let cap = vnf_rate_capacity m ~vnf:f ~site:s in
        if cap > 1e-9 then
          vnf_res.((f * nsites) + s) <- Maxmin.add_resource mm ~capacity:cap)
      (Model.vnf_sites m f)
  done;
  (* Links that carry the bulk of a hop's traffic (minor ECMP slivers are
     ignored), once per hop. *)
  let hop_links = Hashtbl.create 64 in
  let links_of src dst =
    let key = (src * Sb_net.Topology.num_nodes topo) + dst in
    match Hashtbl.find_opt hop_links key with
    | Some rs -> rs
    | None ->
      let rs =
        List.filter_map
          (fun (e, f) -> if f > 0.25 && link_res.(e) >= 0 then Some link_res.(e) else None)
          (Sb_net.Paths.fractions paths ~src ~dst)
      in
      Hashtbl.add hop_links key rs;
      rs
  in
  (* One max-min flow per TCP connection; [flow_paths] is newest first. *)
  let flow_paths = ref [] in
  let nflows = ref 0 in
  for c = 0 to Model.num_chains m - 1 do
    List.iter
      (fun (nodes, frac) ->
        if frac > 1e-6 then begin
          let count =
            max 1 (int_of_float (Float.round (float_of_int flows_per_chain *. frac)))
          in
          (* Links and VNFs this path traverses, and its propagation RTT. *)
          let resources = ref [] in
          let vnf_passes = ref [] in
          let prop = ref 0. in
          for z = 0 to Array.length nodes - 2 do
            let src = nodes.(z) and dst = nodes.(z + 1) in
            prop := !prop +. Sb_net.Paths.delay paths src dst;
            resources := List.rev_append (links_of src dst) !resources;
            match (Model.stage_dst_vnf m ~chain:c ~stage:z, Model.site_of_node m dst) with
            | Some f, Some s ->
              let key = (f * nsites) + s in
              vnf_passes := key :: !vnf_passes;
              if vnf_res.(key) >= 0 then resources := vnf_res.(key) :: !resources
            | _ -> ()
          done;
          let rtt = 2. *. !prop in
          let demand = if rtt > 1e-9 then window_rtt_cap /. rtt else infinity in
          for _ = 1 to count do
            ignore (Maxmin.add_flow mm ~demand !resources)
          done;
          flow_paths :=
            { c; rtt; passes = !vnf_passes; first = !nflows; count } :: !flow_paths;
          nflows := !nflows + count
        end)
      (Routing.decompose_paths routing ~chain:c)
  done;
  let rates = Maxmin.solve mm in
  (* Queueing at hot deployments, from the realized utilizations. *)
  let util = Maxmin.utilizations mm rates in
  let queue_delay key =
    let r = vnf_res.(key) in
    if r < 0 then 0.
    else
      let u = Float.min util.(r) 0.98 in
      vnf_service_time *. u /. (1. -. u)
  in
  let chain_tput = Array.make (Model.num_chains m) 0. in
  let chain_rtt = Array.make (Model.num_chains m) 0. in
  let chain_flows = Array.make (Model.num_chains m) 0 in
  (* Per-chain sums run over flow ids in descending order: float addition
     does not reassociate, so the order is part of the result. *)
  List.iter
    (fun p ->
      let q = List.fold_left (fun acc key -> acc +. (2. *. queue_delay key)) 0. p.passes in
      for id = p.first + p.count - 1 downto p.first do
        chain_tput.(p.c) <- chain_tput.(p.c) +. rates.(id);
        chain_rtt.(p.c) <- chain_rtt.(p.c) +. p.rtt +. q
      done;
      chain_flows.(p.c) <- chain_flows.(p.c) + p.count)
    !flow_paths;
  let per_chain =
    List.init (Model.num_chains m) (fun c ->
        ( chain_tput.(c),
          if chain_flows.(c) = 0 then 0. else chain_rtt.(c) /. float_of_int chain_flows.(c) ))
  in
  let total_rtt = Array.fold_left ( +. ) 0. chain_rtt in
  {
    total_throughput = Maxmin.total_rate rates;
    mean_rtt = (if !nflows = 0 then 0. else total_rtt /. float_of_int !nflows);
    per_chain;
  }
