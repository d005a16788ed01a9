(* Flow storage: one store of parallel (src, dst, frac) arrays per global
   stage, in insertion order. Every fold, commit and decomposition below
   walks a store in that order, so their float accumulations are fixed by
   the order the flows were added in. *)

type store = {
  mutable n : int;
  mutable src : int array;
  mutable dst : int array;
  mutable frac : float array;
}

type t = {
  inst : Instance.t;
  stores : store array; (* indexed by global stage id *)
}

let of_instance inst =
  {
    inst;
    stores =
      Array.init (Instance.num_stages_total inst) (fun _ ->
          { n = 0; src = [||]; dst = [||]; frac = [||] });
  }

let create m = of_instance (Instance.compile m)
let instance t = t.inst
let model t = Instance.model t.inst

let reset t =
  Array.iter (fun st -> st.n <- 0) t.stores

let store t ~chain ~stage = t.stores.(Instance.stage_index t.inst ~chain ~stage)

let append st ~src ~dst ~frac =
  let cap = Array.length st.src in
  if st.n = cap then begin
    let ncap = if cap = 0 then 4 else 2 * cap in
    let nsrc = Array.make ncap 0 in
    let ndst = Array.make ncap 0 in
    let nfrac = Array.make ncap 0. in
    Array.blit st.src 0 nsrc 0 st.n;
    Array.blit st.dst 0 ndst 0 st.n;
    Array.blit st.frac 0 nfrac 0 st.n;
    st.src <- nsrc;
    st.dst <- ndst;
    st.frac <- nfrac
  end;
  st.src.(st.n) <- src;
  st.dst.(st.n) <- dst;
  st.frac.(st.n) <- frac;
  st.n <- st.n + 1

let append_flow t ~chain ~stage ~src ~dst ~frac =
  append (store t ~chain ~stage) ~src ~dst ~frac

let iter_stage t ~chain ~stage f =
  let st = store t ~chain ~stage in
  for k = 0 to st.n - 1 do
    f st.src.(k) st.dst.(k) st.frac.(k)
  done

let clear_chain t ~chain =
  let off = Instance.stage_off t.inst in
  for gz = off.(chain) to off.(chain + 1) - 1 do
    t.stores.(gz).n <- 0
  done

let add_path t ~chain ~nodes ~frac =
  let stages = Instance.num_stages t.inst chain in
  if Array.length nodes <> stages + 1 then
    invalid_arg "Routing.add_path: node sequence length mismatch";
  let base = (Instance.stage_off t.inst).(chain) in
  for z = 0 to stages - 1 do
    let src = nodes.(z) and dst = nodes.(z + 1) in
    let st = t.stores.(base + z) in
    (* Merge with the first identical hop if present; otherwise append. *)
    let k = ref 0 in
    while !k < st.n && not (st.src.(!k) = src && st.dst.(!k) = dst) do
      incr k
    done;
    if !k < st.n then st.frac.(!k) <- st.frac.(!k) +. frac
    else append st ~src ~dst ~frac
  done

let close_enough a b = Float.abs (a -. b) < 1e-6

(* Sum of [st]'s fractions whose [ends] (its [src] or [dst]) is [node], in
   insertion order. *)
let flow_sum st ends node =
  let acc = ref 0. in
  for k = 0 to st.n - 1 do
    if ends.(k) = node then acc := !acc +. st.frac.(k)
  done;
  !acc

let validate t =
  let m = model t in
  let problem = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if !problem = None then problem := Some s) fmt in
  for c = 0 to Model.num_chains m - 1 do
    let stages = Instance.num_stages t.inst c in
    for z = 0 to stages - 1 do
      let srcs = Model.stage_src_nodes m ~chain:c ~stage:z in
      let dsts = Instance.stage_dst_nodes t.inst ~chain:c ~stage:z in
      let st = store t ~chain:c ~stage:z in
      for k = 0 to st.n - 1 do
        let s = st.src.(k) and d = st.dst.(k) and f = st.frac.(k) in
        if f < -1e-9 then fail "chain %d stage %d: negative fraction %g" c z f;
        if not (List.mem s srcs) then fail "chain %d stage %d: invalid source node %d" c z s;
        if not (List.mem d dsts) then
          fail "chain %d stage %d: invalid destination node %d" c z d
      done
    done;
    (* Each ingress node emits exactly its traffic share (stage 0), and
       each egress node receives its share (final stage). *)
    let first = store t ~chain:c ~stage:0 and last = store t ~chain:c ~stage:(stages - 1) in
    List.iter
      (fun (node, share) ->
        let out = flow_sum first first.src node in
        if not (close_enough out share) then
          fail "chain %d: ingress %d emits %g, expected %g" c node out share)
      (Model.chain_ingresses m c);
    List.iter
      (fun (node, share) ->
        let inflow = flow_sum last last.dst node in
        if not (close_enough inflow share) then
          fail "chain %d: egress %d receives %g, expected %g" c node inflow share)
      (Model.chain_egresses m c);
    (* Conservation at each VNF element's sites (Eq. 5). *)
    for z = 0 to stages - 2 do
      let into = store t ~chain:c ~stage:z and from = store t ~chain:c ~stage:(z + 1) in
      List.iter
        (fun node ->
          let inflow = flow_sum into into.dst node and outflow = flow_sum from from.src node in
          if not (close_enough inflow outflow) then
            fail "chain %d element %d at node %d: in %g <> out %g" c (z + 1) node
              inflow outflow)
        (Instance.stage_dst_nodes t.inst ~chain:c ~stage:z)
    done
  done;
  match !problem with None -> Ok () | Some s -> Error s

(* Commit every stage flow into [state]: chains ascending, stages ascending,
   flows in insertion order. *)
let commit_into state t =
  let stage_off = Instance.stage_off t.inst in
  for c = 0 to Instance.num_chains t.inst - 1 do
    let base = stage_off.(c) in
    for z = 0 to stage_off.(c + 1) - base - 1 do
      let st = t.stores.(base + z) in
      for k = 0 to st.n - 1 do
        let frac = st.frac.(k) in
        if frac > 1e-12 then
          Load_state.add_stage_flow state ~chain:c ~stage:z ~src:st.src.(k)
            ~dst:st.dst.(k) ~frac
      done
    done
  done

let load_state t =
  let state = Load_state.of_instance t.inst in
  commit_into state t;
  state

let max_alpha t = Load_state.max_alpha (load_state t)

let max_alpha_into state t =
  if not (Load_state.instance state == t.inst) then
    invalid_arg "Routing.max_alpha_into: load state compiled from a different instance";
  Load_state.reset state;
  commit_into state t;
  Load_state.max_alpha state

let latency_terms ?(alpha = 1.0) ?(vnf_service_time = 0.001) ~with_queueing t =
  let inst = t.inst in
  let state = load_state t in
  let paths = Model.paths (model t) in
  let stage_off = Instance.stage_off inst in
  let stage_vnf = Instance.stage_vnf inst in
  let node_site = Instance.node_site inst in
  let scale = Instance.scale inst in
  let fwd_base = Instance.fwd_base inst in
  let rev_base = Instance.rev_base inst in
  let total_weight = ref 0. in
  let total_latency = ref 0. in
  let saturated = ref false in
  for c = 0 to Instance.num_chains inst - 1 do
    let base = stage_off.(c) in
    for z = 0 to stage_off.(c + 1) - base - 1 do
      let gz = base + z in
      let w = fwd_base.(gz) *. scale in
      let v = rev_base.(gz) *. scale in
      let st = t.stores.(gz) in
      for k = 0 to st.n - 1 do
        let frac = st.frac.(k) in
        if frac > 1e-12 then begin
          let src = st.src.(k) and dst = st.dst.(k) in
          let weight = (w +. v) *. frac in
          let prop = Sb_net.Paths.delay paths src dst in
          let queue =
            if not with_queueing then 0.
            else begin
              let f = stage_vnf.(gz) in
              if f < 0 then 0.
              else begin
                let s = node_site.(dst) in
                if s < 0 then 0.
                else begin
                  let rho = alpha *. Load_state.vnf_utilization state ~vnf:f ~site:s in
                  (* A deployment loaded beyond capacity cannot carry the
                     traffic at all; one loaded exactly to its admission
                     limit queues heavily but finitely. *)
                  if rho > 1. +. 1e-9 then begin
                    saturated := true;
                    0.
                  end
                  else vnf_service_time /. (1. -. Float.min rho 0.98)
                end
              end
            end
          in
          total_weight := !total_weight +. weight;
          total_latency := !total_latency +. (weight *. (prop +. queue))
        end
      done
    done
  done;
  if !saturated then infinity
  else if !total_weight = 0. then 0.
  else !total_latency /. !total_weight

let mean_latency ?alpha ?vnf_service_time t =
  latency_terms ?alpha ?vnf_service_time ~with_queueing:true t

let propagation_latency t = latency_terms ~with_queueing:false t

(* Flow decomposition over a residual copy of each stage's fractions. A
   round starts on the first stage-0 arc with residual above 1e-9 and, at
   each later stage, follows the first such arc out of the current node,
   in insertion order; the path carries the smallest residual on it, which
   is taken off every arc matching one of its hops. A round that strands
   (a partial routing) writes its first arc off instead. *)
let decompose_paths t ~chain =
  let stages = Instance.num_stages t.inst chain in
  let base = (Instance.stage_off t.inst).(chain) in
  let res = Array.init stages (fun z -> let st = t.stores.(base + z) in Array.sub st.frac 0 st.n) in
  (* The first arc of stage [z] with residual flow leaving [node] (any node
     when [node < 0]), or [-1]. *)
  let take z node =
    let st = t.stores.(base + z) and r = res.(z) in
    let k = ref 0 in
    while !k < st.n && not ((node < 0 || st.src.(!k) = node) && r.(!k) > 1e-9) do
      incr k
    done;
    if !k < st.n then !k else -1
  in
  let subtract z src dst amount =
    let st = t.stores.(base + z) and r = res.(z) in
    for k = 0 to st.n - 1 do
      if st.src.(k) = src && st.dst.(k) = dst then r.(k) <- r.(k) -. amount
    done
  in
  let nodes = Array.make (stages + 1) 0 in
  let paths = ref [] in
  let k0 = ref (take 0 (-1)) in
  while !k0 >= 0 do
    let f0 = res.(0).(!k0) in
    nodes.(0) <- t.stores.(base).src.(!k0);
    nodes.(1) <- t.stores.(base).dst.(!k0);
    let frac = ref f0 and z = ref 1 and stranded = ref false in
    while !z < stages && not !stranded do
      let k = take !z nodes.(!z) in
      if k < 0 then stranded := true
      else begin
        nodes.(!z + 1) <- t.stores.(base + !z).dst.(k);
        frac := Float.min !frac res.(!z).(k);
        incr z
      end
    done;
    if !stranded then subtract 0 nodes.(0) nodes.(1) f0
    else begin
      for z = 0 to stages - 1 do
        subtract z nodes.(z) nodes.(z + 1) !frac
      done;
      paths := (Array.copy nodes, !frac) :: !paths
    end;
    k0 := take 0 (-1)
  done;
  List.rev !paths

let pp_chain ppf t c =
  let m = model t in
  let topo = Model.topology m in
  Format.fprintf ppf "@[<v>chain %s (%s -> %s):@," (Model.chain_name m c)
    (Sb_net.Topology.node_name topo (Model.chain_ingress m c))
    (Sb_net.Topology.node_name topo (Model.chain_egress m c));
  for z = 0 to Instance.num_stages t.inst c - 1 do
    Format.fprintf ppf "  stage %d:" z;
    let st = store t ~chain:c ~stage:z in
    for k = 0 to st.n - 1 do
      Format.fprintf ppf " %s->%s:%.2f"
        (Sb_net.Topology.node_name topo st.src.(k))
        (Sb_net.Topology.node_name topo st.dst.(k))
        st.frac.(k)
    done;
    Format.fprintf ppf "@,"
  done;
  Format.fprintf ppf "@]"
