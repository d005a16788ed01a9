type choose = Load_state.t -> int -> int -> int -> int list -> int

(* Walk one chain element by element from a given ingress towards a given
   egress, choosing each VNF's site with
   [choose state chain stage current candidates]; returns the node path. *)
let walk_chain inst state chain ~ingress ~egress choose =
  let len = Instance.num_stages inst chain - 1 in
  let nodes = Array.make (len + 2) ingress in
  nodes.(len + 1) <- egress;
  for z = 0 to len - 1 do
    let candidates = Instance.stage_dst_nodes inst ~chain ~stage:z in
    nodes.(z + 1) <- choose state chain z nodes.(z) candidates
  done;
  nodes

(* Greedy schemes handle a multi-endpoint chain (Section 4.1's omitted
   generalization) as one walk per (ingress, egress) pair, carrying the
   product of the endpoint shares. *)
let route_into state routing choose =
  let inst = Load_state.instance state in
  if not (Routing.instance routing == inst) then
    invalid_arg "Greedy.route_into: routing compiled from a different instance";
  Load_state.reset state;
  Routing.reset routing;
  let m = Instance.model inst in
  for c = 0 to Instance.num_chains inst - 1 do
    List.iter
      (fun (ingress, ishare) ->
        List.iter
          (fun (egress, eshare) ->
            let frac = ishare *. eshare in
            let nodes = walk_chain inst state c ~ingress ~egress choose in
            Routing.add_path routing ~chain:c ~nodes ~frac;
            for z = 0 to Array.length nodes - 2 do
              Load_state.add_stage_flow state ~chain:c ~stage:z ~src:nodes.(z)
                ~dst:nodes.(z + 1) ~frac
            done)
          (Model.chain_egresses m c))
      (Model.chain_ingresses m c)
  done;
  routing

let route m choose =
  let inst = Instance.compile m in
  route_into (Load_state.of_instance inst) (Routing.of_instance inst) choose

let by_delay m current candidates =
  let paths = Model.paths m in
  List.sort
    (fun a b ->
      compare (Sb_net.Paths.delay paths current a) (Sb_net.Paths.delay paths current b))
    candidates

let choose_anycast m =
  fun _state _chain _stage current candidates ->
    match by_delay m current candidates with
    | best :: _ -> best
    | [] -> invalid_arg "Greedy.anycast: VNF with no deployment"

let anycast m = route m (choose_anycast m)

let anycast_into state routing =
  route_into state routing (choose_anycast (Load_state.model state))

(* Remaining capacity for this chain's stage at a candidate VNF site:
   the smaller of the deployment headroom and the site headroom. The VNF is
   charged for both the traffic it receives (stage [stage]) and the traffic
   it forwards on (stage [stage + 1]), per Eq. 4. *)
let headroom state chain stage node =
  let inst = Load_state.instance state in
  let gz = (Instance.stage_off inst).(chain) + stage in
  let f = (Instance.stage_vnf inst).(gz) in
  let s = if f >= 0 then (Instance.node_site inst).(node) else -1 in
  if f < 0 || s < 0 then infinity
  else begin
    let scale = Instance.scale inst in
    let fwd_base = Instance.fwd_base inst in
    let rev_base = Instance.rev_base inst in
    let stage_traffic z =
      (fwd_base.(gz - stage + z) *. scale) +. (rev_base.(gz - stage + z) *. scale)
    in
    let added =
      (Instance.vnf_cpu inst).(f) *. (stage_traffic stage +. stage_traffic (stage + 1))
    in
    let vnf_room =
      (Instance.dep_cap inst).((f * Instance.num_sites inst) + s)
      -. Load_state.vnf_load state ~vnf:f ~site:s
    in
    let site_room = (Instance.site_cap inst).(s) -. Load_state.site_load state s in
    Float.min vnf_room site_room -. added
  end

let choose_compute_aware m =
  fun state chain stage current candidates ->
    let ordered = by_delay m current candidates in
    let with_room = List.filter (fun n -> headroom state chain stage n >= 0.) ordered in
    match with_room with
    | best :: _ -> best
    | [] -> (
      (* No site fits: fall back to the least-loaded one. *)
      match
        List.sort
          (fun a b ->
            compare (headroom state chain stage b) (headroom state chain stage a))
          ordered
      with
      | best :: _ -> best
      | [] -> invalid_arg "Greedy.compute_aware: VNF with no deployment")

let compute_aware m = route m (choose_compute_aware m)

let compute_aware_into state routing =
  route_into state routing (choose_compute_aware (Load_state.model state))

let choose_onehop util_weight =
  fun state chain stage current candidates ->
    let cost n = Load_state.stage_cost state ~util_weight ~chain ~stage ~src:current ~dst:n in
    let keyed = List.map (fun n -> (cost n, n)) candidates in
    match List.sort (fun (a, _) (b, _) -> compare (a : float) b) keyed with
    | (_, best) :: _ -> best
    | [] -> invalid_arg "Greedy.onehop: VNF with no deployment"

let onehop_weight util_weight =
  match util_weight with Some w -> w | None -> Dp_routing.default_util_weight

let onehop ?util_weight m = route m (choose_onehop (onehop_weight util_weight))

let onehop_into ?util_weight state routing =
  route_into state routing (choose_onehop (onehop_weight util_weight))
