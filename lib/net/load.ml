type t = {
  topo : Topology.t;
  paths : Paths.t;
  loads : float array;
  bandwidth : float array;
  (* Convex_cost.cost of each link's current utilization, maintained on
     every load change: the query side of path_network_cost then pays one
     cost evaluation per link (the hypothetical "after") instead of two.
     Loads change far less often than costs are queried — SB-DP probes
     every candidate node pair per stage but commits one. *)
  cost_now : float array;
  (* The CSR span arrays of [paths], immutable after Paths.compute, cached
     here so per-query access is a field read rather than an accessor call. *)
  frac_off : int array;
  frac_links : int array;
  frac_vals : float array;
  nn : int; (* num nodes; pair p = src * nn + dst *)
}

(* Local clone of Sb_util.Convex_cost.cost (same breakpoints, same
   expression trees, hence bit-identical results) so the per-link call in
   path_network_cost can be inlined — the Closure backend does not inline
   across modules. Negative inputs are the caller's problem here: every
   call site below guards [u >= 0.] first. *)
let b1 = 1. /. 3.
let b2 = 2. /. 3.
let b3 = 0.9
let b4 = 1.0
let b5 = 1.1
let c1 = (b1 -. 0.) *. 1.
let c2 = c1 +. ((b2 -. b1) *. 3.)
let c3 = c2 +. ((b3 -. b2) *. 10.)
let c4 = c3 +. ((b4 -. b3) *. 70.)
let c5 = c4 +. ((b5 -. b4) *. 500.)

let[@inline always] convex_cost u =
  if u <= b1 then (u -. 0.) *. 1.
  else if u <= b2 then c1 +. ((u -. b1) *. 3.)
  else if u <= b3 then c2 +. ((u -. b2) *. 10.)
  else if u <= b4 then c3 +. ((u -. b3) *. 70.)
  else if u <= b5 then c4 +. ((u -. b4) *. 500.)
  else c5 +. ((u -. b5) *. 5000.)

let update_cost t e =
  let u = t.loads.(e) /. t.bandwidth.(e) in
  (* cost 0. = 0.; treat the tiny negative residue a remove_flow can leave
     behind the same way instead of raising. *)
  t.cost_now.(e) <- (if u > 0. then convex_cost u else 0.)

let reset t =
  Array.fill t.loads 0 (Array.length t.loads) 0.;
  Array.fill t.cost_now 0 (Array.length t.cost_now) 0.

let create topo paths =
  {
    topo;
    paths;
    loads = Array.make (Topology.num_links topo) 0.;
    bandwidth =
      Array.init (Topology.num_links topo) (fun id -> (Topology.link topo id).Topology.bandwidth);
    cost_now = Array.make (Topology.num_links topo) 0.;
    frac_off = Paths.frac_offsets paths;
    frac_links = Paths.frac_link_ids paths;
    frac_vals = Paths.frac_values paths;
    nn = Topology.num_nodes topo;
  }

let add_background t link_id volume =
  t.loads.(link_id) <- t.loads.(link_id) +. volume;
  update_cost t link_id

(* The hot path iterates the CSR span of the pair directly: no Hashtbl
   lookup, no list traversal, no allocation. *)

let add_flow t ~src ~dst ~volume =
  if src <> dst then begin
    let p = (src * t.nn) + dst in
    for i = t.frac_off.(p) to t.frac_off.(p + 1) - 1 do
      let e = t.frac_links.(i) in
      t.loads.(e) <- t.loads.(e) +. (volume *. t.frac_vals.(i));
      update_cost t e
    done
  end

let remove_flow t ~src ~dst ~volume = add_flow t ~src ~dst ~volume:(-.volume)

let link_load t id = t.loads.(id)

let utilization t id = t.loads.(id) /. t.bandwidth.(id)

let mlu t =
  let best = ref 0. in
  for id = 0 to Array.length t.loads - 1 do
    let u = utilization t id in
    if u > !best then best := u
  done;
  !best

let path_max_utilization t ~src ~dst =
  let p = (src * t.nn) + dst in
  let best = ref 0. in
  for i = t.frac_off.(p) to t.frac_off.(p + 1) - 1 do
    let u = utilization t t.frac_links.(i) in
    if u > !best then best := u
  done;
  !best

(* All-float record, so the mutable field stays unboxed — a [float ref]
   would box every store on the non-flambda backend. *)
type facc = { mutable acc : float }

let path_network_cost t ~src ~dst ~extra =
  let off = t.frac_off in
  let links = t.frac_links in
  let fracs = t.frac_vals in
  let p = (src * t.nn) + dst in
  let loads = t.loads and bandwidth = t.bandwidth and cost_now = t.cost_now in
  let a = { acc = 0. } in
  (* unsafe_get: [i] ranges over a CSR span (off is monotone and ends at
     the array length) and [e] is a link id < num_links, the length of the
     three per-link arrays. *)
  for i = off.(p) to Array.unsafe_get off (p + 1) - 1 do
    let e = Array.unsafe_get links i in
    let after =
      (Array.unsafe_get loads e +. (extra *. Array.unsafe_get fracs i))
      /. Array.unsafe_get bandwidth e
    in
    (* Clamped at 0. like [update_cost]: a lift-out ([remove_flow]) can
       leave a ~1e-16 negative load residue, and without the clamp adding
       a small flow onto it would cost less than nothing. With it, and
       [extra >= 0.], each term is [cost after - cost now >= 0.] (the
       convex cost and float rounding are monotone), so the sum is too:
       the bound [Dp_routing]'s prune relies on. *)
    let after = if after > 0. then after else 0. in
    a.acc <- a.acc +. (convex_cost after -. Array.unsafe_get cost_now e)
  done;
  a.acc

let path_network_cost_pair t ~src ~dst ~fwd ~rev =
  path_network_cost t ~src ~dst ~extra:fwd
  +. path_network_cost t ~src:dst ~dst:src ~extra:rev
