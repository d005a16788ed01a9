open Types

type transitions = (int * int * float) array

(* --------------------------- hash-consing --------------------------- *)

(* Actions (one stage's transition table) and spine nodes are interned in
   a shared context: equal structures get equal ids, so suffix equality
   between two chains' diagrams is one integer comparison and the diff
   walk stops at the first shared node. The context only ever grows — an
   interner has no per-snapshot lifetime — which keeps snapshots ([t])
   cheap persistent maps over it. *)

module Tr_key = struct
  type t = transitions

  let equal (a : t) (b : t) = a = b

  let hash (tr : t) =
    let h = ref (0x9E3779B1 * (Array.length tr + 1)) in
    Array.iter
      (fun (a, b, w) ->
        let wb = Int64.to_int (Int64.bits_of_float w) in
        h := (!h * 0x01000193) + a;
        h := (!h * 0x01000193) + b;
        h := (!h * 0x01000193) + (wb lxor (wb lsr 31)))
      tr;
    !h land max_int
end

module Tr_tbl = Hashtbl.Make (Tr_key)

type ctx = {
  act_ids : int Tr_tbl.t;
  mutable acts : transitions array; (* action id -> transitions *)
  mutable nacts : int;
  node_ids : (int * int, int) Hashtbl.t; (* (action, tail) -> node id *)
  mutable n_act : int array; (* node id -> action id *)
  mutable n_tail : int array; (* node id -> next-stage node; 0 = nil *)
  mutable nnodes : int;
}

let nil = 0

let grow arr n d =
  let b = Array.make n d in
  Array.blit arr 0 b 0 (Array.length arr);
  b

let intern_action ctx tr =
  match Tr_tbl.find_opt ctx.act_ids tr with
  | Some id -> id
  | None ->
    let id = ctx.nacts in
    if id = Array.length ctx.acts then ctx.acts <- grow ctx.acts (id * 2) [||];
    ctx.acts.(id) <- tr;
    ctx.nacts <- id + 1;
    Tr_tbl.replace ctx.act_ids tr id;
    id

let intern_node ctx act tail =
  match Hashtbl.find_opt ctx.node_ids (act, tail) with
  | Some id -> id
  | None ->
    let id = ctx.nnodes in
    if id = Array.length ctx.n_act then begin
      ctx.n_act <- grow ctx.n_act (id * 2) (-1);
      ctx.n_tail <- grow ctx.n_tail (id * 2) nil
    end;
    ctx.n_act.(id) <- act;
    ctx.n_tail.(id) <- tail;
    ctx.nnodes <- id + 1;
    Hashtbl.replace ctx.node_ids (act, tail) id;
    id

(* ----------------------------- snapshots ---------------------------- *)

type entry = {
  en_root : int;
  en_version : int;
  en_nstages : int;
  en_demand : (int * (int * float) list) list;
}

module Imap = Map.Make (Int)

type t = { ctx : ctx; chains : entry Imap.t }

type prepared = {
  p_chain : int;
  p_root : int;
  p_version : int;
  p_nstages : int;
  p_demand : (int * (int * float) list) list;
}

let empty () =
  {
    ctx =
      {
        act_ids = Tr_tbl.create 256;
        acts = Array.make 64 [||];
        nacts = 0;
        node_ids = Hashtbl.create 256;
        n_act = Array.make 64 (-1);
        n_tail = Array.make 64 nil;
        nnodes = 1 (* node 0 is nil, the below-last-stage leaf *);
      };
    chains = Imap.empty;
  }

let version t ~chain =
  match Imap.find_opt chain t.chains with Some e -> e.en_version | None -> 0

let nstages_of_spec spec = List.length spec.vnfs + 1

let transitions_of_routes ~nstages routes =
  Array.init nstages (fun stage ->
      Array.of_list
        (List.map
           (fun r -> (r.element_sites.(stage), r.element_sites.(stage + 1), r.weight))
           routes))

(* Per-VNF, per-site admission demand, accumulated as [cur +. w*T] in
   route-list order per site — float for float what recomputing it from
   the full route set gives, so an admission decision taken from a
   shipped [cd_demand] row equals one recomputed from the routes. *)
let demands_of_routes spec routes =
  let elements = Array.of_list ((-1) :: spec.vnfs @ [ -2 ]) in
  List.sort_uniq compare spec.vnfs
  |> List.map (fun vnf ->
         let demand = Hashtbl.create 4 in
         List.iter
           (fun r ->
             Array.iteri
               (fun z v ->
                 if v = vnf then begin
                   let s = r.element_sites.(z) in
                   let cur = try Hashtbl.find demand s with Not_found -> 0. in
                   Hashtbl.replace demand s (cur +. (r.weight *. spec.traffic))
                 end)
               elements)
           routes;
         ( vnf,
           Hashtbl.fold (fun s l acc -> (s, l) :: acc) demand []
           |> List.sort (fun (a, _) (b, _) -> compare a b) ))

let spine ctx tr_by_stage =
  let root = ref nil in
  for stage = Array.length tr_by_stage - 1 downto 0 do
    root := intern_node ctx (intern_action ctx tr_by_stage.(stage)) !root
  done;
  !root

let prepare ?version:v t ~chain ~spec ~routes =
  let nstages = nstages_of_spec spec in
  {
    p_chain = chain;
    p_root = spine t.ctx (transitions_of_routes ~nstages routes);
    p_version = (match v with Some v -> v | None -> version t ~chain + 1);
    p_nstages = nstages;
    p_demand = demands_of_routes spec routes;
  }

let commit t ~chain (p : prepared) =
  {
    t with
    chains =
      Imap.add chain
        {
          en_root = p.p_root;
          en_version = p.p_version;
          en_nstages = p.p_nstages;
          en_demand = p.p_demand;
        }
        t.chains;
  }

(* ------------------------------- diff ------------------------------- *)

(* Walk two spines in lockstep from stage 0. Hash-consing makes shared
   suffixes a single id comparison: the walk stops at the first node the
   two diagrams share, so emitting a delta costs O(changed stages), not
   O(stages). *)
let diff_stages ctx ~old_root ~new_root =
  let rec go o n stage acc =
    if o = n then List.rev acc
    else
      let acc =
        if ctx.n_act.(o) <> ctx.n_act.(n) then
          { sd_stage = stage; sd_tr = ctx.acts.(ctx.n_act.(n)) } :: acc
        else acc
      in
      go ctx.n_tail.(o) ctx.n_tail.(n) (stage + 1) acc
  in
  go old_root new_root 0 []

let all_stages ctx ~root ~nstages =
  let rec go node stage acc =
    if stage >= nstages then List.rev acc
    else
      go ctx.n_tail.(node) (stage + 1)
        ({ sd_stage = stage; sd_tr = ctx.acts.(ctx.n_act.(node)) } :: acc)
  in
  go root 0 []

let same_vnf_set a b =
  List.length a = List.length b && List.for_all2 (fun (v, _) (w, _) -> v = w) a b

let diff_demand ~old_demand ~new_demand =
  List.filter
    (fun (vnf, sites) ->
      match List.assoc_opt vnf old_demand with
      | Some old_sites -> old_sites <> sites
      | None -> true)
    new_demand

let full_of t (p : prepared) =
  {
    cd_base = 0;
    cd_target = p.p_version;
    cd_nstages = p.p_nstages;
    cd_full = true;
    cd_stages = all_stages t.ctx ~root:p.p_root ~nstages:p.p_nstages;
    cd_demand = p.p_demand;
  }

let delta_from_committed t (p : prepared) =
  match Imap.find_opt p.p_chain t.chains with
  | None -> full_of t p
  | Some e when e.en_nstages <> p.p_nstages || not (same_vnf_set e.en_demand p.p_demand)
    ->
    full_of t p
  | Some e ->
    {
      cd_base = e.en_version;
      cd_target = p.p_version;
      cd_nstages = p.p_nstages;
      cd_full = false;
      cd_stages = diff_stages t.ctx ~old_root:e.en_root ~new_root:p.p_root;
      cd_demand = diff_demand ~old_demand:e.en_demand ~new_demand:p.p_demand;
    }

let delta_between t ~base:(b : prepared) ~target:(p : prepared) =
  if b.p_nstages <> p.p_nstages || not (same_vnf_set b.p_demand p.p_demand) then
    full_of t p
  else
    {
      cd_base = b.p_version;
      cd_target = p.p_version;
      cd_nstages = p.p_nstages;
      cd_full = false;
      cd_stages = diff_stages t.ctx ~old_root:b.p_root ~new_root:p.p_root;
      cd_demand = diff_demand ~old_demand:b.p_demand ~new_demand:p.p_demand;
    }

(* ----------------------------- compose ------------------------------ *)

let rec merge_stages older newer =
  match (older, newer) with
  | [], l | l, [] -> l
  | o :: otl, n :: ntl ->
    if o.sd_stage < n.sd_stage then o :: merge_stages otl newer
    else if o.sd_stage > n.sd_stage then n :: merge_stages older ntl
    else n :: merge_stages otl ntl (* newer wins the stage *)

let merge_demand older newer =
  let merged =
    List.filter (fun (v, _) -> not (List.mem_assoc v newer)) older @ newer
  in
  List.sort (fun (a, _) (b, _) -> compare a b) merged

let compose older newer =
  if newer.cd_full then newer
  else
    {
      cd_base = older.cd_base;
      cd_target = newer.cd_target;
      cd_nstages = newer.cd_nstages;
      cd_full = older.cd_full;
      cd_stages = merge_stages older.cd_stages newer.cd_stages;
      cd_demand = merge_demand older.cd_demand newer.cd_demand;
    }

(* ------------------------------ stats ------------------------------- *)

type stats = { chains : int; nodes : int; actions : int; stages_total : int }

let stats (t : t) =
  {
    chains = Imap.cardinal t.chains;
    nodes = t.ctx.nnodes - 1;
    actions = t.ctx.nacts;
    stages_total = Imap.fold (fun _ e acc -> acc + e.en_nstages) t.chains 0;
  }

let prepared_version (p : prepared) = p.p_version
