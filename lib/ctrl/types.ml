type chain_spec = {
  spec_name : string;
  ingress_attachment : string;
  egress_attachment : string;
  vnfs : int list;
  traffic : float;
}

type route = { element_sites : int array; weight : float }


type chain_record = {
  cr_spec : chain_spec;
  cr_routes : route list;
  cr_ingress : int;
  cr_egress : int;
}

type persisted = Chain_record of chain_record | Chain_index of int list

type stage_delta = { sd_stage : int; sd_tr : (int * int * float) array }

type chain_delta = {
  cd_base : int;
  cd_target : int;
  cd_nstages : int;
  cd_full : bool;
  cd_stages : stage_delta list;
  cd_demand : (int * (int * float) list) list;
}

type chain_telemetry = { ct_chain : int; ct_pkts : int array; ct_bytes : int array }

type msg =
  | Chain_request of { chain : int; spec : chain_spec }
  | Prepare of {
      txid : int;
      chain : int;
      delta : chain_delta;
      spec : chain_spec;
    }
  | Vote of { txid : int; participant : string; accept : bool; rejected : (int * int) list }
  | Commit of { txid : int }
  | Abort of { txid : int }
  | Decision_ack of { txid : int; participant : string }
  | Route_update of {
      chain : int;
      egress_label : int;
      spec : chain_spec;
      routes : route list;
      version : int;
    }
  | Route_delta of {
      chain : int;
      egress_label : int;
      spec : chain_spec;
      delta : chain_delta;
    }
  | Instance_info of { vnf : int; site : int; instances : (int * float) list }
  | Forwarder_info of { vnf : int; site : int; forwarders : (int * float) list }
  | Edge_info of { site : int; edge : int; forwarder : int }
  | Site_telemetry of {
      site : int;
      epoch : int;
      down_links : int list;
      table : int * int * int;
      chains : chain_telemetry array;
    }
  | Load_advert of {
      site : int;
      epoch : int;
      loads : (int * float) list;
      fwd_weights : (int * (int * float) list) list;
      down_links : int list;
    }

let chain_request_topic = "/gsb/chain_requests"
let votes_topic = "/gsb/votes/replies"
let participant_topic ~name = Printf.sprintf "/ctl/%s" name
let route_topic ~chain = Printf.sprintf "/chain/%d/route" chain

let instances_topic ~chain ~egress ~vnf ~site =
  Printf.sprintf "/c%d/e%d/vnf_%d/site_%d_instances" chain egress vnf site

let forwarders_topic ~chain ~egress ~vnf ~site =
  Printf.sprintf "/c%d/e%d/vnf_%d/site_%d_forwarders" chain egress vnf site

let site_telemetry_topic ~site = Printf.sprintf "/telemetry/s%d" site
let advert_topic ~site = Printf.sprintf "/advert/s%d" site

let pp_msg ppf = function
  | Chain_request { chain; spec } -> Format.fprintf ppf "Chain_request(%d, %s)" chain spec.spec_name
  | Prepare { txid; chain; delta = d; _ } ->
    Format.fprintf ppf "Prepare(tx%d chain%d delta v%d->v%d %s%d stages)" txid chain
      d.cd_base d.cd_target
      (if d.cd_full then "full " else "")
      (List.length d.cd_stages)
  | Vote { txid; participant; accept; rejected } ->
    Format.fprintf ppf "Vote(tx%d %s %b, %d rejected)" txid participant accept
      (List.length rejected)
  | Commit { txid } -> Format.fprintf ppf "Commit(tx%d)" txid
  | Abort { txid } -> Format.fprintf ppf "Abort(tx%d)" txid
  | Decision_ack { txid; participant } ->
    Format.fprintf ppf "Decision_ack(tx%d %s)" txid participant
  | Route_update { chain; routes; version; _ } ->
    Format.fprintf ppf "Route_update(chain%d %d routes v%d)" chain (List.length routes)
      version
  | Route_delta { chain; delta; _ } ->
    Format.fprintf ppf "Route_delta(chain%d v%d->v%d %s%d stages)" chain delta.cd_base
      delta.cd_target
      (if delta.cd_full then "full " else "")
      (List.length delta.cd_stages)
  | Instance_info { vnf; site; instances } ->
    Format.fprintf ppf "Instance_info(vnf%d site%d %d insts)" vnf site (List.length instances)
  | Forwarder_info { vnf; site; forwarders } ->
    Format.fprintf ppf "Forwarder_info(vnf%d site%d %d fwds)" vnf site (List.length forwarders)
  | Edge_info { site; edge; forwarder } ->
    Format.fprintf ppf "Edge_info(site%d edge%d fwd%d)" site edge forwarder
  | Site_telemetry { site; epoch; down_links; table = tc, tk, _; chains } ->
    Format.fprintf ppf "Site_telemetry(site%d epoch%d %d chains, %d down, %d/%d flows)"
      site epoch (Array.length chains) (List.length down_links) tc tk
  | Load_advert { site; epoch; loads; fwd_weights; down_links } ->
    Format.fprintf ppf "Load_advert(site%d epoch%d %d vnfs, %d fwd sets, %d down)"
      site epoch (List.length loads) (List.length fwd_weights)
      (List.length down_links)

(* -------------------------- wire-size model ------------------------- *)

(* Deterministic byte model for bus accounting: a small fixed header per
   message plus a flat encoding of every payload field (4 B ints/ids,
   8 B floats, strings verbatim). The absolute numbers are nominal; what
   matters is that sizes scale with payload cardinality, so rollout
   bytes-on-wire comparisons (full route sets vs. compiled deltas)
   measure real payload churn.

   Telemetry is the one varint field: a window's per-stage packet and
   byte deltas are small and mostly zero, so a Site_telemetry batch
   prices each as a zigzag varint (7 payload bits per byte, so 0..63
   cost 1 B), and each chain entry as a 4 B chain id plus a varint
   stage count. The site-level fields (site, epoch, table snapshot,
   down links) are flat and paid once per batch. *)

let header_bytes = 24
let spec_size s = String.length s.spec_name + String.length s.ingress_attachment
                  + String.length s.egress_attachment + (4 * List.length s.vnfs) + 12
let route_size r = (4 * Array.length r.element_sites) + 8
let routes_size rs = List.fold_left (fun a r -> a + route_size r) 4 rs
let pair_list_size l = (12 * List.length l) + 4

(* Bytes of the zigzag LEB128 encoding of [v]: the sign moves to bit 0,
   then 7 bits per byte. *)
let varint_size v =
  let rec go z n = if z land lnot 0x7f = 0 then n else go (z lsr 7) (n + 1) in
  go ((v lsl 1) lxor (v asr 62)) 1

let counts_size a = Array.fold_left (fun n v -> n + varint_size v) 0 a

let chain_telemetry_size e =
  4 + varint_size (Array.length e.ct_pkts) + counts_size e.ct_pkts + counts_size e.ct_bytes

(* A delta Prepare once also carried an empty route list (4 B count) and
   an option tag (1 B). Both are gone from the message but not from its
   price: bus latencies, and every figure built on them, assume it. *)
let prepare_legacy_bytes = 5

let delta_size d =
  let stages =
    List.fold_left (fun a sd -> a + 8 + (16 * Array.length sd.sd_tr)) 4 d.cd_stages
  in
  let demand =
    List.fold_left (fun a (_, sites) -> a + 8 + (12 * List.length sites)) 4 d.cd_demand
  in
  16 + stages + demand

let msg_size = function
  | Chain_request { spec; _ } -> header_bytes + 4 + spec_size spec
  | Prepare { delta; spec; _ } ->
    header_bytes + 8 + spec_size spec + prepare_legacy_bytes + delta_size delta
  | Vote { participant; rejected; _ } ->
    header_bytes + String.length participant + 5 + (8 * List.length rejected)
  | Commit _ | Abort _ -> header_bytes + 4
  | Decision_ack { participant; _ } -> header_bytes + 4 + String.length participant
  | Route_update { spec; routes; _ } ->
    header_bytes + 12 + spec_size spec + routes_size routes
  | Route_delta { spec; delta; _ } -> header_bytes + 8 + spec_size spec + delta_size delta
  | Instance_info { instances; _ } -> header_bytes + 8 + pair_list_size instances
  | Forwarder_info { forwarders; _ } -> header_bytes + 8 + pair_list_size forwarders
  | Edge_info _ -> header_bytes + 12
  | Site_telemetry { down_links; chains; _ } ->
    (* site, epoch, table (3 ints), down-link count, entry count *)
    header_bytes + 28 + (4 * List.length down_links)
    + Array.fold_left (fun a e -> a + chain_telemetry_size e) 0 chains
  | Load_advert { loads; fwd_weights; down_links; _ } ->
    header_bytes + 8 + pair_list_size loads
    + List.fold_left (fun a (_, ws) -> a + 4 + pair_list_size ws) 4 fwd_weights
    + (4 * List.length down_links)

(* Bucket topics into a bounded family set so per-topic byte counters stay
   O(families), not O(chains): "/chain/17/route" and "/chain/40271/route"
   land in the same "/chain/*/route" bucket. *)
let topic_class topic =
  let has_prefix p = String.length topic >= String.length p
                     && String.sub topic 0 (String.length p) = p in
  if topic = chain_request_topic then topic
  else if has_prefix "/gsb/votes/" then "/gsb/votes/*"
  else if has_prefix "/ctl/" then "/ctl/*"
  else if has_prefix "/telemetry/" then "/telemetry/*"
  else if has_prefix "/advert/" then "/advert/*"
  else if topic = "/chains" then topic
  else if has_prefix "/chain/" then "/chain/*/route"
  else if has_prefix "/c" then
    (* per-chain info topics: /c<id>/e<id>/vnf_<v>/site_<s>_{instances,forwarders}
       and /c<id>/e<id>/edge_forwarders *)
    if String.ends_with ~suffix:"/edge_forwarders" topic then "/c*/e*/edge_forwarders"
    else if String.ends_with ~suffix:"_instances" topic then "/c*/e*/vnf_*/site_*_instances"
    else if String.ends_with ~suffix:"_forwarders" topic then "/c*/e*/vnf_*/site_*_forwarders"
    else topic
  else topic
