(* The dataplane workloads: one [Scenario] catalog entry driven through the
   SB-DP-routed stress shard that [Scenario.run_dataplane] builds, with
   the packet inputs generated ahead of the timed region.

   The scenario shape (backbone, chains, demand process) comes from the
   config's seed; the packets themselves (every flow's 5-tuple, and the
   balancers' draws) come from the run's input seed. *)

module Sc = Sb_adapt.Scenario
module Model = Sb_core.Model
module Routing = Sb_core.Routing
module Shard = Sb_dataplane.Shard
module Tg = Sb_dataplane.Traffic_gen
module Packet = Sb_dataplane.Packet
module W = Sb_net.Workload

type fabric = {
  shard : Shard.t;
  fwd : int array;  (** forwarder per model site *)
  entry : (int * int * int) option array;
      (** per chain: (ingress edge, chain label, egress label) *)
}

(* [Scenario]'s stress fabric from public calls: one forwarder and edge
   per site, and each chain's highest-weight SB-DP path installed stage by
   stage (same-site hops target the instance or edge directly, cross-site
   hops relay through the destination forwarder's rx rule). *)
let build_fabric ~seed model =
  let routing = Sb_core.Dp_routing.solve model in
  let shard = Shard.create ~seed ~lanes:1 () in
  let nsites = Model.num_sites model in
  let site = Array.init nsites (fun s -> Shard.add_site shard (Printf.sprintf "site%d" s)) in
  let fwd = Array.map (fun s -> Shard.add_forwarder shard ~site:s) site in
  let edge =
    Array.init nsites (fun s -> Shard.add_edge shard ~site:site.(s) ~forwarder:fwd.(s))
  in
  let insts = Hashtbl.create 64 in
  let inst_at vnf s =
    match Hashtbl.find_opt insts (vnf, s) with
    | Some id -> id
    | None ->
      let id = Shard.add_vnf_instance shard ~vnf ~site:site.(s) ~forwarder:fwd.(s) () in
      Hashtbl.add insts (vnf, s) id;
      id
  in
  let site_of_node nd =
    match Model.site_of_node model nd with
    | Some s -> s
    | None -> invalid_arg "Dp.build_fabric: route visits a siteless node"
  in
  let n = Model.num_chains model in
  let entry = Array.make n None in
  for c = 0 to n - 1 do
    match Routing.decompose_paths routing ~chain:c with
    | [] -> ()
    | paths ->
      let nodes, _ =
        List.fold_left
          (fun (bn, bw) (nd, w) -> if w > bw then (nd, w) else (bn, bw))
          ([||], -1.) paths
      in
      let sites_of = Array.map site_of_node nodes in
      let vnfs = Model.chain_vnfs model c in
      let len = Array.length nodes in
      let egress_label = sites_of.(len - 1) in
      let chain_label = c + 1 in
      for z = 0 to len - 2 do
        let src = sites_of.(z) and dst = sites_of.(z + 1) in
        let targets =
          if z = len - 2 then [ (Shard.Edge edge.(egress_label), 1.0) ]
          else [ (Shard.Vnf_instance (inst_at vnfs.(z) dst), 1.0) ]
        in
        if src = dst then
          Shard.install_rule shard ~forwarder:fwd.(src) ~chain_label ~egress_label ~stage:z
            targets
        else begin
          Shard.install_rule shard ~forwarder:fwd.(src) ~chain_label ~egress_label ~stage:z
            [ (Shard.Forwarder fwd.(dst), 1.0) ];
          Shard.install_rx_rule shard ~forwarder:fwd.(dst) ~chain_label ~egress_label
            ~stage:z targets
        end
      done;
      entry.(c) <- Some (edge.(sites_of.(0)), chain_label, egress_label)
  done;
  { shard; fwd; entry }

type state = {
  cfg : Sc.config;
  w : W.t;
  fab : fabric;
  gens : Tg.t array;
}

let setup cfg ~entry ~input_seed =
  let model = Sc.backbone25 cfg in
  let w =
    match List.find_opt (fun (n, _, _) -> n = entry) (Sc.catalog cfg model) with
    | Some (_, w, None) -> w
    | Some (_, _, Some _) -> invalid_arg ("Dp.setup: " ^ entry ^ " carries faults")
    | None -> invalid_arg ("Dp.setup: no catalog entry " ^ entry)
  in
  let fab = build_fabric ~seed:input_seed model in
  let n = Model.num_chains model in
  let per_chain_window = max 1 (cfg.Sc.window / max 1 n) in
  let gens =
    Array.init n (fun c ->
        Tg.create_stream ~seed:(input_seed + (1_000_003 * (c + 1))) ~window:per_chain_window ())
  in
  { cfg; w; fab; gens }

(* One tick's packets, in [Scenario.run_dataplane]'s order: per chain, the
   first packets of the flows churn opened, then its share of the
   sustained traffic. *)
type buffer = {
  mutable tuples : Packet.five_tuple array;
  mutable sizes : int array;
  mutable len : int;
  seg_start : int array;  (** per chain *)
  seg_new : int array;  (** first packets at the head of the segment *)
  seg_stop : int array;
}

let no_tuple = { Packet.src_ip = 0; dst_ip = 0; proto = 0; src_port = 0; dst_port = 0 }

let make_buffer n =
  {
    tuples = Array.make 4096 no_tuple;
    sizes = Array.make 4096 0;
    len = 0;
    seg_start = Array.make n 0;
    seg_new = Array.make n 0;
    seg_stop = Array.make n 0;
  }

let push b tp size =
  if b.len = Array.length b.tuples then begin
    let cap = 2 * b.len in
    let t' = Array.make cap no_tuple and s' = Array.make cap 0 in
    Array.blit b.tuples 0 t' 0 b.len;
    Array.blit b.sizes 0 s' 0 b.len;
    b.tuples <- t';
    b.sizes <- s'
  end;
  b.tuples.(b.len) <- tp;
  b.sizes.(b.len) <- size;
  b.len <- b.len + 1

let generate st b dem ~tick =
  let cfg = st.cfg in
  W.demand_into st.w ~tick dem;
  let tot = Array.fold_left ( +. ) 0. dem in
  let churn_rate = W.churn st.w ~tick in
  b.len <- 0;
  Array.iteri
    (fun c entry ->
      b.seg_start.(c) <- b.len;
      (match entry with
      | Some _ when dem.(c) > 0. ->
        let g = st.gens.(c) in
        let turnover =
          int_of_float (Float.round (churn_rate *. float_of_int (Tg.live_flows g)))
        in
        Tg.churn g ~opened:(fun tp -> push b tp 64) turnover;
        b.seg_new.(c) <- b.len - b.seg_start.(c);
        let npkts =
          if tot <= 0. then 0
          else
            int_of_float (Float.round (dem.(c) /. tot *. float_of_int cfg.Sc.pkts_per_tick))
        in
        for _ = 1 to npkts do
          let tp, size = Tg.next g in
          push b tp size
        done
      | _ -> b.seg_new.(c) <- 0);
      b.seg_stop.(c) <- b.len)
    st.fab.entry

let drive_range shard b ~ingress ~chain_label ~egress_label lo hi =
  let ok = ref 0 in
  for i = lo to hi - 1 do
    if Shard.drive shard ~ingress ~chain_label ~egress_label ~size:b.sizes.(i) b.tuples.(i)
    then incr ok
  done;
  !ok

let now = Trace.now_ns
let secs = Trace.secs

let setup_only cfg ~entry ~input_seed =
  let t0 = now () in
  let st = setup cfg ~entry ~input_seed in
  let dt = secs (now () - t0) in
  Shard.shutdown st.fab.shard;
  dt

(* One pass: set up, then every tick generates its packets (untimed),
   drives them and sweeps idle flows (timed), and reads occupancy
   (untimed). With [tr], the same body also records spans. *)
let pass ?tr cfg ~entry ~input_seed =
  let t_setup = now () in
  let st = setup cfg ~entry ~input_seed in
  let setup_s = secs (now () - t_setup) in
  let shard = st.fab.shard in
  let n = Array.length st.gens in
  let b = make_buffer n in
  let dem = Array.make n 0. in
  let span_id name = match tr with Some t -> Trace.name t name | None -> 0 in
  let id_run = span_id "run"
  and id_gen = span_id "traffic_gen"
  and id_new = span_id "shard.drive_new"
  and id_drive = span_id "shard.drive"
  and id_expire = span_id "shard.expire"
  and id_scan = span_id "flow_table.scan" in
  let enter id step = match tr with Some t -> Trace.enter t id ~step | None -> 0 in
  let leave i = match tr with Some t -> Trace.leave t i | None -> () in
  let packets = ref 0 and delivered = ref 0 and expired = ref 0 in
  let new_pkts = ref 0 and peak = ref 0 and load_peak = ref 0. and probe_peak = ref 0 in
  let final = ref 0 in
  let steps = ref [] in
  let minor = ref 0. in
  let gc0 = Gc.quick_stat () in
  let t_body = now () in
  let root = enter id_run 0 in
  for e = 0 to cfg.Sc.ticks - 1 do
    let s = enter id_gen e in
    generate st b dem ~tick:e;
    leave s;
    let m0 = Gc.minor_words () in
    let t0 = now () in
    Shard.set_clock shard e;
    Array.iteri
      (fun c entry ->
        match entry with
        | None -> ()
        | Some (ingress, chain_label, egress_label) ->
          let lo = b.seg_start.(c) and hi = b.seg_stop.(c) in
          let mid = lo + b.seg_new.(c) in
          if mid > lo then begin
            let s = enter id_new e in
            delivered := !delivered + drive_range shard b ~ingress ~chain_label ~egress_label lo mid;
            leave s
          end;
          if hi > mid then begin
            let s = enter id_drive e in
            delivered := !delivered + drive_range shard b ~ingress ~chain_label ~egress_label mid hi;
            leave s
          end;
          new_pkts := !new_pkts + (mid - lo);
          packets := !packets + (hi - lo))
      st.fab.entry;
    if e >= cfg.Sc.idle_ticks then begin
      let s = enter id_expire e in
      expired := !expired + Shard.expire_flows shard ~idle_before:(e - cfg.Sc.idle_ticks + 1);
      leave s
    end;
    let dt = now () - t0 in
    minor := !minor +. (Gc.minor_words () -. m0);
    steps := (b.len, secs dt) :: !steps;
    let s = enter id_scan e in
    let occ = ref 0 in
    Array.iter
      (fun f ->
        let count, cap, probe = Shard.flow_table_stats shard ~forwarder:f in
        occ := !occ + count;
        if cap > 0 then load_peak := Float.max !load_peak (float_of_int count /. float_of_int cap);
        if probe > !probe_peak then probe_peak := probe)
      st.fab.fwd;
    leave s;
    if !occ > !peak then peak := !occ;
    final := !occ
  done;
  leave root;
  let body_s = secs (now () - t_body) in
  let heap_peak_mb = Report.heap_peak_mb () in
  let gc1 = Gc.quick_stat () in
  Shard.shutdown shard;
  let distinct = Array.fold_left (fun a g -> a + Tg.distinct_flows g) 0 st.gens in
  let live = Array.fold_left (fun a g -> a + Tg.live_flows g) 0 st.gens in
  let unroutable = Array.fold_left (fun a e -> if e = None then a + 1 else a) 0 st.fab.entry in
  let f = float_of_int in
  let exact =
    [
      ("satisfied_frac", f !delivered /. f (max 1 !packets), "ratio");
      ("packets", f !packets, "count");
      ("delivered", f !delivered, "count");
      ("first_packets", f !new_pkts, "count");
      ("distinct_flows", f distinct, "count");
      ("live_flows", f live, "count");
      ("peak_entries", f !peak, "count");
      ("final_entries", f !final, "count");
      ("expired", f !expired, "count");
      ("unroutable", f unroutable, "count");
    ]
  in
  let layers =
    match tr with
    | None -> []
    | Some _ ->
      [
        ("shard.drive.pkts", f (!packets - !new_pkts));
        ("shard.drive_new.pkts", f !new_pkts);
        ("shard.expire.evicted", f !expired);
        ("flow_table.entries_peak", f !peak);
        ("flow_table.load_peak", !load_peak);
        ("flow_table.max_probe_peak", f !probe_peak);
        ("gc.minor_words_per_pkt", !minor /. f (max 1 !packets));
        ( "gc.major_collections",
          f (gc1.Gc.major_collections - gc0.Gc.major_collections) );
      ]
  in
  {
    Report.setup_s = [ setup_s ];
    steps = List.rev !steps;
    body_s;
    heap_peak_mb;
    ops = !packets;
    failed = !packets - !delivered;
    exact;
    checks = [ ("delivered equals offered", !delivered = !packets) ];
    layers;
  }

(* The counts [Scenario.run_one] reports for the same catalog entry must
   come out of [pass] unchanged when both use the same seed. *)
let check_against_scenario cfg ~entry =
  let model = Sc.backbone25 cfg in
  let item = List.find (fun (n, _, _) -> n = entry) (Sc.catalog cfg model) in
  let m = Sc.run_one cfg model item in
  let p = pass cfg ~entry ~input_seed:cfg.Sc.seed in
  let get k =
    match List.find_opt (fun (n, _, _) -> n = k) p.Report.exact with
    | Some (_, v, _) -> int_of_float v
    | None -> -1
  in
  get "packets" = m.Sc.m_packets
  && get "delivered" = m.Sc.m_delivered
  && get "distinct_flows" = m.Sc.m_distinct_flows
  && get "live_flows" = m.Sc.m_live_flows
  && get "peak_entries" = m.Sc.m_peak_entries
  && get "final_entries" = m.Sc.m_final_entries
  && get "expired" = m.Sc.m_expired
