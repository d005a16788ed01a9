(* The seed (hashtable-based) fabric implementation, kept verbatim as the
   behavioural oracle for the packed data plane in {!Plane}: the
   equivalence property in [test_dataplane.ml] drives identical traffic
   and churn through both and asserts identical traces, errors, flow-table
   sizes and counters. Types are equated with {!Plane}'s so results
   compare directly. *)

type endpoint = Plane.endpoint = Edge of int | Forwarder of int | Vnf_instance of int

type flow_store = Plane.flow_store = Local | Replicated of int

type counter = { mutable packets : int; mutable bytes : int }

type fwd_state = {
  f_site : int;
  rules : (int * int * int, (endpoint * float) list) Hashtbl.t;
  rules_rx : (int * int * int, (endpoint * float) list) Hashtbl.t;
  (* receiver-side override: consulted for packets arriving from a peer
     forwarder, so a mid-relay packet is delivered into the local element
     instead of being balanced onward (which would visit a third
     forwarder in the same stage and collide in the role-keyed DHT) *)
  table : endpoint Flow_table.t;
  mutable f_alive : bool;
  counters : (int * int * int, counter) Hashtbl.t;
  (* per (chain, egress, stage): forward traffic this forwarder delivered
     into the stage's destination element *)
}

type edge_state = { e_site : int; e_fwd : int }

type inst_state = {
  i_vnf : int;
  i_site : int;
  i_fwd : int;
  mutable i_weight : float;
  mutable i_alive : bool;
}

type t = {
  rng : Sb_util.Rng.t;
  sites : (int, string) Hashtbl.t;
  fwds : (int, fwd_state) Hashtbl.t;
  edges : (int, edge_state) Hashtbl.t;
  insts : (int, inst_state) Hashtbl.t;
  dht : endpoint Flow_table.entry Dht_table.t option;
  (* Replicated mode (Section 5.3): connection state lives in a DHT spread
     over the forwarder nodes instead of per-forwarder tables. *)
  mutable next_id : int;
}

let create ?(seed = 0xF0) ?(flow_store = Local) () =
  {
    rng = Sb_util.Rng.create seed;
    sites = Hashtbl.create 8;
    fwds = Hashtbl.create 8;
    edges = Hashtbl.create 8;
    insts = Hashtbl.create 8;
    dht =
      (match flow_store with
      | Local -> None
      | Replicated k -> Some (Dht_table.create ~replication:k ()));
    next_id = 0;
  }

let fresh t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let add_site t name =
  let id = fresh t in
  Hashtbl.replace t.sites id name;
  id

let add_forwarder t ~site =
  if not (Hashtbl.mem t.sites site) then invalid_arg "Fabric.add_forwarder: unknown site";
  let id = fresh t in
  Hashtbl.replace t.fwds id
    {
      f_site = site;
      rules = Hashtbl.create 8;
      rules_rx = Hashtbl.create 8;
      table = Flow_table.create ();
      f_alive = true;
      counters = Hashtbl.create 8;
    };
  (match t.dht with Some d -> Dht_table.add_node d id | None -> ());
  id

let get_fwd t id =
  match Hashtbl.find_opt t.fwds id with
  | Some f -> f
  | None -> invalid_arg "Fabric: unknown forwarder"

let add_edge t ~site ~forwarder =
  ignore (get_fwd t forwarder);
  let id = fresh t in
  Hashtbl.replace t.edges id { e_site = site; e_fwd = forwarder };
  id

let add_vnf_instance t ~vnf ~site ~forwarder ?(weight = 1.0) () =
  ignore (get_fwd t forwarder);
  let id = fresh t in
  Hashtbl.replace t.insts id
    { i_vnf = vnf; i_site = site; i_fwd = forwarder; i_weight = weight; i_alive = true };
  id

let get_inst t id =
  match Hashtbl.find_opt t.insts id with
  | Some i -> i
  | None -> invalid_arg "Fabric: unknown VNF instance"

let instance_vnf t id = (get_inst t id).i_vnf
let instance_site t id = (get_inst t id).i_site
let instance_weight t id = (get_inst t id).i_weight
let set_instance_weight t id w = (get_inst t id).i_weight <- w
let instance_alive t id = (get_inst t id).i_alive
let fail_instance t id = (get_inst t id).i_alive <- false
let forwarder_site t id = (get_fwd t id).f_site

let site_name t id =
  match Hashtbl.find_opt t.sites id with
  | Some n -> n
  | None -> invalid_arg "Fabric: unknown site"

let attached_instances t ~forwarder =
  Hashtbl.fold (fun id i acc -> if i.i_fwd = forwarder then id :: acc else acc) t.insts []
  |> List.sort compare

let forwarder_published_weight t fwd vnf =
  Hashtbl.fold
    (fun _ i acc -> if i.i_fwd = fwd && i.i_vnf = vnf then acc +. i.i_weight else acc)
    t.insts 0.

let install_rule t ~forwarder ~chain_label ~egress_label ~stage targets =
  let f = get_fwd t forwarder in
  Hashtbl.replace f.rules (chain_label, egress_label, stage) targets

let install_rx_rule t ~forwarder ~chain_label ~egress_label ~stage targets =
  let f = get_fwd t forwarder in
  Hashtbl.replace f.rules_rx (chain_label, egress_label, stage) targets

let rule t ~forwarder ~chain_label ~egress_label ~stage =
  Hashtbl.find_opt (get_fwd t forwarder).rules (chain_label, egress_label, stage)

let flow_table_size t ~forwarder = Flow_table.size (get_fwd t forwarder).table

type error = Plane.error =
  | No_rule of { forwarder : int; stage : int }
  | No_reverse_entry of { forwarder : int; stage : int }
  | Instance_down of int
  | Forwarder_down of int
  | Ttl_exceeded
  | Not_an_edge

let pp_error = Plane.pp_error

(* Flow-state access: per-forwarder table in Local mode, the shared
   forwarder DHT in Replicated mode. In the DHT, state is keyed by the
   logical ROLE a forwarder plays for the stage (sender side = the
   forwarder adjacent to the emitting element, receiver side = the one
   fronting the receiving element) rather than by forwarder identity, so a
   replacement forwarder finds a dead peer's entries. The role is encoded
   into the key's stage field. *)
let dht_key (key : Flow_table.key) ~side =
  { key with Flow_table.stage = (2 * key.Flow_table.stage) + side }

let state_find t (f : fwd_state) ~side key =
  match t.dht with
  | None -> Flow_table.find f.table key
  | Some d -> Dht_table.get d ~key:(dht_key key ~side)

let state_insert t (f : fwd_state) ~side key entry =
  match t.dht with
  | None -> Flow_table.insert f.table key entry
  | Some d -> Dht_table.put d ~key:(dht_key key ~side) entry

(* Reverse traversal must recover which role this forwarder played: prefer
   the receiver-side entry unless it names this forwarder as the sender it
   received from (then this forwarder was the sender). *)
let state_find_reverse t (f : fwd_state) fwd_id key =
  match t.dht with
  | None -> Flow_table.find f.table key
  | Some d -> (
    match Dht_table.get d ~key:(dht_key key ~side:1) with
    | Some e when e.Flow_table.prev <> Forwarder fwd_id -> Some e
    | _ -> Dht_table.get d ~key:(dht_key key ~side:0))

let forwarder_alive t id = (get_fwd t id).f_alive

let fail_forwarder t id =
  let f = get_fwd t id in
  if f.f_alive then begin
    f.f_alive <- false;
    match t.dht with
    | Some d -> Dht_table.remove_node d id (* surviving replicas re-replicate *)
    | None -> () (* its flow table dies with it *)
  end

let revive_forwarder t id =
  let f = get_fwd t id in
  if not f.f_alive then begin
    f.f_alive <- true;
    (* The crash lost whatever local state the forwarder held. *)
    Flow_table.clear f.table;
    match t.dht with
    | Some d -> Dht_table.add_node d id (* rejoins empty; the ring re-replicates onto it *)
    | None -> ()
  end

let revive_instance t id = (get_inst t id).i_alive <- true

let reattach_edge t edge ~forwarder =
  ignore (get_fwd t forwarder);
  match Hashtbl.find_opt t.edges edge with
  | Some e -> Hashtbl.replace t.edges edge { e with e_fwd = forwarder }
  | None -> invalid_arg "Fabric.reattach_edge: unknown edge"

let reattach_instance t inst ~forwarder =
  ignore (get_fwd t forwarder);
  let i = get_inst t inst in
  Hashtbl.replace t.insts inst { i with i_fwd = forwarder }

let max_ttl = 64

let key_of (p : Packet.t) : Flow_table.key =
  {
    chain_label = p.chain_label;
    egress_label = p.egress_label;
    stage = p.stage;
    flow = p.flow;
  }

let rec forward_at t fwd_id (p : Packet.t) ~from trace ttl =
  if ttl <= 0 then Error Ttl_exceeded
  else if not (get_fwd t fwd_id).f_alive then Error (Forwarder_down fwd_id)
  else begin
    let f = get_fwd t fwd_id in
    let trace = Forwarder fwd_id :: trace in
    let key = key_of p in
    let side = match from with Forwarder _ -> 1 | Edge _ | Vnf_instance _ -> 0 in
    let next =
      match state_find t f ~side key with
      | Some e -> Ok e.Flow_table.next
      | None -> (
        let rkey = (p.chain_label, p.egress_label, p.stage) in
        let rule =
          (* A packet handed over by a peer forwarder is mid-relay: prefer
             the receiver-side rule (local delivery) when one is installed. *)
          match (if side = 1 then Hashtbl.find_opt f.rules_rx rkey else None) with
          | Some ((_ :: _) as rx) -> Some rx
          | Some [] | None -> Hashtbl.find_opt f.rules rkey
        in
        match rule with
        | None | Some [] -> Error (No_rule { forwarder = fwd_id; stage = p.stage })
        | Some rule ->
          let chosen = Balancer.pick t.rng rule in
          state_insert t f ~side key { Flow_table.next = chosen; prev = from };
          Ok chosen)
    in
    (* Measurement (Section 4.1: stage traffic "obtained based on
       measurements by Switchboard forwarders"): count a packet once per
       stage, at the forwarder that delivers it into the stage's
       destination element. *)
    (match next with
    | Ok (Edge _) | Ok (Vnf_instance _) ->
      let ckey = (p.chain_label, p.egress_label, p.stage) in
      let c =
        match Hashtbl.find_opt f.counters ckey with
        | Some c -> c
        | None ->
          let c = { packets = 0; bytes = 0 } in
          Hashtbl.replace f.counters ckey c;
          c
      in
      c.packets <- c.packets + 1;
      c.bytes <- c.bytes + p.size
    | Ok (Forwarder _) | Error _ -> ());
    match next with
    | Error e -> Error e
    | Ok (Edge e) -> Ok (List.rev (Edge e :: trace))
    | Ok (Forwarder f') ->
      forward_at t f' p ~from:(Forwarder fwd_id) trace (ttl - 1)
    | Ok (Vnf_instance i) ->
      (* The VNF processes the packet and hands it to its own proxy
         forwarder; the packet is now one stage further along. A dead
         instance blackholes the connection — the flow-table entry pins it
         (Section 5.3's caveat; the DHT flow table is the remedy). *)
      let inst = get_inst t i in
      if not inst.i_alive then Error (Instance_down i)
      else
        forward_at t inst.i_fwd
          { p with stage = p.stage + 1 }
          ~from:(Vnf_instance i)
          (Vnf_instance i :: trace)
          (ttl - 1)
  end

let send_forward t ~ingress ~chain_label ~egress_label ?size flow =
  match Hashtbl.find_opt t.edges ingress with
  | None -> Error Not_an_edge
  | Some e ->
    let p = Packet.forward ~chain_label ~egress_label ?size flow in
    forward_at t e.e_fwd p ~from:(Edge ingress) [ Edge ingress ] max_ttl

let rec reverse_at t fwd_id (p : Packet.t) trace ttl =
  if ttl <= 0 then Error Ttl_exceeded
  else if not (get_fwd t fwd_id).f_alive then Error (Forwarder_down fwd_id)
  else begin
    let f = get_fwd t fwd_id in
    let trace = Forwarder fwd_id :: trace in
    match state_find_reverse t f fwd_id (key_of p) with
    | None -> Error (No_reverse_entry { forwarder = fwd_id; stage = p.stage })
    | Some e -> (
      match e.Flow_table.prev with
      | Edge ingress -> Ok (List.rev (Edge ingress :: trace))
      | Forwarder f' -> reverse_at t f' p trace (ttl - 1)
      | Vnf_instance i ->
        let inst = get_inst t i in
        reverse_at t inst.i_fwd
          { p with stage = p.stage - 1 }
          (Vnf_instance i :: trace)
          (ttl - 1))
  end

let send_reverse t ~egress ~chain_label ~egress_label ?(size = 500) flow =
  match Hashtbl.find_opt t.edges egress with
  | None -> Error Not_an_edge
  | Some e ->
    (* The reply's stage is the connection's last stage: the highest stage
       recorded for the connection (probed in the DHT in Replicated mode). *)
    let f = get_fwd t e.e_fwd in
    let last_stage =
      match t.dht with
      | None ->
        List.fold_left
          (fun acc ((k : Flow_table.key), _) ->
            if k.chain_label = chain_label && k.egress_label = egress_label && k.flow = flow
            then max acc k.stage
            else acc)
          (-1)
          (Flow_table.entries f.table)
      | Some d ->
        (* Probe both role-encoded keys per stage. *)
        let best = ref (-1) in
        for stage = 0 to 32 do
          let base = { Flow_table.chain_label; egress_label; stage; flow } in
          if
            Dht_table.get d ~key:(dht_key base ~side:0) <> None
            || Dht_table.get d ~key:(dht_key base ~side:1) <> None
          then best := stage
        done;
        !best
    in
    if last_stage < 0 then Error (No_reverse_entry { forwarder = e.e_fwd; stage = -1 })
    else begin
      let p =
        Packet.reverse_of
          (Packet.forward ~chain_label ~egress_label ~size flow)
          ~last_stage
      in
      reverse_at t e.e_fwd p [ Edge egress ] max_ttl
    end

let vnfs_in_trace t trace =
  List.filter_map
    (function Vnf_instance i -> Some (instance_vnf t i) | Edge _ | Forwarder _ -> None)
    trace

let instances_in_trace trace =
  List.filter_map
    (function Vnf_instance i -> Some i | Edge _ | Forwarder _ -> None)
    trace

let end_flow t flow =
  Hashtbl.iter (fun _ f -> Flow_table.remove_flow f.table flow) t.fwds;
  match t.dht with
  | Some d -> Dht_table.remove_flow d flow
  | None -> ()

let transfer_flows t ~from_instance ~to_instance =
  let src = get_inst t from_instance in
  let dst = get_inst t to_instance in
  if src.i_vnf <> dst.i_vnf then
    invalid_arg "Fabric.transfer_flows: instances run different VNFs";
  let rewritten = ref 0 in
  let rewrite hop =
    if hop = Vnf_instance from_instance then begin
      incr rewritten;
      Vnf_instance to_instance
    end
    else hop
  in
  Hashtbl.iter
    (fun _ f ->
      List.iter
        (fun (key, (entry : endpoint Flow_table.entry)) ->
          let next = rewrite entry.Flow_table.next in
          let prev = rewrite entry.Flow_table.prev in
          if next != entry.Flow_table.next || prev != entry.Flow_table.prev then
            Flow_table.insert f.table key { Flow_table.next; prev })
        (Flow_table.entries f.table))
    t.fwds;
  (* Connections processed by the VNF continue from the NEW instance's
     forwarder, which needs the onward (and return) entries the old
     instance's forwarder held. Copy entries of the old forwarder to the
     new one where they stemmed from the moved instance's traffic. *)
  if src.i_fwd <> dst.i_fwd then begin
    let old_f = get_fwd t src.i_fwd in
    let new_f = get_fwd t dst.i_fwd in
    List.iter
      (fun (key, (entry : endpoint Flow_table.entry)) ->
        if
          entry.Flow_table.prev = Vnf_instance to_instance
          || entry.Flow_table.next = Vnf_instance to_instance
        then Flow_table.insert new_f.table key entry)
      (Flow_table.entries old_f.table)
  end;
  !rewritten

let stage_counters t ~chain_label ~egress_label ~stage =
  Hashtbl.fold
    (fun _ f (pkts, bytes) ->
      match Hashtbl.find_opt f.counters (chain_label, egress_label, stage) with
      | Some c -> (pkts + c.packets, bytes + c.bytes)
      | None -> (pkts, bytes))
    t.fwds (0, 0)

let site_stage_counters t ~site ~chain_label ~egress_label ~stage =
  Hashtbl.fold
    (fun _ f (pkts, bytes) ->
      if f.f_site <> site then (pkts, bytes)
      else
        match Hashtbl.find_opt f.counters (chain_label, egress_label, stage) with
        | Some c -> (pkts + c.packets, bytes + c.bytes)
        | None -> (pkts, bytes))
    t.fwds (0, 0)

let reset_counters t =
  Hashtbl.iter (fun _ f -> Hashtbl.reset f.counters) t.fwds
