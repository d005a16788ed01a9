module Packet = Sb_dataplane.Packet
module Flow_table = Sb_dataplane.Flow_table
module Balancer = Sb_dataplane.Balancer
module Plane = Sb_dataplane.Plane
module Ovs = Sb_dataplane.Ovs_model
module Dpdk = Sb_dataplane.Dpdk_model

(* ----------------------------- packets ----------------------------- *)

let tuple1 =
  { Packet.src_ip = 1; dst_ip = 2; proto = 6; src_port = 1000; dst_port = 80 }

let test_reverse_tuple () =
  let r = Packet.reverse_tuple tuple1 in
  Alcotest.(check int) "src swapped" 2 r.Packet.src_ip;
  Alcotest.(check int) "ports swapped" 80 r.Packet.src_port;
  Alcotest.(check bool) "involution" true (Packet.reverse_tuple r = tuple1)

let test_canonical () =
  let a = Packet.canonical tuple1 in
  let b = Packet.canonical (Packet.reverse_tuple tuple1) in
  Alcotest.(check bool) "canonical orientation-independent" true (a = b)

let test_forward_packet () =
  let p = Packet.forward ~chain_label:3 ~egress_label:7 tuple1 in
  Alcotest.(check int) "stage 0" 0 p.Packet.stage;
  Alcotest.(check bool) "forward" true (p.Packet.direction = Packet.Forward);
  let r = Packet.reverse_of p ~last_stage:4 in
  Alcotest.(check int) "reverse stage" 4 r.Packet.stage;
  Alcotest.(check bool) "reverse dir" true (r.Packet.direction = Packet.Reverse)

(* ---------------------------- flow table --------------------------- *)

let key stage flow = { Flow_table.chain_label = 1; egress_label = 2; stage; flow }

let test_flow_table_roundtrip () =
  let t = Flow_table.create () in
  Flow_table.insert t (key 0 tuple1) { Flow_table.next = "a"; prev = "b" };
  (match Flow_table.find t (key 0 tuple1) with
  | Some e ->
    Alcotest.(check string) "next" "a" e.Flow_table.next;
    Alcotest.(check string) "prev" "b" e.Flow_table.prev
  | None -> Alcotest.fail "entry missing");
  Alcotest.(check bool) "different stage misses" true (Flow_table.find t (key 1 tuple1) = None)

let test_flow_table_remove_flow () =
  let t = Flow_table.create () in
  let other = { tuple1 with Packet.src_ip = 99 } in
  Flow_table.insert t (key 0 tuple1) { Flow_table.next = 1; prev = 2 };
  Flow_table.insert t (key 1 tuple1) { Flow_table.next = 3; prev = 4 };
  Flow_table.insert t (key 0 other) { Flow_table.next = 5; prev = 6 };
  Flow_table.remove_flow t tuple1;
  Alcotest.(check int) "only other connection survives" 1 (Flow_table.size t);
  Alcotest.(check bool) "other intact" true (Flow_table.find t (key 0 other) <> None)

let test_flow_table_overwrite () =
  let t = Flow_table.create () in
  Flow_table.insert t (key 0 tuple1) { Flow_table.next = 1; prev = 1 };
  Flow_table.insert t (key 0 tuple1) { Flow_table.next = 2; prev = 2 };
  Alcotest.(check int) "single entry" 1 (Flow_table.size t)

(* ----------------------------- balancer ---------------------------- *)

let test_pick_respects_weights () =
  let rng = Sb_util.Rng.create 3 in
  let counts = Hashtbl.create 4 in
  for _ = 1 to 30_000 do
    let hop = Balancer.pick rng [ ("a", 1.); ("b", 3.) ] in
    Hashtbl.replace counts hop (1 + try Hashtbl.find counts hop with Not_found -> 0)
  done;
  let a = float_of_int (Hashtbl.find counts "a") in
  let b = float_of_int (Hashtbl.find counts "b") in
  Alcotest.(check bool) "3:1 ratio" true (b /. a > 2.6 && b /. a < 3.4)

let test_normalize () =
  let r = Balancer.normalize [ ("a", 2.); ("b", 2.); ("c", 0.); ("d", -1.) ] in
  Alcotest.(check int) "drops non-positive" 2 (List.length r);
  List.iter (fun (_, w) -> Alcotest.(check (float 1e-9)) "half" 0.5 w) r

let test_compose_hierarchical () =
  (* Site fractions 0.75 / 0.25; site 0 has two instances 1:1, site 1 one. *)
  let per_site = function
    | 0 -> [ ("i0", 1.); ("i1", 1.) ]
    | 1 -> [ ("i2", 5.) ]
    | _ -> []
  in
  let rule = Balancer.compose ~site_fraction:[ (0, 0.75); (1, 0.25) ] ~per_site in
  let w hop = List.assoc hop rule in
  Alcotest.(check (float 1e-9)) "i0 = 0.75 * 0.5" 0.375 (w "i0");
  Alcotest.(check (float 1e-9)) "i1" 0.375 (w "i1");
  Alcotest.(check (float 1e-9)) "i2 = 0.25 (normalized within site)" 0.25 (w "i2")

(* qcheck: random two-level weight hierarchies (site fractions x in-site
   instance weights, zeros included). The empirical pick distribution
   converges to the composed weights; zero-weight targets are never
   picked, and a lone positive target gets everything. *)
let prop_balancer_hierarchical_convergence =
  QCheck.Test.make ~name:"hierarchical balancer converges to weights" ~count:50
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Sb_util.Rng.create seed in
      let weight () = [| 0.; 0.; 0.25; 0.5; 1.; 2. |].(Sb_util.Rng.int rng 6) in
      let nsites = 1 + Sb_util.Rng.int rng 4 in
      let site_fraction = List.init nsites (fun s -> (s, weight ())) in
      let in_site =
        Array.init nsites (fun s ->
            List.init (1 + Sb_util.Rng.int rng 3) (fun i -> ((s, i), weight ())))
      in
      let rule = Balancer.compose ~site_fraction ~per_site:(fun s -> in_site.(s)) in
      let total = List.fold_left (fun a (_, w) -> a +. w) 0. rule in
      QCheck.assume (total > 0.);
      let n = 20_000 in
      let counts = Hashtbl.create 16 in
      for _ = 1 to n do
        let h = Balancer.pick rng rule in
        Hashtbl.replace counts h (1 + try Hashtbl.find counts h with Not_found -> 0)
      done;
      List.for_all
        (fun (h, w) ->
          let freq =
            float_of_int (try Hashtbl.find counts h with Not_found -> 0)
            /. float_of_int n
          in
          if w <= 0. then freq = 0.
          else Float.abs (freq -. (w /. total)) <= 0.02)
        rule)

(* ------------------------------ fabric ----------------------------- *)

(* Chain with two VNFs (G at site A with 2 instances, O at site B with 2),
   ingress edge at A, egress edge at B. *)
type testbed = {
  fab : Plane.t;
  ein : int;
  eout : int;
  g1 : int;
  g2 : int;
  o1 : int;
  o2 : int;
  fa : int;
  fb : int;
}

let chain_label = 1
let egress_label = 3

let build_testbed ?(seed = 7) () =
  let fab = Plane.create ~seed () in
  let sa = Plane.add_site fab "A" in
  let sb = Plane.add_site fab "B" in
  let fa = Plane.add_forwarder fab ~site:sa in
  let fb = Plane.add_forwarder fab ~site:sb in
  let ein = Plane.add_edge fab ~site:sa ~forwarder:fa in
  let eout = Plane.add_edge fab ~site:sb ~forwarder:fb in
  let g1 = Plane.add_vnf_instance fab ~vnf:100 ~site:sa ~forwarder:fa () in
  let g2 = Plane.add_vnf_instance fab ~vnf:100 ~site:sa ~forwarder:fa () in
  let o1 = Plane.add_vnf_instance fab ~vnf:200 ~site:sb ~forwarder:fb () in
  let o2 = Plane.add_vnf_instance fab ~vnf:200 ~site:sb ~forwarder:fb () in
  Plane.install_rule fab ~forwarder:fa ~chain_label ~egress_label ~stage:0
    [ (Plane.Vnf_instance g1, 0.5); (Plane.Vnf_instance g2, 0.5) ];
  Plane.install_rule fab ~forwarder:fa ~chain_label ~egress_label ~stage:1
    [ (Plane.Forwarder fb, 1.0) ];
  Plane.install_rule fab ~forwarder:fb ~chain_label ~egress_label ~stage:1
    [ (Plane.Vnf_instance o1, 0.5); (Plane.Vnf_instance o2, 0.5) ];
  Plane.install_rule fab ~forwarder:fb ~chain_label ~egress_label ~stage:2
    [ (Plane.Edge eout, 1.0) ];
  { fab; ein; eout; g1; g2; o1; o2; fa; fb }

let send_ok tb tuple =
  match Plane.send_forward tb.fab ~ingress:tb.ein ~chain_label ~egress_label tuple with
  | Ok trace -> trace
  | Error e -> Alcotest.failf "forward failed: %a" Plane.pp_error e

let send_rev_ok tb tuple =
  match Plane.send_reverse tb.fab ~egress:tb.eout ~chain_label ~egress_label tuple with
  | Ok trace -> trace
  | Error e -> Alcotest.failf "reverse failed: %a" Plane.pp_error e

let test_conformity () =
  let tb = build_testbed () in
  let rng = Sb_util.Rng.create 1 in
  for _ = 1 to 50 do
    let trace = send_ok tb (Packet.random_tuple rng) in
    Alcotest.(check (list int)) "VNF order is the chain order" [ 100; 200 ]
      (Plane.vnfs_in_trace tb.fab trace)
  done

let test_trace_endpoints () =
  let tb = build_testbed () in
  let trace = send_ok tb tuple1 in
  (match trace with
  | Plane.Edge e :: _ -> Alcotest.(check int) "starts at ingress" tb.ein e
  | _ -> Alcotest.fail "trace must start at an edge");
  match List.rev trace with
  | Plane.Edge e :: _ -> Alcotest.(check int) "ends at egress" tb.eout e
  | _ -> Alcotest.fail "trace must end at an edge"

let test_flow_affinity () =
  let tb = build_testbed () in
  let rng = Sb_util.Rng.create 2 in
  for _ = 1 to 30 do
    let tuple = Packet.random_tuple rng in
    let first = Plane.instances_in_trace (send_ok tb tuple) in
    for _ = 1 to 5 do
      let again = Plane.instances_in_trace (send_ok tb tuple) in
      Alcotest.(check (list int)) "same instances for same connection" first again
    done
  done

let test_symmetric_return () =
  let tb = build_testbed () in
  let rng = Sb_util.Rng.create 3 in
  for _ = 1 to 30 do
    let tuple = Packet.random_tuple rng in
    let fwd = Plane.instances_in_trace (send_ok tb tuple) in
    let rev = Plane.instances_in_trace (send_rev_ok tb tuple) in
    Alcotest.(check (list int)) "reverse visits same instances reversed"
      (List.rev fwd) rev
  done

let test_reverse_without_forward_fails () =
  let tb = build_testbed () in
  match Plane.send_reverse tb.fab ~egress:tb.eout ~chain_label ~egress_label tuple1 with
  | Error (Plane.No_reverse_entry _) -> ()
  | Ok _ -> Alcotest.fail "reverse should fail without forward state"
  | Error e -> Alcotest.failf "unexpected error: %a" Plane.pp_error e

let test_load_balancing_spreads () =
  let tb = build_testbed () in
  let rng = Sb_util.Rng.create 4 in
  let counts = Hashtbl.create 4 in
  for _ = 1 to 400 do
    let trace = send_ok tb (Packet.random_tuple rng) in
    List.iter
      (fun i -> Hashtbl.replace counts i (1 + try Hashtbl.find counts i with Not_found -> 0))
      (Plane.instances_in_trace trace)
  done;
  List.iter
    (fun i ->
      let n = try Hashtbl.find counts i with Not_found -> 0 in
      Alcotest.(check bool) (Printf.sprintf "instance %d used" i) true (n > 100))
    [ tb.g1; tb.g2; tb.o1; tb.o2 ]

let test_weight_skew_respected () =
  let tb = build_testbed () in
  (* Reweight G's instances 9:1; existing flows unaffected, new flows skewed. *)
  Plane.install_rule tb.fab ~forwarder:tb.fa ~chain_label ~egress_label ~stage:0
    [ (Plane.Vnf_instance tb.g1, 0.9); (Plane.Vnf_instance tb.g2, 0.1) ];
  let rng = Sb_util.Rng.create 5 in
  let g1_count = ref 0 and g2_count = ref 0 in
  for _ = 1 to 1000 do
    let trace = send_ok tb (Packet.random_tuple rng) in
    List.iter
      (fun i ->
        if i = tb.g1 then incr g1_count else if i = tb.g2 then incr g2_count)
      (Plane.instances_in_trace trace)
  done;
  let ratio = float_of_int !g1_count /. float_of_int (max 1 !g2_count) in
  Alcotest.(check bool) "9:1 within tolerance" true (ratio > 6. && ratio < 14.)

let test_affinity_survives_weight_change () =
  let tb = build_testbed () in
  let rng = Sb_util.Rng.create 6 in
  let tuples = List.init 20 (fun _ -> Packet.random_tuple rng) in
  let before = List.map (fun t -> Plane.instances_in_trace (send_ok tb t)) tuples in
  (* Shift all new traffic to g2 only. *)
  Plane.install_rule tb.fab ~forwarder:tb.fa ~chain_label ~egress_label ~stage:0
    [ (Plane.Vnf_instance tb.g2, 1.0) ];
  let after = List.map (fun t -> Plane.instances_in_trace (send_ok tb t)) tuples in
  List.iter2
    (fun b a -> Alcotest.(check (list int)) "existing connections keep their path" b a)
    before after;
  (* A new connection after the change must use g2. *)
  let fresh = Packet.random_tuple rng in
  let trace = Plane.instances_in_trace (send_ok tb fresh) in
  Alcotest.(check bool) "new connection follows new rule" true (List.mem tb.g2 trace);
  Alcotest.(check bool) "new connection avoids g1" false (List.mem tb.g1 trace)

let test_symmetric_return_after_route_change () =
  let tb = build_testbed () in
  let rng = Sb_util.Rng.create 7 in
  let tuple = Packet.random_tuple rng in
  let fwd = Plane.instances_in_trace (send_ok tb tuple) in
  Plane.install_rule tb.fab ~forwarder:tb.fa ~chain_label ~egress_label ~stage:0
    [ (Plane.Vnf_instance tb.g2, 1.0) ];
  let rev = Plane.instances_in_trace (send_rev_ok tb tuple) in
  Alcotest.(check (list int)) "reverse still symmetric after rule change"
    (List.rev fwd) rev

let test_flow_table_sizes () =
  let tb = build_testbed () in
  let rng = Sb_util.Rng.create 8 in
  for _ = 1 to 10 do
    ignore (send_ok tb (Packet.random_tuple rng))
  done;
  (* Per connection: fa stores stage 0 (receiver+sender merged) and stage 1;
     fb stores stage 1 and stage 2. *)
  Alcotest.(check int) "fa entries" 20 (Plane.flow_table_size tb.fab ~forwarder:tb.fa);
  Alcotest.(check int) "fb entries" 20 (Plane.flow_table_size tb.fab ~forwarder:tb.fb)

let test_end_flow_clears_state () =
  let tb = build_testbed () in
  ignore (send_ok tb tuple1);
  Plane.end_flow tb.fab tuple1;
  Alcotest.(check int) "fa cleared" 0 (Plane.flow_table_size tb.fab ~forwarder:tb.fa);
  match Plane.send_reverse tb.fab ~egress:tb.eout ~chain_label ~egress_label tuple1 with
  | Error (Plane.No_reverse_entry _) -> ()
  | _ -> Alcotest.fail "reverse after teardown should fail"

let test_no_rule_error () =
  let tb = build_testbed () in
  match Plane.send_forward tb.fab ~ingress:tb.ein ~chain_label:99 ~egress_label tuple1 with
  | Error (Plane.No_rule _) -> ()
  | _ -> Alcotest.fail "unknown chain should have no rule"

(* An empty [apply_delta] patch retracts a rule: [rule] is [None] again, a
   second retraction is a no-op, and a packet that needs the rule fails
   as for a never-installed one until a non-empty patch reinstalls it. *)
let test_apply_delta_retracts () =
  let tb = build_testbed () in
  let patch rp_targets =
    [ { Plane.rp_chain = chain_label; rp_egress = egress_label; rp_stage = 1; rp_rx = false;
        rp_targets } ]
  in
  Alcotest.(check int) "retracted" 1 (Plane.apply_delta tb.fab ~forwarder:tb.fb (patch []));
  Alcotest.(check int) "idempotent" 0 (Plane.apply_delta tb.fab ~forwarder:tb.fb (patch []));
  Alcotest.(check bool) "rule gone" true
    (Plane.rule tb.fab ~forwarder:tb.fb ~chain_label ~egress_label ~stage:1 = None);
  (match Plane.send_forward tb.fab ~ingress:tb.ein ~chain_label ~egress_label tuple1 with
  | Error (Plane.No_rule { stage = 1; _ }) -> ()
  | _ -> Alcotest.fail "a retracted rule must forward nothing");
  ignore (Plane.apply_delta tb.fab ~forwarder:tb.fb (patch [ (Plane.Vnf_instance tb.o1, 1.) ]));
  ignore (send_ok tb tuple1)

let test_rule_loop_detected () =
  let fab = Plane.create () in
  let s = Plane.add_site fab "A" in
  let f1 = Plane.add_forwarder fab ~site:s in
  let f2 = Plane.add_forwarder fab ~site:s in
  let e = Plane.add_edge fab ~site:s ~forwarder:f1 in
  Plane.install_rule fab ~forwarder:f1 ~chain_label:1 ~egress_label:1 ~stage:0
    [ (Plane.Forwarder f2, 1.) ];
  Plane.install_rule fab ~forwarder:f2 ~chain_label:1 ~egress_label:1 ~stage:0
    [ (Plane.Forwarder f1, 1.) ];
  match Plane.send_forward fab ~ingress:e ~chain_label:1 ~egress_label:1 tuple1 with
  | Error Plane.Ttl_exceeded -> ()
  | _ -> Alcotest.fail "expected TTL loop detection"

let test_published_weight () =
  let tb = build_testbed () in
  Alcotest.(check (float 1e-9)) "fa publishes G weight 2" 2.
    (Plane.forwarder_published_weight tb.fab tb.fa 100);
  Plane.set_instance_weight tb.fab tb.g1 3.;
  Alcotest.(check (float 1e-9)) "updated weight" 4.
    (Plane.forwarder_published_weight tb.fab tb.fa 100);
  Alcotest.(check (float 1e-9)) "other vnf zero" 0.
    (Plane.forwarder_published_weight tb.fab tb.fa 200)

let test_same_site_chain () =
  (* Whole chain on one site, one forwarder: ingress, two VNFs, egress. *)
  let fab = Plane.create () in
  let s = Plane.add_site fab "A" in
  let f = Plane.add_forwarder fab ~site:s in
  let ein = Plane.add_edge fab ~site:s ~forwarder:f in
  let eout = Plane.add_edge fab ~site:s ~forwarder:f in
  let v1 = Plane.add_vnf_instance fab ~vnf:1 ~site:s ~forwarder:f () in
  let v2 = Plane.add_vnf_instance fab ~vnf:2 ~site:s ~forwarder:f () in
  Plane.install_rule fab ~forwarder:f ~chain_label:1 ~egress_label:1 ~stage:0
    [ (Plane.Vnf_instance v1, 1.) ];
  Plane.install_rule fab ~forwarder:f ~chain_label:1 ~egress_label:1 ~stage:1
    [ (Plane.Vnf_instance v2, 1.) ];
  Plane.install_rule fab ~forwarder:f ~chain_label:1 ~egress_label:1 ~stage:2
    [ (Plane.Edge eout, 1.) ];
  (match Plane.send_forward fab ~ingress:ein ~chain_label:1 ~egress_label:1 tuple1 with
  | Ok trace ->
    Alcotest.(check (list int)) "conformity" [ 1; 2 ] (Plane.vnfs_in_trace fab trace)
  | Error e -> Alcotest.failf "forward failed: %a" Plane.pp_error e);
  match Plane.send_reverse fab ~egress:eout ~chain_label:1 ~egress_label:1 tuple1 with
  | Ok trace ->
    Alcotest.(check (list int)) "reverse conformity" [ 2; 1 ] (Plane.vnfs_in_trace fab trace)
  | Error e -> Alcotest.failf "reverse failed: %a" Plane.pp_error e


let test_instance_failure_breaks_pinned_flows () =
  let tb = build_testbed () in
  let rng = Sb_util.Rng.create 31 in
  (* Establish connections until some are pinned to g1. *)
  let tuples = List.init 30 (fun _ -> Packet.random_tuple rng) in
  let pinned_to_g1 =
    List.filter
      (fun tuple -> List.mem tb.g1 (Plane.instances_in_trace (send_ok tb tuple)))
      tuples
  in
  Alcotest.(check bool) "some connections pinned to g1" true (pinned_to_g1 <> []);
  Plane.fail_instance tb.fab tb.g1;
  Alcotest.(check bool) "marked dead" false (Plane.instance_alive tb.fab tb.g1);
  (* Pinned connections now fail (the paper's affinity-violation caveat)... *)
  List.iter
    (fun tuple ->
      match Plane.send_forward tb.fab ~ingress:tb.ein ~chain_label ~egress_label tuple with
      | Error (Plane.Instance_down i) -> Alcotest.(check int) "down instance" tb.g1 i
      | Ok _ -> Alcotest.fail "pinned connection should hit the dead instance"
      | Error e -> Alcotest.failf "unexpected error: %a" Plane.pp_error e)
    pinned_to_g1;
  (* ...until the controller updates the rule; then NEW connections avoid
     g1, and torn-down old connections recover on re-establishment. *)
  Plane.install_rule tb.fab ~forwarder:tb.fa ~chain_label ~egress_label ~stage:0
    [ (Plane.Vnf_instance tb.g2, 1.0) ];
  List.iter (fun tuple -> Plane.end_flow tb.fab tuple) pinned_to_g1;
  List.iter
    (fun tuple ->
      let trace = send_ok tb tuple in
      Alcotest.(check bool) "re-established on g2" true
        (List.mem tb.g2 (Plane.instances_in_trace trace)))
    pinned_to_g1


let test_transfer_flows_preserves_affinity () =
  let tb = build_testbed () in
  let rng = Sb_util.Rng.create 41 in
  let tuples = List.init 20 (fun _ -> Packet.random_tuple rng) in
  List.iter (fun t -> ignore (send_ok tb t)) tuples;
  let pinned_to_g1 =
    List.filter (fun t -> List.mem tb.g1 (Plane.instances_in_trace (send_ok tb t))) tuples
  in
  Alcotest.(check bool) "have connections on g1" true (pinned_to_g1 <> []);
  (* Migrate g1's state to g2 (OpenNF-style), then kill g1. *)
  let rewritten = Plane.transfer_flows tb.fab ~from_instance:tb.g1 ~to_instance:tb.g2 in
  Alcotest.(check bool) "entries rewritten" true (rewritten > 0);
  Plane.fail_instance tb.fab tb.g1;
  List.iter
    (fun tuple ->
      (* Forward traffic keeps flowing, now through g2, same everywhere else. *)
      let trace = send_ok tb tuple in
      let insts = Plane.instances_in_trace trace in
      Alcotest.(check bool) "uses g2" true (List.mem tb.g2 insts);
      Alcotest.(check bool) "avoids dead g1" false (List.mem tb.g1 insts);
      (* Symmetric return also survives the migration. *)
      let rev = Plane.instances_in_trace (send_rev_ok tb tuple) in
      Alcotest.(check (list int)) "reverse symmetric post-transfer" (List.rev insts) rev)
    pinned_to_g1

let test_transfer_flows_rejects_cross_vnf () =
  let tb = build_testbed () in
  Alcotest.check_raises "different VNF types"
    (Invalid_argument "Plane.transfer_flows: instances run different VNFs") (fun () ->
      ignore (Plane.transfer_flows tb.fab ~from_instance:tb.g1 ~to_instance:tb.o1))

let test_transfer_flows_other_connections_untouched () =
  let tb = build_testbed () in
  let rng = Sb_util.Rng.create 43 in
  let tuples = List.init 20 (fun _ -> Packet.random_tuple rng) in
  List.iter (fun t -> ignore (send_ok tb t)) tuples;
  let on_g2 =
    List.filter (fun t -> List.mem tb.g2 (Plane.instances_in_trace (send_ok tb t))) tuples
  in
  let before = List.map (fun t -> Plane.instances_in_trace (send_ok tb t)) on_g2 in
  ignore (Plane.transfer_flows tb.fab ~from_instance:tb.g1 ~to_instance:tb.g2);
  let after = List.map (fun t -> Plane.instances_in_trace (send_ok tb t)) on_g2 in
  List.iter2
    (fun b a -> Alcotest.(check (list int)) "g2 connections unchanged" b a)
    before after


let test_transfer_flows_across_forwarders () =
  (* Same VNF on two different forwarders at one site: migration must also
     move the onward/return entries to the new instance's forwarder. *)
  let fab = Plane.create ~seed:11 () in
  let sa = Plane.add_site fab "A" in
  let fa1 = Plane.add_forwarder fab ~site:sa in
  let fa2 = Plane.add_forwarder fab ~site:sa in
  let ein = Plane.add_edge fab ~site:sa ~forwarder:fa1 in
  let eout = Plane.add_edge fab ~site:sa ~forwarder:fa1 in
  let g1 = Plane.add_vnf_instance fab ~vnf:5 ~site:sa ~forwarder:fa1 () in
  let g2 = Plane.add_vnf_instance fab ~vnf:5 ~site:sa ~forwarder:fa2 () in
  Plane.install_rule fab ~forwarder:fa1 ~chain_label:1 ~egress_label:1 ~stage:0
    [ (Plane.Vnf_instance g1, 1.0) ];
  Plane.install_rule fab ~forwarder:fa1 ~chain_label:1 ~egress_label:1 ~stage:1
    [ (Plane.Edge eout, 1.0) ];
  Plane.install_rule fab ~forwarder:fa2 ~chain_label:1 ~egress_label:1 ~stage:1
    [ (Plane.Edge eout, 1.0) ];
  let rng = Sb_util.Rng.create 44 in
  let tuples = List.init 5 (fun _ -> Packet.random_tuple rng) in
  List.iter
    (fun t ->
      match Plane.send_forward fab ~ingress:ein ~chain_label:1 ~egress_label:1 t with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "establish: %a" Plane.pp_error e)
    tuples;
  ignore (Plane.transfer_flows fab ~from_instance:g1 ~to_instance:g2);
  Plane.fail_instance fab g1;
  List.iter
    (fun t ->
      match Plane.send_forward fab ~ingress:ein ~chain_label:1 ~egress_label:1 t with
      | Ok trace ->
        Alcotest.(check (list int)) "flows via g2 on the other forwarder" [ g2 ]
          (Plane.instances_in_trace trace)
      | Error e -> Alcotest.failf "post-transfer: %a" Plane.pp_error e)
    tuples


(* --------------- forwarder failure: Local vs Replicated ------------ *)

(* One site, two forwarders. The edge and instance g1 hang off F1; g2 off
   F2. After F1 dies, the edge and g1 are reattached to F2. With local
   flow tables the connection state died with F1; with the DHT flow store
   (Section 5.3) every connection keeps its instances. *)
let forwarder_failure_scenario ~flow_store ~seed =
  let fab = Plane.create ~seed ~flow_store () in
  let sa = Plane.add_site fab "A" in
  let f1 = Plane.add_forwarder fab ~site:sa in
  let f2 = Plane.add_forwarder fab ~site:sa in
  let ein = Plane.add_edge fab ~site:sa ~forwarder:f1 in
  let eout = Plane.add_edge fab ~site:sa ~forwarder:f1 in
  let g1 = Plane.add_vnf_instance fab ~vnf:5 ~site:sa ~forwarder:f1 () in
  let g2 = Plane.add_vnf_instance fab ~vnf:5 ~site:sa ~forwarder:f2 () in
  List.iter
    (fun fwd ->
      Plane.install_rule fab ~forwarder:fwd ~chain_label:1 ~egress_label:1 ~stage:0
        [ (Plane.Vnf_instance g1, 0.5); (Plane.Vnf_instance g2, 0.5) ];
      Plane.install_rule fab ~forwarder:fwd ~chain_label:1 ~egress_label:1 ~stage:1
        [ (Plane.Edge eout, 1.0) ])
    [ f1; f2 ];
  let rng = Sb_util.Rng.create (seed + 1) in
  let tuples = List.init 30 (fun _ -> Packet.random_tuple rng) in
  let establish tuple =
    match Plane.send_forward fab ~ingress:ein ~chain_label:1 ~egress_label:1 tuple with
    | Ok trace -> Plane.instances_in_trace trace
    | Error e -> Alcotest.failf "establish: %a" Plane.pp_error e
  in
  let before = List.map establish tuples in
  Plane.fail_forwarder fab f1;
  Plane.reattach_edge fab ein ~forwarder:f2;
  Plane.reattach_edge fab eout ~forwarder:f2;
  Plane.reattach_instance fab g1 ~forwarder:f2;
  let after = List.map establish tuples in
  (fab, ein, eout, tuples, before, after)

let test_forwarder_failure_local_loses_affinity () =
  let _, _, _, _, before, after =
    forwarder_failure_scenario ~flow_store:Plane.Local ~seed:51
  in
  (* The flow state died with F1: the rebalanced choices differ for at
     least one connection (deterministic under the fixed seed). *)
  Alcotest.(check bool) "some connection changed instances" true
    (List.exists2 (fun b a -> b <> a) before after)

let test_forwarder_failure_replicated_keeps_affinity () =
  let fab, _, eout, tuples, before, after =
    forwarder_failure_scenario ~flow_store:(Plane.Replicated 2) ~seed:51
  in
  List.iter2
    (fun b a -> Alcotest.(check (list int)) "affinity survives forwarder death" b a)
    before after;
  (* Symmetric return also survives: reverse packets follow the stored
     prev hops out of the replicated state. *)
  List.iter2
    (fun tuple fwd_insts ->
      match Plane.send_reverse fab ~egress:eout ~chain_label:1 ~egress_label:1 tuple with
      | Ok trace ->
        Alcotest.(check (list int)) "symmetric return survives"
          (List.rev fwd_insts)
          (Plane.instances_in_trace trace)
      | Error e -> Alcotest.failf "reverse after failover: %a" Plane.pp_error e)
    tuples before

let test_forwarder_down_error () =
  let fab = Plane.create () in
  let sa = Plane.add_site fab "A" in
  let f1 = Plane.add_forwarder fab ~site:sa in
  let ein = Plane.add_edge fab ~site:sa ~forwarder:f1 in
  Plane.fail_forwarder fab f1;
  Alcotest.(check bool) "marked dead" false (Plane.forwarder_alive fab f1);
  match Plane.send_forward fab ~ingress:ein ~chain_label:1 ~egress_label:1 tuple1 with
  | Error (Plane.Forwarder_down f) -> Alcotest.(check int) "f1 reported" f1 f
  | _ -> Alcotest.fail "expected Forwarder_down"

let test_replicated_zero_rejected () =
  let msg = "Plane.create: replication must be positive" in
  Alcotest.check_raises "Plane.create" (Invalid_argument msg) (fun () ->
      ignore (Plane.create ~flow_store:(Plane.Replicated 0) ()));
  Alcotest.check_raises "Shard.create" (Invalid_argument msg) (fun () ->
      ignore (Sb_dataplane.Shard.create ~flow_store:(Plane.Replicated 0) ()))

(* A one-forwarder plane with one single-stage chain (ingress -> egress
   at the same forwarder), for the flow-table layout tests below. *)
let one_forwarder_plane () =
  let fab = Plane.create ~seed:7 () in
  let sa = Plane.add_site fab "A" in
  let fa = Plane.add_forwarder fab ~site:sa in
  let ein = Plane.add_edge fab ~site:sa ~forwarder:fa in
  let eout = Plane.add_edge fab ~site:sa ~forwarder:fa in
  Plane.install_rule fab ~forwarder:fa ~chain_label:1 ~egress_label:0 ~stage:0
    [ (Plane.Edge eout, 1.0) ];
  (fab, fa, ein)

let distinct_tuple i =
  { Packet.src_ip = i; dst_ip = 7; proto = 6; src_port = 1024 + (i land 0xFFFF); dst_port = 80 }

(* Machine-independent footprint of the flow tables: the words reachable
   from a one-forwarder plane holding 100,000 connections (a 262,144-cell
   table and its heads map). The packed layout stores a cell in 32 B and
   a heads slot in 12 B, against 48 B and 16 B as six [int array]s and
   two more: 1,443,323 words here, against 2,098,827 for that layout. The
   pin allows 10 % over the packed count. *)
let test_flow_table_footprint () =
  let fab, fa, ein = one_forwarder_plane () in
  for i = 0 to 99_999 do
    if not (Plane.drive fab ~ingress:ein ~chain_label:1 ~egress_label:0 ~size:64 (distinct_tuple i))
    then Alcotest.fail "flow not delivered"
  done;
  Alcotest.(check int) "one cell per flow" 100_000 (Plane.flow_table_size fab ~forwarder:fa);
  let words = Obj.reachable_words (Obj.repr fab) in
  if words > 1_443_323 * 11 / 10 then
    Alcotest.failf "plane reaches %d words, over 1.1 x the pinned 1,443,323" words

(* A packet whose (chain, egress, stage) no rule names fails with
   [No_rule] and leaves nothing behind: 100,000 distinct unknown chain
   labels keep the plane within 1.1 x its words before the flood (a
   packet path that interned every triple it saw grew it from 1,737 to
   1,312,147 words). *)
let test_unknown_labels_leave_no_state () =
  let fab, _, ein = one_forwarder_plane () in
  let before = Obj.reachable_words (Obj.repr fab) in
  for i = 0 to 99_999 do
    match
      Plane.send_forward fab ~ingress:ein ~chain_label:(1_000 + i) ~egress_label:0 ~size:64
        (distinct_tuple i)
    with
    | Error (Plane.No_rule _) -> ()
    | Ok _ -> Alcotest.fail "unknown label delivered"
    | Error e -> Alcotest.failf "unknown label: %a" Plane.pp_error e
  done;
  let after = Obj.reachable_words (Obj.repr fab) in
  if after * 10 > before * 11 then
    Alcotest.failf "plane grew from %d to %d words on unknown labels" before after

(* The clock is stamped into 4-byte cells, so [set_clock] takes only
   [0, 2^31): outside it raises and leaves the clock as it was. Both ends
   of the range stamp and expire exactly. *)
let test_clock_range () =
  let fab, fa, ein = one_forwarder_plane () in
  let msg = Invalid_argument "Plane.set_clock: clock outside [0, 2^31)" in
  let top = (1 lsl 31) - 1 in
  Alcotest.check_raises "negative" msg (fun () -> Plane.set_clock fab (-1));
  Alcotest.check_raises "2^31" msg (fun () -> Plane.set_clock fab (1 lsl 31));
  Alcotest.check_raises "max_int" msg (fun () -> Plane.set_clock fab max_int);
  Alcotest.check_raises "min_int" msg (fun () -> Plane.set_clock fab min_int);
  Alcotest.(check int) "clock unchanged" 0 (Plane.clock fab);
  let drive i =
    ignore (Plane.drive fab ~ingress:ein ~chain_label:1 ~egress_label:0 ~size:64 (distinct_tuple i))
  in
  drive 0;
  Plane.set_clock fab top;
  drive 1;
  Alcotest.(check int) "clock at the top" top (Plane.clock fab);
  Alcotest.(check int) "idle since 0" 1 (Plane.expire_flows fab ~idle_before:1);
  Alcotest.(check int) "fresh at 2^31 - 1" 0 (Plane.expire_flows fab ~idle_before:top);
  Alcotest.(check int) "idle before 2^31" 1 (Plane.expire_flows fab ~idle_before:(top + 1));
  Alcotest.(check int) "table empty" 0 (Plane.flow_table_size fab ~forwarder:fa);
  let shard = Sb_dataplane.Shard.create ~lanes:1 () in
  Alcotest.check_raises "Shard.set_clock" msg (fun () ->
      Sb_dataplane.Shard.set_clock shard (1 lsl 31));
  Sb_dataplane.Shard.shutdown shard

(* A rule target is stored in a 4-byte cell once a packet takes it, so
   ids outside [0, 2^29) are rejected when the rule is installed. *)
let test_rule_target_range () =
  let fab, fa, _ = one_forwarder_plane () in
  let msg = Invalid_argument "Plane: rule target id out of range" in
  let install e () =
    Plane.install_rule fab ~forwarder:fa ~chain_label:2 ~egress_label:0 ~stage:0 [ (e, 1.0) ]
  in
  Alcotest.check_raises "edge 2^29" msg (install (Plane.Edge (1 lsl 29)));
  Alcotest.check_raises "instance -1" msg (install (Plane.Vnf_instance (-1)));
  Alcotest.check_raises "delta" msg (fun () ->
      ignore
        (Plane.apply_delta fab ~forwarder:fa
           [
             {
               Plane.rp_chain = 2;
               rp_egress = 0;
               rp_stage = 0;
               rp_rx = false;
               rp_targets = [ (Plane.Forwarder (1 lsl 29), 1.0) ];
             };
           ]));
  Alcotest.(check bool) "nothing installed" true
    (Plane.rule fab ~forwarder:fa ~chain_label:2 ~egress_label:0 ~stage:0 = None)

let test_replicated_mode_basic_safety () =
  (* The standard 2-site testbed invariants hold under the DHT store too. *)
  let fab = Plane.create ~seed:7 ~flow_store:(Plane.Replicated 2) () in
  let sa = Plane.add_site fab "A" in
  let sb = Plane.add_site fab "B" in
  let fa = Plane.add_forwarder fab ~site:sa in
  let fb = Plane.add_forwarder fab ~site:sb in
  let ein = Plane.add_edge fab ~site:sa ~forwarder:fa in
  let eout = Plane.add_edge fab ~site:sb ~forwarder:fb in
  let g1 = Plane.add_vnf_instance fab ~vnf:100 ~site:sa ~forwarder:fa () in
  let o1 = Plane.add_vnf_instance fab ~vnf:200 ~site:sb ~forwarder:fb () in
  Plane.install_rule fab ~forwarder:fa ~chain_label:1 ~egress_label:3 ~stage:0
    [ (Plane.Vnf_instance g1, 1.) ];
  Plane.install_rule fab ~forwarder:fa ~chain_label:1 ~egress_label:3 ~stage:1
    [ (Plane.Forwarder fb, 1.) ];
  Plane.install_rule fab ~forwarder:fb ~chain_label:1 ~egress_label:3 ~stage:1
    [ (Plane.Vnf_instance o1, 1.) ];
  Plane.install_rule fab ~forwarder:fb ~chain_label:1 ~egress_label:3 ~stage:2
    [ (Plane.Edge eout, 1.) ];
  let rng = Sb_util.Rng.create 9 in
  for _ = 1 to 10 do
    let tuple = Packet.random_tuple rng in
    (match Plane.send_forward fab ~ingress:ein ~chain_label:1 ~egress_label:3 tuple with
    | Ok trace ->
      Alcotest.(check (list int)) "conformity" [ 100; 200 ] (Plane.vnfs_in_trace fab trace)
    | Error e -> Alcotest.failf "forward: %a" Plane.pp_error e);
    match Plane.send_reverse fab ~egress:eout ~chain_label:1 ~egress_label:3 tuple with
    | Ok trace ->
      Alcotest.(check (list int)) "reverse conformity" [ 200; 100 ]
        (Plane.vnfs_in_trace fab trace)
    | Error e -> Alcotest.failf "reverse: %a" Plane.pp_error e
  done

(* qcheck: random fabrics with a random chain spec; conformity, affinity and
   symmetric return hold for every connection. *)
let prop_safety_random_chains =
  QCheck.Test.make ~name:"safety on random chains" ~count:30
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Sb_util.Rng.create seed in
      let fab = Plane.create ~seed () in
      let nsites = 2 + Sb_util.Rng.int rng 3 in
      let sites = Array.init nsites (fun i -> Plane.add_site fab (string_of_int i)) in
      let fwds = Array.map (fun s -> Plane.add_forwarder fab ~site:s) sites in
      let chain_len = 1 + Sb_util.Rng.int rng 3 in
      (* VNF z lives at a random site with 1-3 instances. *)
      let vnf_sites = Array.init chain_len (fun _ -> Sb_util.Rng.int rng nsites) in
      let instances =
        Array.init chain_len (fun z ->
            let s = vnf_sites.(z) in
            Array.init
              (1 + Sb_util.Rng.int rng 3)
              (fun _ ->
                Plane.add_vnf_instance fab ~vnf:(z + 10) ~site:sites.(s)
                  ~forwarder:fwds.(s) ()))
      in
      let in_site = Sb_util.Rng.int rng nsites in
      let out_site = Sb_util.Rng.int rng nsites in
      let ein = Plane.add_edge fab ~site:sites.(in_site) ~forwarder:fwds.(in_site) in
      let eout = Plane.add_edge fab ~site:sites.(out_site) ~forwarder:fwds.(out_site) in
      (* Install rules: stage z at the forwarder of element z (edge fwd for
         stage 0); remote next hops via forwarder; receiver-side at the
         destination forwarder. *)
      let fwd_of_element z = if z = 0 then fwds.(in_site) else fwds.(vnf_sites.(z - 1)) in
      for z = 0 to chain_len do
        let sender = fwd_of_element z in
        let dest_fwd, local_rule =
          if z = chain_len then
            ( fwds.(out_site),
              [ (Plane.Edge eout, 1.) ] )
          else
            ( fwds.(vnf_sites.(z)),
              Array.to_list
                (Array.map (fun i -> (Plane.Vnf_instance i, 1.)) instances.(z)) )
        in
        if sender = dest_fwd then
          Plane.install_rule fab ~forwarder:sender ~chain_label:1 ~egress_label:2 ~stage:z
            local_rule
        else begin
          Plane.install_rule fab ~forwarder:sender ~chain_label:1 ~egress_label:2 ~stage:z
            [ (Plane.Forwarder dest_fwd, 1.) ];
          Plane.install_rule fab ~forwarder:dest_fwd ~chain_label:1 ~egress_label:2 ~stage:z
            local_rule
        end
      done;
      let ok = ref true in
      for _ = 1 to 10 do
        let tuple = Packet.random_tuple rng in
        match Plane.send_forward fab ~ingress:ein ~chain_label:1 ~egress_label:2 tuple with
        | Error _ -> ok := false
        | Ok trace ->
          let expected = List.init chain_len (fun z -> z + 10) in
          if Plane.vnfs_in_trace fab trace <> expected then ok := false;
          let insts = Plane.instances_in_trace trace in
          (match Plane.send_forward fab ~ingress:ein ~chain_label:1 ~egress_label:2 tuple with
          | Ok t2 -> if Plane.instances_in_trace t2 <> insts then ok := false
          | Error _ -> ok := false);
          (match Plane.send_reverse fab ~egress:eout ~chain_label:1 ~egress_label:2 tuple with
          | Ok rt -> if Plane.instances_in_trace rt <> List.rev insts then ok := false
          | Error _ -> ok := false)
      done;
      !ok)


(* qcheck: measurement-window semantics of the stage counters — the
   telemetry contract the sb_adapt exporters rely on. Every packet is
   counted exactly once per stage, per-site counters partition the
   aggregate, and [reset_counters] starts a fresh window without
   disturbing flow affinity. *)
let prop_counter_window_semantics =
  QCheck.Test.make ~name:"stage counter window semantics" ~count:30
    QCheck.(triple (int_range 0 1_000_000) (int_range 1 20) (int_range 1 20))
    (fun (seed, n1, n2) ->
      let tb = build_testbed ~seed () in
      let rng = Sb_util.Rng.create seed in
      let counters stage =
        Plane.stage_counters tb.fab ~chain_label ~egress_label ~stage
      in
      let site_sum stage =
        let a, _ = Plane.site_stage_counters tb.fab ~site:0 ~chain_label ~egress_label ~stage in
        let b, _ = Plane.site_stage_counters tb.fab ~site:1 ~chain_label ~egress_label ~stage in
        a + b
      in
      let tracked = Packet.random_tuple rng in
      let affinity_before = Plane.instances_in_trace (send_ok tb tracked) in
      for _ = 2 to n1 do
        ignore (send_ok tb (Packet.random_tuple rng))
      done;
      let ok = ref true in
      (* Window 1: every packet counted once at each of the 3 stages, and
         the per-site views partition the aggregate. *)
      for stage = 0 to 2 do
        let pkts, bytes = counters stage in
        if pkts <> n1 || bytes <= 0 then ok := false;
        if site_sum stage <> n1 then ok := false
      done;
      (* Reset: all stages read zero... *)
      Plane.reset_counters tb.fab;
      for stage = 0 to 2 do
        if counters stage <> (0, 0) then ok := false
      done;
      (* ...and the new window counts only fresh traffic (the tracked
         connection re-sent among it). *)
      ignore (send_ok tb tracked);
      for _ = 2 to n2 do
        ignore (send_ok tb (Packet.random_tuple rng))
      done;
      for stage = 0 to 2 do
        let pkts, _ = counters stage in
        if pkts <> n2 then ok := false;
        if site_sum stage <> n2 then ok := false
      done;
      (* Resetting counters must not touch flow state. *)
      let affinity_after = Plane.instances_in_trace (send_ok tb tracked) in
      if affinity_after <> affinity_before then ok := false;
      !ok)

(* ---------------------------- DHT table ---------------------------- *)

module Dht = Sb_dataplane.Dht_table

let dht_key i =
  { Flow_table.chain_label = i mod 5; egress_label = i mod 3; stage = i mod 4;
    flow = { Packet.src_ip = i; dst_ip = i * 7; proto = 6; src_port = i mod 1000; dst_port = 80 } }

let test_dht_put_get () =
  let d = Dht.create () in
  Dht.add_node d 1;
  Dht.add_node d 2;
  Dht.put d ~key:(dht_key 1) "a";
  Alcotest.(check (option string)) "roundtrip" (Some "a") (Dht.get d ~key:(dht_key 1));
  Alcotest.(check (option string)) "absent" None (Dht.get d ~key:(dht_key 2))

let test_dht_replication_count () =
  let d = Dht.create ~replication:2 () in
  List.iter (Dht.add_node d) [ 1; 2; 3; 4 ];
  for i = 0 to 99 do
    Dht.put d ~key:(dht_key i) i
  done;
  (* Each key on exactly 2 nodes: total replicas = 200. *)
  let total = List.fold_left (fun acc n -> acc + Dht.node_key_count d n) 0 (Dht.nodes d) in
  Alcotest.(check int) "2 replicas per key" 200 total;
  Alcotest.(check int) "100 distinct keys" 100 (Dht.size d)

let test_dht_survives_node_failure () =
  let d = Dht.create ~replication:2 () in
  List.iter (Dht.add_node d) [ 1; 2; 3; 4; 5 ];
  for i = 0 to 199 do
    Dht.put d ~key:(dht_key i) i
  done;
  (* Fail each node in turn (rejoining after): no key is ever lost. *)
  List.iter
    (fun victim ->
      Dht.remove_node d victim;
      for i = 0 to 199 do
        Alcotest.(check (option int))
          (Printf.sprintf "key %d after node %d failure" i victim)
          (Some i) (Dht.get d ~key:(dht_key i))
      done;
      Dht.add_node d victim)
    [ 1; 2; 3; 4; 5 ]

let test_dht_rereplicates_after_failure () =
  let d = Dht.create ~replication:2 () in
  List.iter (Dht.add_node d) [ 1; 2; 3 ];
  for i = 0 to 49 do
    Dht.put d ~key:(dht_key i) i
  done;
  Dht.remove_node d 2;
  (* Replication is restored on the survivors: two copies of everything. *)
  let total = List.fold_left (fun acc n -> acc + Dht.node_key_count d n) 0 (Dht.nodes d) in
  Alcotest.(check int) "re-replicated" 100 total

let test_dht_single_node_loses_on_failure () =
  let d = Dht.create ~replication:1 () in
  Dht.add_node d 1;
  Dht.add_node d 2;
  for i = 0 to 49 do
    Dht.put d ~key:(dht_key i) i
  done;
  Dht.remove_node d 1;
  (* With replication 1, node 1's share is gone. *)
  let surviving = Dht.node_key_count d 2 in
  Alcotest.(check bool) "some keys lost" true (surviving < 50);
  Alcotest.(check bool) "some keys survive" true (surviving > 0)

let test_dht_balance () =
  let d = Dht.create ~replication:1 ~virtual_nodes:128 () in
  List.iter (Dht.add_node d) [ 1; 2; 3; 4 ];
  for i = 0 to 3999 do
    Dht.put d ~key:(dht_key i) i
  done;
  List.iter
    (fun n ->
      let c = Dht.node_key_count d n in
      Alcotest.(check bool)
        (Printf.sprintf "node %d holds a fair share (%d)" n c)
        true
        (c > 500 && c < 2000))
    (Dht.nodes d)

let test_dht_minimal_disruption_on_join () =
  let d = Dht.create ~replication:1 ~virtual_nodes:64 () in
  List.iter (Dht.add_node d) [ 1; 2; 3; 4 ];
  let n = 2000 in
  for i = 0 to n - 1 do
    Dht.put d ~key:(dht_key i) i
  done;
  let owner_before = Array.init n (fun i -> Dht.owners d ~key:(dht_key i)) in
  Dht.add_node d 5;
  let moved = ref 0 in
  for i = 0 to n - 1 do
    if Dht.owners d ~key:(dht_key i) <> owner_before.(i) then incr moved
  done;
  (* Consistent hashing: about 1/5 of keys move, far from all. *)
  Alcotest.(check bool)
    (Printf.sprintf "only a fraction of keys move (%d/%d)" !moved n)
    true
    (float_of_int !moved /. float_of_int n < 0.45);
  (* And nothing is lost. *)
  for i = 0 to n - 1 do
    Alcotest.(check (option int)) "still present" (Some i) (Dht.get d ~key:(dht_key i))
  done

let test_dht_empty_ring () =
  let d = Dht.create () in
  Alcotest.(check (list int)) "no nodes" [] (Dht.nodes d);
  Alcotest.check_raises "put on empty ring"
    (Invalid_argument "Dht_table.put: no nodes in the ring") (fun () ->
      Dht.put d ~key:(dht_key 0) 0)

let test_dht_remove_key () =
  let d = Dht.create () in
  Dht.add_node d 1;
  Dht.put d ~key:(dht_key 0) 9;
  Dht.remove d ~key:(dht_key 0);
  Alcotest.(check (option int)) "removed everywhere" None (Dht.get d ~key:(dht_key 0))

let prop_dht_no_loss_under_churn =
  QCheck.Test.make ~name:"DHT keeps all keys under join/leave churn (k=2)" ~count:20
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Sb_util.Rng.create seed in
      let d = Dht.create ~replication:2 () in
      List.iter (Dht.add_node d) [ 0; 1; 2 ];
      let next_id = ref 3 in
      for i = 0 to 99 do
        Dht.put d ~key:(dht_key i) i
      done;
      let ok = ref true in
      for _ = 1 to 10 do
        (* One membership change per step, keeping >= 2 nodes alive. *)
        (if Sb_util.Rng.bool rng || List.length (Dht.nodes d) <= 2 then begin
           Dht.add_node d !next_id;
           incr next_id
         end
         else begin
           let ns = Array.of_list (Dht.nodes d) in
           Dht.remove_node d (Sb_util.Rng.choice rng ns)
         end);
        for i = 0 to 99 do
          if Dht.get d ~key:(dht_key i) <> Some i then ok := false
        done
      done;
      !ok)


(* ------------------------- traffic generator ----------------------- *)

module Tgen = Sb_dataplane.Traffic_gen

let test_tgen_flow_population () =
  let rng = Sb_util.Rng.create 9 in
  let g = Tgen.create ~rng ~flows:32 () in
  Alcotest.(check int) "population size" 32 (Array.length (Tgen.flow_tuples g));
  (* Every emitted packet belongs to the population. *)
  let tuples = Array.to_list (Tgen.flow_tuples g) in
  List.iter
    (fun (t, size) ->
      Alcotest.(check bool) "known flow" true (List.mem t tuples);
      Alcotest.(check int) "64B fixed" 64 size)
    (Tgen.burst g 200)

let test_tgen_uniform_coverage () =
  let rng = Sb_util.Rng.create 10 in
  let g = Tgen.create ~rng ~flows:8 () in
  let seen = Hashtbl.create 8 in
  List.iter (fun (t, _) -> Hashtbl.replace seen t ()) (Tgen.burst g 400);
  Alcotest.(check int) "all flows hit" 8 (Hashtbl.length seen)

let test_tgen_zipf_skew () =
  let rng = Sb_util.Rng.create 11 in
  let g = Tgen.create ~rng ~flows:50 ~selection:(Tgen.Zipfian 1.2) () in
  let tuples = Tgen.flow_tuples g in
  let counts = Hashtbl.create 50 in
  List.iter
    (fun (t, _) -> Hashtbl.replace counts t (1 + try Hashtbl.find counts t with Not_found -> 0))
    (Tgen.burst g 5000);
  let top = try Hashtbl.find counts tuples.(0) with Not_found -> 0 in
  let mid = try Hashtbl.find counts tuples.(25) with Not_found -> 0 in
  Alcotest.(check bool) "rank 0 dominates rank 25" true (top > 3 * max 1 mid)

let test_tgen_imix_sizes () =
  let rng = Sb_util.Rng.create 12 in
  let g = Tgen.create ~rng ~flows:4 ~sizes:Tgen.Imix () in
  let sizes = List.map snd (Tgen.burst g 2400) in
  List.iter
    (fun s -> Alcotest.(check bool) "IMIX size" true (s = 64 || s = 570 || s = 1514))
    sizes;
  let count v = List.length (List.filter (( = ) v) sizes) in
  Alcotest.(check bool) "64B most common" true (count 64 > count 570 && count 570 > count 1514)

(* ------------------------- fabric telemetry ------------------------ *)

let test_counters_once_per_stage () =
  let tb = build_testbed () in
  let rng = Sb_util.Rng.create 13 in
  let g = Tgen.create ~rng ~flows:16 ~sizes:(Tgen.Fixed 500) () in
  let sent = 300 in
  List.iter
    (fun (tuple, size) ->
      match
        Plane.send_forward tb.fab ~ingress:tb.ein ~chain_label ~egress_label ~size tuple
      with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "forward: %a" Plane.pp_error e)
    (Tgen.burst g sent);
  for stage = 0 to 2 do
    let pkts, bytes = Plane.stage_counters tb.fab ~chain_label ~egress_label ~stage in
    Alcotest.(check int) (Printf.sprintf "stage %d packets" stage) sent pkts;
    Alcotest.(check int) (Printf.sprintf "stage %d bytes" stage) (sent * 500) bytes
  done

let test_counters_isolated_per_chain () =
  let tb = build_testbed () in
  ignore (send_ok tb tuple1);
  let pkts, _ = Plane.stage_counters tb.fab ~chain_label:99 ~egress_label ~stage:0 in
  Alcotest.(check int) "other chain unaffected" 0 pkts

let test_counters_reset () =
  let tb = build_testbed () in
  ignore (send_ok tb tuple1);
  Plane.reset_counters tb.fab;
  let pkts, bytes = Plane.stage_counters tb.fab ~chain_label ~egress_label ~stage:0 in
  Alcotest.(check int) "packets reset" 0 pkts;
  Alcotest.(check int) "bytes reset" 0 bytes

(* --------------------------- OVS model ----------------------------- *)

let test_ovs_label_overhead_band () =
  List.iter
    (fun flows ->
      let o = Ovs.overhead_vs_bridge Ovs.Labels ~flows in
      Alcotest.(check bool)
        (Printf.sprintf "label overhead at %d flows in 19-29%%" flows)
        true
        (o >= 0.18 && o <= 0.30))
    [ 1; 5; 10; 25; 50 ]

let test_ovs_affinity_overhead_band () =
  List.iter
    (fun flows ->
      let o = Ovs.overhead_vs_labels ~flows in
      Alcotest.(check bool)
        (Printf.sprintf "affinity overhead at %d flows in 33-44%%" flows)
        true
        (o >= 0.32 && o <= 0.45))
    [ 1; 5; 10; 25; 50 ]

let test_ovs_overhead_shrinks_with_flows () =
  Alcotest.(check bool) "labels overhead shrinks" true
    (Ovs.overhead_vs_bridge Ovs.Labels ~flows:50
    < Ovs.overhead_vs_bridge Ovs.Labels ~flows:1);
  Alcotest.(check bool) "affinity overhead shrinks" true
    (Ovs.overhead_vs_labels ~flows:50 < Ovs.overhead_vs_labels ~flows:1)

let test_ovs_throughput_declines_with_flows () =
  Alcotest.(check bool) "poor flow scalability" true
    (Ovs.throughput_kpps Ovs.Bridge ~flows:50 < Ovs.throughput_kpps Ovs.Bridge ~flows:1)

let test_ovs_config_ordering () =
  let flows = 10 in
  let b = Ovs.cycles_per_packet Ovs.Bridge ~flows in
  let l = Ovs.cycles_per_packet Ovs.Labels ~flows in
  let a = Ovs.cycles_per_packet Ovs.Labels_affinity ~flows in
  Alcotest.(check bool) "bridge < labels < affinity" true (b < l && l < a)


(* --------------------------- OVS pipeline -------------------------- *)

module Ovsp = Sb_dataplane.Ovs_pipeline

let test_pipeline_upcall_once_per_flow () =
  let p = Ovsp.create Ovs.Bridge in
  let st = Ovsp.run_stream p ~flows:10 ~packets:1000 in
  Alcotest.(check int) "one upcall per flow" 10 st.Ovsp.upcalls;
  Alcotest.(check int) "ten cache entries" 10 st.Ovsp.exact_entries

let test_pipeline_affinity_port_stable () =
  let p = Ovsp.create ~outputs:4 Ovs.Labels_affinity in
  let rng = Sb_util.Rng.create 2 in
  for _ = 1 to 20 do
    let flow = Packet.random_tuple rng in
    let first = (Ovsp.process p flow).Ovsp.port in
    for _ = 1 to 5 do
      Alcotest.(check int) "learned port stable" first (Ovsp.process p flow).Ovsp.port
    done
  done

let test_pipeline_affinity_spreads_ports () =
  let p = Ovsp.create ~outputs:2 Ovs.Labels_affinity in
  let rng = Sb_util.Rng.create 3 in
  let ports = Hashtbl.create 4 in
  for _ = 1 to 20 do
    let v = Ovsp.process p (Packet.random_tuple rng) in
    Hashtbl.replace ports v.Ovsp.port ()
  done;
  Alcotest.(check int) "both ports used" 2 (Hashtbl.length ports)

let test_pipeline_first_packet_costs_more () =
  let p = Ovsp.create Ovs.Labels_affinity in
  let flow = Packet.random_tuple (Sb_util.Rng.create 4) in
  let first = Ovsp.process p flow in
  let second = Ovsp.process p flow in
  Alcotest.(check bool) "upcall flag" true first.Ovsp.upcall;
  Alcotest.(check bool) "no second upcall" false second.Ovsp.upcall;
  Alcotest.(check bool) "install cost visible" true (first.Ovsp.cycles > second.Ovsp.cycles)

let test_pipeline_matches_analytic_model () =
  (* The executed pipeline and the closed-form model share constants: at
     the model's amortization point (100 packets/connection) they must
     agree within a few percent for every configuration and flow count. *)
  List.iter
    (fun config ->
      List.iter
        (fun flows ->
          let p = Ovsp.create config in
          let st = Ovsp.run_stream p ~flows ~packets:(100 * flows) in
          let analytic = Ovs.cycles_per_packet config ~flows in
          let ratio = st.Ovsp.mean_cycles /. analytic in
          Alcotest.(check bool)
            (Printf.sprintf "executed ~ analytic (%d flows, ratio %.3f)" flows ratio)
            true
            (ratio > 0.9 && ratio < 1.1))
        [ 1; 10; 50 ])
    [ Ovs.Bridge; Ovs.Labels; Ovs.Labels_affinity ]

let test_pipeline_config_ordering () =
  let mean config =
    let p = Ovsp.create config in
    (Ovsp.run_stream p ~flows:20 ~packets:2000).Ovsp.mean_cycles
  in
  Alcotest.(check bool) "bridge < labels < affinity" true
    (mean Ovs.Bridge < mean Ovs.Labels && mean Ovs.Labels < mean Ovs.Labels_affinity)

(* --------------------------- DPDK model ---------------------------- *)

let test_dpdk_single_core_7mpps () =
  let t = Dpdk.throughput_mpps ~cores:1 ~flows_per_core:1024 in
  Alcotest.(check bool) "about 7 Mpps" true (t >= 6.5 && t <= 7.5)

let test_dpdk_six_cores_20mpps () =
  let t = Dpdk.throughput_mpps ~cores:6 ~flows_per_core:524_288 in
  Alcotest.(check bool) "exceeds 20 Mpps at 3M flows" true (t > 20.)

let test_dpdk_marginal_core_gain () =
  (* Each added forwarder contributes 3-4+ Mpps at 512K flows each. *)
  let prev = ref (Dpdk.throughput_mpps ~cores:1 ~flows_per_core:524_288) in
  for cores = 2 to 6 do
    let t = Dpdk.throughput_mpps ~cores ~flows_per_core:524_288 in
    let gain = t -. !prev in
    Alcotest.(check bool)
      (Printf.sprintf "core %d adds 3-4 Mpps (got %.2f)" cores gain)
      true
      (gain >= 2.8 && gain <= 4.5);
    prev := t
  done

let test_dpdk_steady_state_3mpps () =
  let t = Dpdk.throughput_mpps ~cores:1 ~flows_per_core:30_000_000 in
  Alcotest.(check bool) "tens of millions of flows still > 3 Mpps" true (t > 3.)

let test_dpdk_throughput_declines_with_flows () =
  let small = Dpdk.throughput_mpps ~cores:1 ~flows_per_core:1000 in
  let big = Dpdk.throughput_mpps ~cores:1 ~flows_per_core:1_000_000 in
  Alcotest.(check bool) "cache pressure reduces throughput" true (big < small)

let test_dpdk_latency_profile () =
  let low = Dpdk.latency_s ~cores:1 ~flows_per_core:1024 ~load:0.1 in
  let high = Dpdk.latency_s ~cores:1 ~flows_per_core:1024 ~load:0.99999 in
  Alcotest.(check bool) "low load: tens of microseconds" true (low < 100e-6);
  Alcotest.(check bool) "saturation: ~1 ms" true (high > 300e-6 && high < 3e-3)

let test_dpdk_gbps_extrapolation () =
  (* 20 Mpps at 500 B = 80 Gbps (paper abstract). *)
  let gbps = Dpdk.throughput_gbps ~cores:6 ~flows_per_core:524_288 ~packet_bytes:500 in
  Alcotest.(check bool) "around 80+ Gbps" true (gbps > 80.)

let test_dpdk_rejects_bad_args () =
  Alcotest.check_raises "cores" (Invalid_argument "Dpdk_model: cores must be positive")
    (fun () -> ignore (Dpdk.cycles_per_packet ~cores:0 ~flows_per_core:1));
  Alcotest.check_raises "load" (Invalid_argument "Dpdk_model.latency_s: load must be in [0, 1)")
    (fun () -> ignore (Dpdk.latency_s ~cores:1 ~flows_per_core:1 ~load:1.))

(* ------------------- packed-plane equivalence -------------------- *)

module Legacy = Sb_dataplane.Legacy_fabric

(* qcheck: the flow tables' incremental (count, capacity, max_probe) — a
   histogram of live cells by distance from their home slot — equals a
   scan of every slot after any mix of first packets (inserts that grow
   the tables), repeat and reverse packets, teardown, idle expiry,
   forwarder failure (which clears a table) and flow transfer. *)
let prop_flow_table_stats_incremental =
  QCheck.Test.make ~name:"flow-table stats: histogram = full scan" ~count:30
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let tb = build_testbed ~seed () in
      let rng = Sb_util.Rng.create (seed + 5) in
      let pool = Array.init 64 (fun _ -> Packet.random_tuple rng) in
      let pick () =
        if Sb_util.Rng.int rng 3 = 0 then pool.(Sb_util.Rng.int rng (Array.length pool))
        else Packet.random_tuple rng
      in
      let same () =
        List.for_all
          (fun forwarder ->
            Plane.flow_table_stats tb.fab ~forwarder
            = Plane.flow_table_scan_stats tb.fab ~forwarder)
          [ tb.fa; tb.fb ]
      in
      let ok = ref (same ()) and clock = ref 0 in
      for _ = 1 to 400 do
        (match Sb_util.Rng.int rng 20 with
        | 0 | 1 | 2 | 3 | 4 | 5 | 6 | 7 | 8 | 9 ->
          ignore
            (Plane.send_forward tb.fab ~ingress:tb.ein ~chain_label ~egress_label (pick ()))
        | 10 | 11 ->
          ignore
            (Plane.send_reverse tb.fab ~egress:tb.eout ~chain_label ~egress_label
               pool.(Sb_util.Rng.int rng (Array.length pool)))
        | 12 | 13 | 14 -> Plane.end_flow tb.fab pool.(Sb_util.Rng.int rng (Array.length pool))
        | 15 | 16 ->
          incr clock;
          Plane.set_clock tb.fab !clock;
          ignore (Plane.expire_flows tb.fab ~idle_before:(!clock - 1))
        | 17 ->
          ignore (Plane.transfer_flows tb.fab ~from_instance:tb.g1 ~to_instance:tb.g2)
        | 18 ->
          Plane.fail_forwarder tb.fab tb.fb;
          Plane.revive_forwarder tb.fab tb.fb
        | _ -> ignore (Plane.transfer_flows tb.fab ~from_instance:tb.o2 ~to_instance:tb.o1));
        if not (same ()) then ok := false
      done;
      !ok)

(* qcheck (the packed-dataplane oracle): identical random traffic, weight
   churn, rule reinstalls, flow teardown, OpenNF transfers and
   fail/revive/reattach faults driven through the seed implementation
   ([Legacy_fabric]) and the packed plane ([Plane]) produce
   identical delivery traces, errors, flow-table decisions and stage
   counters. Both fabrics are created with the same RNG seed, so any
   divergence in balancer draw *sequence* (not just distribution) fails
   the property too. Run in both Local and Replicated flow-store modes. *)
let prop_packed_plane_equivalence ~name store =
  QCheck.Test.make ~name ~count:20
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Sb_util.Rng.create (seed + 17) in
      let lf = Legacy.create ~seed ~flow_store:store () in
      let pf = Plane.create ~seed ~flow_store:store () in
      (* Entity ids come from the same fresh-counter discipline in both
         implementations, so mirrored build calls yield equal ids. *)
      let ok = ref true in
      let check b = if not b then ok := false in
      let nsites = 2 + Sb_util.Rng.int rng 3 in
      let sites =
        Array.init nsites (fun i ->
            let a = Legacy.add_site lf (string_of_int i) in
            let b = Plane.add_site pf (string_of_int i) in
            check (a = b);
            a)
      in
      let fwds =
        Array.map
          (fun s ->
            let a = Legacy.add_forwarder lf ~site:s in
            let b = Plane.add_forwarder pf ~site:s in
            check (a = b);
            a)
          sites
      in
      let chain_len = 1 + Sb_util.Rng.int rng 3 in
      let vnf_sites = Array.init chain_len (fun _ -> Sb_util.Rng.int rng nsites) in
      let instances =
        Array.init chain_len (fun z ->
            let s = vnf_sites.(z) in
            Array.init
              (1 + Sb_util.Rng.int rng 3)
              (fun _ ->
                let a =
                  Legacy.add_vnf_instance lf ~vnf:(z + 10) ~site:sites.(s)
                    ~forwarder:fwds.(s) ()
                in
                let b =
                  Plane.add_vnf_instance pf ~vnf:(z + 10) ~site:sites.(s)
                    ~forwarder:fwds.(s) ()
                in
                check (a = b);
                a))
      in
      let in_site = Sb_util.Rng.int rng nsites in
      let out_site = Sb_util.Rng.int rng nsites in
      let ein = Legacy.add_edge lf ~site:sites.(in_site) ~forwarder:fwds.(in_site) in
      check (ein = Plane.add_edge pf ~site:sites.(in_site) ~forwarder:fwds.(in_site));
      let eout = Legacy.add_edge lf ~site:sites.(out_site) ~forwarder:fwds.(out_site) in
      check (eout = Plane.add_edge pf ~site:sites.(out_site) ~forwarder:fwds.(out_site));
      let fwd_of_element z = if z = 0 then fwds.(in_site) else fwds.(vnf_sites.(z - 1)) in
      let stage_targets z =
        if z = chain_len then [ (Plane.Edge eout, 1.) ]
        else
          Array.to_list
            (Array.map
               (fun i -> (Plane.Vnf_instance i, 0.25 +. Sb_util.Rng.float rng 2.))
               instances.(z))
      in
      let install z =
        let sender = fwd_of_element z in
        let dest_fwd = if z = chain_len then fwds.(out_site) else fwds.(vnf_sites.(z)) in
        let local_rule = stage_targets z in
        let put fwd rule =
          Legacy.install_rule lf ~forwarder:fwd ~chain_label:1 ~egress_label:2 ~stage:z rule;
          Plane.install_rule pf ~forwarder:fwd ~chain_label:1 ~egress_label:2 ~stage:z rule
        in
        if sender = dest_fwd then put sender local_rule
        else begin
          put sender [ (Plane.Forwarder dest_fwd, 1.) ];
          put dest_fwd local_rule;
          (* Receiver-side override at the destination, as the control
             plane installs it for cross-site stages. *)
          Legacy.install_rx_rule lf ~forwarder:dest_fwd ~chain_label:1 ~egress_label:2
            ~stage:z local_rule;
          Plane.install_rx_rule pf ~forwarder:dest_fwd ~chain_label:1 ~egress_label:2
            ~stage:z local_rule
        end
      in
      for z = 0 to chain_len do
        install z
      done;
      let pool = Array.init 6 (fun _ -> Packet.random_tuple rng) in
      let all_insts = Array.concat (Array.to_list instances) in
      for _ = 1 to 60 do
        match Sb_util.Rng.int rng 12 with
        | 0 | 1 | 2 | 3 | 4 ->
          let tuple = pool.(Sb_util.Rng.int rng (Array.length pool)) in
          let a = Legacy.send_forward lf ~ingress:ein ~chain_label:1 ~egress_label:2 tuple in
          let b = Plane.send_forward pf ~ingress:ein ~chain_label:1 ~egress_label:2 tuple in
          check (a = b)
        | 5 | 6 ->
          let tuple = pool.(Sb_util.Rng.int rng (Array.length pool)) in
          let a = Legacy.send_reverse lf ~egress:eout ~chain_label:1 ~egress_label:2 tuple in
          let b = Plane.send_reverse pf ~egress:eout ~chain_label:1 ~egress_label:2 tuple in
          check (a = b)
        | 7 ->
          let tuple = pool.(Sb_util.Rng.int rng (Array.length pool)) in
          Legacy.end_flow lf tuple;
          Plane.end_flow pf tuple
        | 8 ->
          let i = all_insts.(Sb_util.Rng.int rng (Array.length all_insts)) in
          let w = 0.25 +. Sb_util.Rng.float rng 2. in
          Legacy.set_instance_weight lf i w;
          Plane.set_instance_weight pf i w
        | 9 -> install (Sb_util.Rng.int rng (chain_len + 1))
        | 10 ->
          let f = fwds.(Sb_util.Rng.int rng nsites) in
          if Legacy.forwarder_alive lf f then begin
            Legacy.fail_forwarder lf f;
            Plane.fail_forwarder pf f
          end
          else begin
            Legacy.revive_forwarder lf f;
            Plane.revive_forwarder pf f
          end
        | _ -> (
          let i = all_insts.(Sb_util.Rng.int rng (Array.length all_insts)) in
          if Legacy.instance_alive lf i then begin
            Legacy.fail_instance lf i;
            Plane.fail_instance pf i
          end
          else begin
            Legacy.revive_instance lf i;
            Plane.revive_instance pf i
          end;
          (* Occasionally an OpenNF transfer between same-VNF siblings. *)
          let z = Sb_util.Rng.int rng chain_len in
          let zi = instances.(z) in
          if Array.length zi >= 2 then begin
            let a = zi.(0) and b = zi.(1) in
            check
              (Legacy.transfer_flows lf ~from_instance:a ~to_instance:b
              = Plane.transfer_flows pf ~from_instance:a ~to_instance:b)
          end)
      done;
      (* Final-state observables. *)
      Array.iter
        (fun f ->
          check
            (Legacy.flow_table_size lf ~forwarder:f = Plane.flow_table_size pf ~forwarder:f);
          check
            (Legacy.attached_instances lf ~forwarder:f
            = Plane.attached_instances pf ~forwarder:f);
          for z = 0 to chain_len - 1 do
            let wa = Legacy.forwarder_published_weight lf f (z + 10) in
            let wb = Plane.forwarder_published_weight pf f (z + 10) in
            (* Summation order differs (hashtable fold vs id order); the
               documented caveat allows only float-associativity noise. *)
            check (Float.abs (wa -. wb) < 1e-9);
            check
              (Legacy.rule lf ~forwarder:f ~chain_label:1 ~egress_label:2 ~stage:z
              = Plane.rule pf ~forwarder:f ~chain_label:1 ~egress_label:2 ~stage:z)
          done)
        fwds;
      for z = 0 to chain_len do
        check
          (Legacy.stage_counters lf ~chain_label:1 ~egress_label:2 ~stage:z
          = Plane.stage_counters pf ~chain_label:1 ~egress_label:2 ~stage:z);
        Array.iter
          (fun s ->
            check
              (Legacy.site_stage_counters lf ~site:s ~chain_label:1 ~egress_label:2 ~stage:z
              = Plane.site_stage_counters pf ~site:s ~chain_label:1 ~egress_label:2
                  ~stage:z))
          sites
      done;
      !ok)

let prop_packed_equivalence_local =
  prop_packed_plane_equivalence ~name:"packed plane == seed fabric (Local)" Plane.Local

let prop_packed_equivalence_replicated =
  prop_packed_plane_equivalence
    ~name:"packed plane == seed fabric (Replicated 2)" (Plane.Replicated 2)

(* --------------------- sharded-fabric equivalence --------------------- *)

module Shard = Sb_dataplane.Shard

(* [Shard.error] = [Plane.error], so one classifier serves both. Error
   payloads that name a VNF instance are balancer-draw-dependent (the
   plane pins the drawn instance before checking liveness), so the
   multi-lane property compares constructors only. *)
let err_kind : Plane.error -> int = function
  | Plane.No_rule _ -> 0
  | No_reverse_entry _ -> 1
  | Instance_down _ -> 2
  | Forwarder_down _ -> 3
  | Ttl_exceeded -> 4
  | Not_an_edge -> 5

(* Shared testbed builder for the shard properties: the same mirrored
   random topology as [prop_packed_plane_equivalence] — 2-4 sites with one
   forwarder each, a 1-3 stage chain with every stage's instances on a
   single forwarder (so the packet path is deterministic at forwarder
   granularity and only the instance *choice* within a stage is a
   balancer draw), edge in/out, cross-site relay + rx rules. *)
type shard_bed = {
  sb_fabric : Plane.t;
  sb_shard : Shard.t;
  sb_rng : Sb_util.Rng.t;
  sb_check : bool -> unit;
  sb_sites : int array;
  sb_fwds : int array;
  sb_chain_len : int;
  sb_instances : int array array;
  sb_ein : int;
  sb_eout : int;
  sb_install : int -> unit;
}

let build_shard_bed ~seed ~store ~lanes =
  let rng = Sb_util.Rng.create (seed + 17) in
  let f = Plane.create ~seed ~flow_store:store () in
  let sf = Shard.create ~seed ~flow_store:store ~lanes () in
  let ok = ref true in
  let check b = if not b then ok := false in
  let nsites = 2 + Sb_util.Rng.int rng 3 in
  let sites =
    Array.init nsites (fun i ->
        let a = Plane.add_site f (string_of_int i) in
        check (a = Shard.add_site sf (string_of_int i));
        a)
  in
  let fwds =
    Array.map
      (fun s ->
        let a = Plane.add_forwarder f ~site:s in
        check (a = Shard.add_forwarder sf ~site:s);
        a)
      sites
  in
  let chain_len = 1 + Sb_util.Rng.int rng 3 in
  let vnf_sites = Array.init chain_len (fun _ -> Sb_util.Rng.int rng nsites) in
  let instances =
    Array.init chain_len (fun z ->
        let s = vnf_sites.(z) in
        Array.init
          (1 + Sb_util.Rng.int rng 3)
          (fun _ ->
            let a =
              Plane.add_vnf_instance f ~vnf:(z + 10) ~site:sites.(s)
                ~forwarder:fwds.(s) ()
            in
            check
              (a
              = Shard.add_vnf_instance sf ~vnf:(z + 10) ~site:sites.(s)
                  ~forwarder:fwds.(s) ());
            a))
  in
  let in_site = Sb_util.Rng.int rng nsites in
  let out_site = Sb_util.Rng.int rng nsites in
  let ein = Plane.add_edge f ~site:sites.(in_site) ~forwarder:fwds.(in_site) in
  check (ein = Shard.add_edge sf ~site:sites.(in_site) ~forwarder:fwds.(in_site));
  let eout = Plane.add_edge f ~site:sites.(out_site) ~forwarder:fwds.(out_site) in
  check (eout = Shard.add_edge sf ~site:sites.(out_site) ~forwarder:fwds.(out_site));
  let fwd_of_element z = if z = 0 then fwds.(in_site) else fwds.(vnf_sites.(z - 1)) in
  let stage_targets z =
    if z = chain_len then [ (Plane.Edge eout, 1.) ]
    else
      Array.to_list
        (Array.map
           (fun i -> (Plane.Vnf_instance i, 0.25 +. Sb_util.Rng.float rng 2.))
           instances.(z))
  in
  let install z =
    let sender = fwd_of_element z in
    let dest_fwd = if z = chain_len then fwds.(out_site) else fwds.(vnf_sites.(z)) in
    (* One draw, applied to both implementations. *)
    let local_rule = stage_targets z in
    let put fwd rule =
      Plane.install_rule f ~forwarder:fwd ~chain_label:1 ~egress_label:2 ~stage:z rule;
      Shard.install_rule sf ~forwarder:fwd ~chain_label:1 ~egress_label:2 ~stage:z rule
    in
    if sender = dest_fwd then put sender local_rule
    else begin
      put sender [ (Plane.Forwarder dest_fwd, 1.) ];
      put dest_fwd local_rule;
      Plane.install_rx_rule f ~forwarder:dest_fwd ~chain_label:1 ~egress_label:2
        ~stage:z local_rule;
      Shard.install_rx_rule sf ~forwarder:dest_fwd ~chain_label:1 ~egress_label:2
        ~stage:z local_rule
    end
  in
  for z = 0 to chain_len do
    install z
  done;
  ( {
      sb_fabric = f;
      sb_shard = sf;
      sb_rng = rng;
      sb_check = check;
      sb_sites = sites;
      sb_fwds = fwds;
      sb_chain_len = chain_len;
      sb_instances = instances;
      sb_ein = ein;
      sb_eout = eout;
      sb_install = install;
    },
    ok )

(* Final-state observables that are balancer-draw-insensitive in this
   testbed: per-forwarder flow-table entry counts (paths are deterministic
   at forwarder granularity), published weights, rules, and the per-stage
   packet/byte counters globally and per site. *)
let check_shard_final_state bed =
  let f = bed.sb_fabric and sf = bed.sb_shard and check = bed.sb_check in
  Array.iter
    (fun fwd ->
      check (Plane.flow_table_size f ~forwarder:fwd = Shard.flow_table_size sf ~forwarder:fwd);
      let sc, _, _ = Shard.flow_table_stats sf ~forwarder:fwd in
      check (sc = Shard.flow_table_size sf ~forwarder:fwd);
      check (Plane.attached_instances f ~forwarder:fwd = Shard.attached_instances sf ~forwarder:fwd);
      for z = 0 to bed.sb_chain_len - 1 do
        let wa = Plane.forwarder_published_weight f fwd (z + 10) in
        let wb = Shard.forwarder_published_weight sf fwd (z + 10) in
        check (Float.abs (wa -. wb) < 1e-9);
        check
          (Plane.rule f ~forwarder:fwd ~chain_label:1 ~egress_label:2 ~stage:z
          = Shard.rule sf ~forwarder:fwd ~chain_label:1 ~egress_label:2 ~stage:z)
      done)
    bed.sb_fwds;
  for z = 0 to bed.sb_chain_len do
    check
      (Plane.stage_counters f ~chain_label:1 ~egress_label:2 ~stage:z
      = Shard.stage_counters sf ~chain_label:1 ~egress_label:2 ~stage:z);
    Array.iter
      (fun s ->
        check
          (Plane.site_stage_counters f ~site:s ~chain_label:1 ~egress_label:2 ~stage:z
          = Shard.site_stage_counters sf ~site:s ~chain_label:1 ~egress_label:2 ~stage:z))
      bed.sb_sites
  done

(* qcheck (lane-count transparency, exact half): a 1-lane shard IS the
   packed plane driven inline — same seed, same single RNG stream — so the
   full fault soup of [prop_packed_plane_equivalence], plus [drive_batch],
   must match the oracle bit for bit: traces, error payloads, draws and
   all. *)
let prop_shard_identity ~name store =
  QCheck.Test.make ~name ~count:20
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let bed, ok = build_shard_bed ~seed ~store ~lanes:1 in
      let f = bed.sb_fabric and sf = bed.sb_shard in
      let rng = bed.sb_rng and check = bed.sb_check in
      let pool = Array.init 6 (fun _ -> Packet.random_tuple rng) in
      let all_insts = Array.concat (Array.to_list bed.sb_instances) in
      Fun.protect
        ~finally:(fun () -> Shard.shutdown sf)
        (fun () ->
          for _ = 1 to 60 do
            match Sb_util.Rng.int rng 12 with
            | 0 | 1 | 2 | 3 | 4 ->
              let tuple = pool.(Sb_util.Rng.int rng (Array.length pool)) in
              check
                (Plane.send_forward f ~ingress:bed.sb_ein ~chain_label:1 ~egress_label:2
                   tuple
                = Shard.send_forward sf ~ingress:bed.sb_ein ~chain_label:1 ~egress_label:2
                    tuple)
            | 5 | 6 ->
              let tuple = pool.(Sb_util.Rng.int rng (Array.length pool)) in
              check
                (Plane.send_reverse f ~egress:bed.sb_eout ~chain_label:1 ~egress_label:2
                   tuple
                = Shard.send_reverse sf ~egress:bed.sb_eout ~chain_label:1 ~egress_label:2
                    tuple)
            | 7 ->
              let tuple = pool.(Sb_util.Rng.int rng (Array.length pool)) in
              Plane.end_flow f tuple;
              Shard.end_flow sf tuple
            | 8 ->
              let i = all_insts.(Sb_util.Rng.int rng (Array.length all_insts)) in
              let w = 0.25 +. Sb_util.Rng.float rng 2. in
              Plane.set_instance_weight f i w;
              Shard.set_instance_weight sf i w
            | 9 -> bed.sb_install (Sb_util.Rng.int rng (bed.sb_chain_len + 1))
            | 10 ->
              let fwd = bed.sb_fwds.(Sb_util.Rng.int rng (Array.length bed.sb_fwds)) in
              if Plane.forwarder_alive f fwd then begin
                Plane.fail_forwarder f fwd;
                Shard.fail_forwarder sf fwd
              end
              else begin
                Plane.revive_forwarder f fwd;
                Shard.revive_forwarder sf fwd
              end
            | _ -> (
              let i = all_insts.(Sb_util.Rng.int rng (Array.length all_insts)) in
              if Plane.instance_alive f i then begin
                Plane.fail_instance f i;
                Shard.fail_instance sf i
              end
              else begin
                Plane.revive_instance f i;
                Shard.revive_instance sf i
              end;
              let z = Sb_util.Rng.int rng bed.sb_chain_len in
              let zi = bed.sb_instances.(z) in
              if Array.length zi >= 2 then
                check
                  (Plane.transfer_flows f ~from_instance:zi.(0) ~to_instance:zi.(1)
                  = Shard.transfer_flows sf ~from_instance:zi.(0) ~to_instance:zi.(1)))
          done;
          (* The batch path at 1 lane is an inline [Plane.drive] loop. *)
          let batch =
            Array.init 30 (fun _ -> pool.(Sb_util.Rng.int rng (Array.length pool)))
          in
          let oracle =
            Array.fold_left
              (fun acc tu ->
                if
                  Plane.drive f ~ingress:bed.sb_ein ~chain_label:1 ~egress_label:2
                    ~size:100 tu
                then acc + 1
                else acc)
              0 batch
          in
          check
            (oracle
            = Shard.drive_batch sf ~ingress:bed.sb_ein ~chain_label:1 ~egress_label:2
                ~size:100 batch);
          check_shard_final_state bed;
          !ok))

(* qcheck (lane-count transparency, distributional half): for D in
   {1, 2, 4} a shard must agree with the single-plane oracle on every
   draw-insensitive observable — per-flow outcome *kinds*, traversed VNF
   sequences, per-forwarder table entry counts, and all stage counters —
   under a soup restricted to draw-insensitive faults: whole-VNF
   fail/revive (a stage is all-dead or all-live, so any drawn instance
   gives the same outcome kind) and forwarder fail/revive (paths are
   forwarder-deterministic here). Per-instance faults would make the
   outcome depend on which sibling a lane's private RNG drew; the D = 1
   identity property covers those. *)
let prop_shard_equivalence ~name store =
  QCheck.Test.make ~name ~count:12
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      List.for_all
        (fun lanes ->
          let bed, ok = build_shard_bed ~seed ~store ~lanes in
          let f = bed.sb_fabric and sf = bed.sb_shard in
          let rng = bed.sb_rng and check = bed.sb_check in
          let pool = Array.init 6 (fun _ -> Packet.random_tuple rng) in
          let stage_alive z = Plane.instance_alive f bed.sb_instances.(z).(0) in
          let compare_sends a b =
            match (a, b) with
            | Ok ta, Ok tb ->
              check (Plane.vnfs_in_trace f ta = Shard.vnfs_in_trace sf tb)
            | Error ea, Error eb -> check (err_kind ea = err_kind eb)
            | _ -> check false
          in
          Fun.protect
            ~finally:(fun () -> Shard.shutdown sf)
            (fun () ->
              for _ = 1 to 60 do
                match Sb_util.Rng.int rng 12 with
                | 0 | 1 | 2 | 3 | 4 ->
                  let tuple = pool.(Sb_util.Rng.int rng (Array.length pool)) in
                  compare_sends
                    (Plane.send_forward f ~ingress:bed.sb_ein ~chain_label:1
                       ~egress_label:2 tuple)
                    (Shard.send_forward sf ~ingress:bed.sb_ein ~chain_label:1
                       ~egress_label:2 tuple)
                | 5 | 6 ->
                  let tuple = pool.(Sb_util.Rng.int rng (Array.length pool)) in
                  compare_sends
                    (Plane.send_reverse f ~egress:bed.sb_eout ~chain_label:1
                       ~egress_label:2 tuple)
                    (Shard.send_reverse sf ~egress:bed.sb_eout ~chain_label:1
                       ~egress_label:2 tuple)
                | 7 ->
                  let tuple = pool.(Sb_util.Rng.int rng (Array.length pool)) in
                  Plane.end_flow f tuple;
                  Shard.end_flow sf tuple
                | 8 ->
                  let z = Sb_util.Rng.int rng bed.sb_chain_len in
                  let zi = bed.sb_instances.(z) in
                  let i = zi.(Sb_util.Rng.int rng (Array.length zi)) in
                  let w = 0.25 +. Sb_util.Rng.float rng 2. in
                  Plane.set_instance_weight f i w;
                  Shard.set_instance_weight sf i w
                | 9 -> bed.sb_install (Sb_util.Rng.int rng (bed.sb_chain_len + 1))
                | 10 ->
                  let fwd = bed.sb_fwds.(Sb_util.Rng.int rng (Array.length bed.sb_fwds)) in
                  if Plane.forwarder_alive f fwd then begin
                    Plane.fail_forwarder f fwd;
                    Shard.fail_forwarder sf fwd
                  end
                  else begin
                    Plane.revive_forwarder f fwd;
                    Shard.revive_forwarder sf fwd
                  end
                | _ ->
                  (* Whole-VNF toggle: fail or revive every sibling of one
                     stage together. An OpenNF transfer between siblings is
                     mirrored but its moved count is not compared — each
                     lane pinned a different subset of the connections. *)
                  let z = Sb_util.Rng.int rng bed.sb_chain_len in
                  let zi = bed.sb_instances.(z) in
                  let toggle =
                    if stage_alive z then (Plane.fail_instance, Shard.fail_instance)
                    else (Plane.revive_instance, Shard.revive_instance)
                  in
                  Array.iter
                    (fun i ->
                      (fst toggle) f i;
                      (snd toggle) sf i)
                    zi;
                  if Array.length zi >= 2 && Sb_util.Rng.int rng 2 = 0 then begin
                    ignore (Plane.transfer_flows f ~from_instance:zi.(0) ~to_instance:zi.(1));
                    ignore (Shard.transfer_flows sf ~from_instance:zi.(0) ~to_instance:zi.(1))
                  end
              done;
              (* Exercise the pool + SPSC handoff path: delivery counts are
                 draw-insensitive (liveness is whole-stage), so the batch
                 totals must agree exactly. *)
              let batch =
                Array.init 64 (fun _ -> pool.(Sb_util.Rng.int rng (Array.length pool)))
              in
              let oracle =
                Array.fold_left
                  (fun acc tu ->
                    if
                      Plane.drive f ~ingress:bed.sb_ein ~chain_label:1 ~egress_label:2
                        ~size:100 tu
                    then acc + 1
                    else acc)
                  0 batch
              in
              check
                (oracle
                = Shard.drive_batch sf ~ingress:bed.sb_ein ~chain_label:1 ~egress_label:2
                    ~size:100 batch);
              check_shard_final_state bed;
              !ok))
        [ 1; 2; 4 ])

let prop_shard_identity_local =
  prop_shard_identity ~name:"1-lane shard == packed plane, bit-exact (Local)" Plane.Local

let prop_shard_identity_replicated =
  prop_shard_identity
    ~name:"1-lane shard == packed plane, bit-exact (Replicated 2)" (Plane.Replicated 2)

let prop_shard_equivalence_local =
  prop_shard_equivalence
    ~name:"sharded fabric == oracle, D in {1,2,4} (Local)" Plane.Local

let prop_shard_equivalence_replicated =
  prop_shard_equivalence
    ~name:"sharded fabric == oracle, D in {1,2,4} (Replicated 2)" (Plane.Replicated 2)

let () =
  Alcotest.run "sb_dataplane"
    [
      ( "packet",
        [
          Alcotest.test_case "reverse tuple" `Quick test_reverse_tuple;
          Alcotest.test_case "canonical" `Quick test_canonical;
          Alcotest.test_case "forward packet" `Quick test_forward_packet;
        ] );
      ( "flow_table",
        [
          Alcotest.test_case "roundtrip" `Quick test_flow_table_roundtrip;
          Alcotest.test_case "remove flow" `Quick test_flow_table_remove_flow;
          Alcotest.test_case "overwrite" `Quick test_flow_table_overwrite;
        ] );
      ( "balancer",
        [
          Alcotest.test_case "weights respected" `Quick test_pick_respects_weights;
          Alcotest.test_case "normalize" `Quick test_normalize;
          Alcotest.test_case "hierarchical compose" `Quick test_compose_hierarchical;
        ] );
      ( "fabric",
        [
          Alcotest.test_case "conformity" `Quick test_conformity;
          Alcotest.test_case "trace endpoints" `Quick test_trace_endpoints;
          Alcotest.test_case "flow affinity" `Quick test_flow_affinity;
          Alcotest.test_case "symmetric return" `Quick test_symmetric_return;
          Alcotest.test_case "reverse needs forward" `Quick test_reverse_without_forward_fails;
          Alcotest.test_case "load balancing spreads" `Quick test_load_balancing_spreads;
          Alcotest.test_case "weight skew respected" `Quick test_weight_skew_respected;
          Alcotest.test_case "affinity survives weight change" `Quick
            test_affinity_survives_weight_change;
          Alcotest.test_case "symmetric return after route change" `Quick
            test_symmetric_return_after_route_change;
          Alcotest.test_case "flow table sizes" `Quick test_flow_table_sizes;
          Alcotest.test_case "end flow clears state" `Quick test_end_flow_clears_state;
          Alcotest.test_case "no rule error" `Quick test_no_rule_error;
          Alcotest.test_case "apply_delta retracts" `Quick test_apply_delta_retracts;
          Alcotest.test_case "rule loop detected" `Quick test_rule_loop_detected;
          Alcotest.test_case "published weight" `Quick test_published_weight;
          Alcotest.test_case "same-site chain" `Quick test_same_site_chain;
          Alcotest.test_case "instance failure breaks pinned flows" `Quick
            test_instance_failure_breaks_pinned_flows;
          Alcotest.test_case "OpenNF transfer preserves affinity" `Quick
            test_transfer_flows_preserves_affinity;
          Alcotest.test_case "transfer rejects cross-VNF" `Quick
            test_transfer_flows_rejects_cross_vnf;
          Alcotest.test_case "transfer leaves others untouched" `Quick
            test_transfer_flows_other_connections_untouched;
          Alcotest.test_case "transfer across forwarders" `Quick
            test_transfer_flows_across_forwarders;
          Alcotest.test_case "forwarder failure (local) loses affinity" `Quick
            test_forwarder_failure_local_loses_affinity;
          Alcotest.test_case "forwarder failure (DHT) keeps affinity" `Quick
            test_forwarder_failure_replicated_keeps_affinity;
          Alcotest.test_case "forwarder-down error" `Quick test_forwarder_down_error;
          Alcotest.test_case "replicated-mode safety" `Quick test_replicated_mode_basic_safety;
          Alcotest.test_case "replication 0 rejected" `Quick test_replicated_zero_rejected;
          Alcotest.test_case "flow-table footprint" `Quick test_flow_table_footprint;
          Alcotest.test_case "unknown labels leave no state" `Quick
            test_unknown_labels_leave_no_state;
          Alcotest.test_case "clock range" `Quick test_clock_range;
          Alcotest.test_case "rule target range" `Quick test_rule_target_range;
        ] );
      ( "traffic_gen",
        [
          Alcotest.test_case "flow population" `Quick test_tgen_flow_population;
          Alcotest.test_case "uniform coverage" `Quick test_tgen_uniform_coverage;
          Alcotest.test_case "zipf skew" `Quick test_tgen_zipf_skew;
          Alcotest.test_case "IMIX sizes" `Quick test_tgen_imix_sizes;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "counters once per stage" `Quick test_counters_once_per_stage;
          Alcotest.test_case "isolated per chain" `Quick test_counters_isolated_per_chain;
          Alcotest.test_case "reset" `Quick test_counters_reset;
        ] );
      ( "dht_table",
        [
          Alcotest.test_case "put/get" `Quick test_dht_put_get;
          Alcotest.test_case "replication count" `Quick test_dht_replication_count;
          Alcotest.test_case "survives node failure" `Quick test_dht_survives_node_failure;
          Alcotest.test_case "re-replicates" `Quick test_dht_rereplicates_after_failure;
          Alcotest.test_case "k=1 loses on failure" `Quick test_dht_single_node_loses_on_failure;
          Alcotest.test_case "balance" `Quick test_dht_balance;
          Alcotest.test_case "minimal disruption on join" `Quick
            test_dht_minimal_disruption_on_join;
          Alcotest.test_case "empty ring" `Quick test_dht_empty_ring;
          Alcotest.test_case "remove key" `Quick test_dht_remove_key;
        ] );
      ( "ovs_model",
        [
          Alcotest.test_case "label overhead band" `Quick test_ovs_label_overhead_band;
          Alcotest.test_case "affinity overhead band" `Quick test_ovs_affinity_overhead_band;
          Alcotest.test_case "overhead shrinks with flows" `Quick
            test_ovs_overhead_shrinks_with_flows;
          Alcotest.test_case "throughput declines with flows" `Quick
            test_ovs_throughput_declines_with_flows;
          Alcotest.test_case "config ordering" `Quick test_ovs_config_ordering;
        ] );
      ( "ovs_pipeline",
        [
          Alcotest.test_case "upcall once per flow" `Quick test_pipeline_upcall_once_per_flow;
          Alcotest.test_case "affinity port stable" `Quick test_pipeline_affinity_port_stable;
          Alcotest.test_case "affinity spreads ports" `Quick test_pipeline_affinity_spreads_ports;
          Alcotest.test_case "first packet costs more" `Quick
            test_pipeline_first_packet_costs_more;
          Alcotest.test_case "matches analytic model" `Quick test_pipeline_matches_analytic_model;
          Alcotest.test_case "config ordering" `Quick test_pipeline_config_ordering;
        ] );
      ( "dpdk_model",
        [
          Alcotest.test_case "single core ~7 Mpps" `Quick test_dpdk_single_core_7mpps;
          Alcotest.test_case "6 cores > 20 Mpps" `Quick test_dpdk_six_cores_20mpps;
          Alcotest.test_case "marginal core gain 3-4 Mpps" `Quick test_dpdk_marginal_core_gain;
          Alcotest.test_case "steady state > 3 Mpps" `Quick test_dpdk_steady_state_3mpps;
          Alcotest.test_case "declines with flows" `Quick test_dpdk_throughput_declines_with_flows;
          Alcotest.test_case "latency profile" `Quick test_dpdk_latency_profile;
          Alcotest.test_case "80 Gbps extrapolation" `Quick test_dpdk_gbps_extrapolation;
          Alcotest.test_case "rejects bad args" `Quick test_dpdk_rejects_bad_args;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_safety_random_chains;
          QCheck_alcotest.to_alcotest prop_counter_window_semantics;
          QCheck_alcotest.to_alcotest prop_flow_table_stats_incremental;
          QCheck_alcotest.to_alcotest prop_dht_no_loss_under_churn;
          QCheck_alcotest.to_alcotest prop_balancer_hierarchical_convergence;
          QCheck_alcotest.to_alcotest prop_packed_equivalence_local;
          QCheck_alcotest.to_alcotest prop_packed_equivalence_replicated;
          QCheck_alcotest.to_alcotest prop_shard_identity_local;
          QCheck_alcotest.to_alcotest prop_shard_identity_replicated;
          QCheck_alcotest.to_alcotest prop_shard_equivalence_local;
          QCheck_alcotest.to_alcotest prop_shard_equivalence_replicated;
        ] );
    ]
