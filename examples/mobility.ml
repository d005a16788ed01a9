(* Location-independent service chaining (Section 6): a user's chain
   follows them to a new edge site. A worker uses a firewall chain from the
   office; when they connect from a cafe served by a different edge site,
   the Local Switchboard there pulls the chain's routes off the message
   bus, joins the nearest existing wide-area route, and traffic flows
   within well under a second — the Table 2 scenario.

   Run with: dune exec examples/mobility.exe *)

module S = Sb_ctrl.System
module T = Sb_ctrl.Types
module E = Sb_sim.Engine
module Shard = Sb_dataplane.Shard
module Packet = Sb_dataplane.Packet

let firewall = 9

let () =
  (* Sites: 0 = office, 1 = provider edge cloud (hosts the firewall),
     2 = datacenter (egress), 3 = cafe (new edge site). *)
  let delay a b = if a = b then 0. else 0.028 in
  let sys = S.create ~num_sites:4 ~delay ~gsb_site:2 ~install_latency:0.085 () in
  S.register_edge sys ~site:0 ~attachment:"office";
  S.register_edge sys ~site:2 ~attachment:"datacenter";
  S.register_edge sys ~site:3 ~attachment:"cafe";
  S.deploy_vnf sys ~vnf:firewall ~site:1 ~capacity:20. ~instances:2;
  S.set_route_policy sys (fun _spec ~exclude:_ ->
      Some [ { T.element_sites = [| 0; 1; 2 |]; weight = 1.0 } ]);

  let chain =
    S.request_chain sys
      {
        T.spec_name = "remote-work-firewall";
        ingress_attachment = "office";
        egress_attachment = "datacenter";
        vnfs = [ firewall ];
        traffic = 2.0;
      }
  in
  E.run (S.engine sys);
  Format.printf "chain created: office -> firewall@@edge -> datacenter@.";

  let flow = Packet.random_tuple (Sb_util.Rng.create 7) in
  (match S.probe_chain sys ~chain flow with
  | Ok _ -> Format.printf "traffic flows from the office: OK@."
  | Error e -> Format.printf "office probe failed: %a@." Shard.pp_error e);

  (* The user moves to the cafe. Its edge site is not on the chain route,
     so the first packet triggers the on-demand extension. *)
  let t0 = E.now (S.engine sys) in
  S.add_edge_site sys ~chain ~site:3;
  E.run (S.engine sys);
  Format.printf "@.edge-site extension to the cafe, step by step:@.";
  List.iter
    (fun (ts, msg) -> Format.printf "  %4.0f ms  %s@." (1000. *. (ts -. t0)) msg)
    (S.log_between sys t0 infinity);
  Format.printf "total: %.0f ms (paper Table 2: under 600 ms)@."
    (1000. *. (E.now (S.engine sys) -. t0));

  let cafe_flow = Packet.random_tuple (Sb_util.Rng.create 8) in
  match S.probe_chain sys ~chain ~ingress_site:3 cafe_flow with
  | Ok trace ->
    Format.printf "@.traffic from the cafe traverses VNFs %s: same chain, new location@."
      (String.concat ", "
         (List.map string_of_int (Shard.vnfs_in_trace (S.shard sys) trace)))
  | Error e -> Format.printf "cafe probe failed: %a@." Shard.pp_error e
