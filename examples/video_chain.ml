(* The Section 2 demo, reproduced on the simulated stack: a webcam behind a
   customer-premise equipment (CPE) box streams video to a laptop on the
   same premises; the customer activates a service chain that detours the
   stream through a face-blurring VNF hosted in a remote cloud.

   Before activation the default chain has no VNFs (CPE forwards camera ->
   laptop directly); after activation every connection traverses the remote
   face-blur instance, and replies return symmetrically.

   Run with: dune exec examples/video_chain.exe *)

module S = Sb_ctrl.System
module T = Sb_ctrl.Types
module E = Sb_sim.Engine
module Shard = Sb_dataplane.Shard
module Packet = Sb_dataplane.Packet

let face_blur = 42

let () =
  (* Site 0: the customer premises (CPE). Site 1: a remote public cloud. *)
  let delay a b = if a = b then 0. else 0.025 (* 25 ms each way to the cloud *) in
  let sys = S.create ~num_sites:2 ~delay ~gsb_site:1 ~install_latency:0.08 () in
  S.register_edge sys ~site:0 ~attachment:"webcam-subnet";
  S.register_edge sys ~site:0 ~attachment:"laptop-subnet";
  S.deploy_vnf sys ~vnf:face_blur ~site:1 ~capacity:30. ~instances:1;

  (* Phase 1: the default chain with no VNFs — traffic stays on the CPE. *)
  S.set_route_policy sys (fun spec ~exclude:_ ->
      match spec.T.vnfs with
      | [] -> Some [ { T.element_sites = [| 0; 0 |]; weight = 1.0 } ]
      | [ _ ] -> Some [ { T.element_sites = [| 0; 1; 0 |]; weight = 1.0 } ]
      | _ -> None);
  let default_chain =
    S.request_chain sys
      {
        T.spec_name = "camera-to-laptop (default)";
        ingress_attachment = "webcam-subnet";
        egress_attachment = "laptop-subnet";
        vnfs = [];
        traffic = 1.0;
      }
  in
  E.run (S.engine sys);
  let stream =
    { Packet.src_ip = 0x0A000001; dst_ip = 0x0A000002; proto = 17; src_port = 5004; dst_port = 5004 }
  in
  (match S.probe_chain sys ~chain:default_chain stream with
  | Ok trace ->
    Format.printf "before activation: video visits %d VNFs (raw stream, faces visible)@."
      (List.length (Shard.vnfs_in_trace (S.shard sys) trace))
  | Error e -> Format.printf "probe failed: %a@." Shard.pp_error e);

  (* Phase 2: the customer activates the face-blur chain from the portal. *)
  let t0 = E.now (S.engine sys) in
  let blur_chain =
    S.request_chain sys
      {
        T.spec_name = "camera-to-laptop (face blur)";
        ingress_attachment = "webcam-subnet";
        egress_attachment = "laptop-subnet";
        vnfs = [ face_blur ];
        traffic = 1.0;
      }
  in
  E.run (S.engine sys);
  Format.printf "chain activated through the portal in %.0f ms of control-plane time@."
    (1000. *. (E.now (S.engine sys) -. t0));

  (match S.probe_chain sys ~chain:blur_chain stream with
  | Ok trace ->
    Format.printf "after activation: video traverses VNFs %s (faces blurred)@."
      (String.concat ", "
         (List.map string_of_int (Shard.vnfs_in_trace (S.shard sys) trace)));
    (* End-to-end latency: 2 WAN crossings plus processing. *)
    Format.printf "added path latency: ~%.0f ms WAN transit per direction@."
      (1000. *. (delay 0 1 *. 2.))
  | Error e -> Format.printf "probe failed: %a@." Shard.pp_error e);

  (* Replies from the laptop return through the same instance (symmetric
     return), which the stateful blur function requires. *)
  match
    Shard.send_reverse (S.shard sys)
      ~egress:(Option.get (S.site_edge sys 0))
      ~chain_label:blur_chain ~egress_label:0 stream
  with
  | Ok trace ->
    Format.printf "reverse path traverses VNFs %s (symmetric return holds)@."
      (String.concat ", "
         (List.map string_of_int (Shard.vnfs_in_trace (S.shard sys) trace)))
  | Error e -> Format.printf "reverse probe failed: %a@." Shard.pp_error e
