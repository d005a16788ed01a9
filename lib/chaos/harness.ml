module Engine = Sb_sim.Engine
module System = Sb_ctrl.System
module Store = Sb_music.Store
module Rng = Sb_util.Rng
open Sb_ctrl.Types

let num_sites = 6
let gsb_site = 0
let horizon = 20.
let default_epoch_len = 1.0
let probe_tuples = 4

(* Symmetric deterministic wide-area latency matrix, 12–21 ms. *)
let delay i j = if i = j then 0. else 0.012 +. (0.003 *. float_of_int ((i + j) mod 4))

type result = {
  schedule : Schedule.t;
  violations : Invariant.violation list;
  events : int; (* engine events processed after arming *)
  completed : bool; (* the engine drained within the event budget *)
}

let pp_result ppf r =
  if r.violations = [] then
    Format.fprintf ppf "OK: %d events, %s, no invariant violations" r.events
      (if r.completed then "quiesced" else "BUDGET EXHAUSTED")
  else begin
    Format.fprintf ppf "@[<v>%d violation(s) after %d events%s:"
      (List.length r.violations) r.events
      (if r.completed then "" else " (budget exhausted)");
    List.iter
      (fun v -> Format.fprintf ppf "@,  %a" Invariant.pp_violation v)
      r.violations;
    Format.fprintf ppf "@]"
  end

(* The standard deployment the schedules run against: 6 sites, 3 VNFs
   spread over the middle sites, 3 chains with 1–2 routes each, flow
   state in a k = 2 DHT over the forwarders (so crash/restart is
   survivable by design), a MUSIC store for coordinator recovery, and
   ample VNF capacity — admission rejections are a different experiment;
   here every violation should be an interleaving bug, not a capacity
   veto. *)

type spec_def = {
  sd_name : string;
  sd_vnfs : int list;
  sd_ingress : int;
  sd_egress : int;
  sd_traffic : float;
  sd_routes : (int array * float) list; (* committed at setup *)
  sd_alt : (int array * float) list; (* alternated in by mid-chaos updates *)
}

let specs =
  [
    {
      sd_name = "c0";
      sd_vnfs = [ 0; 1 ];
      sd_ingress = 0;
      sd_egress = 5;
      sd_traffic = 4.;
      sd_routes = [ ([| 0; 1; 2; 5 |], 0.5); ([| 0; 2; 3; 5 |], 0.5) ];
      sd_alt = [ ([| 0; 1; 2; 5 |], 0.75); ([| 0; 2; 3; 5 |], 0.25) ];
    };
    {
      sd_name = "c1";
      sd_vnfs = [ 1; 2 ];
      sd_ingress = 1;
      sd_egress = 4;
      sd_traffic = 3.;
      sd_routes = [ ([| 1; 2; 4; 4 |], 0.6); ([| 1; 3; 5; 4 |], 0.4) ];
      sd_alt = [ ([| 1; 2; 4; 4 |], 0.3); ([| 1; 3; 5; 4 |], 0.7) ];
    };
    {
      sd_name = "c2";
      sd_vnfs = [ 0; 1; 2 ];
      sd_ingress = 0;
      sd_egress = 5;
      sd_traffic = 2.;
      sd_routes = [ ([| 0; 1; 2; 4; 5 |], 1.0) ];
      sd_alt = [ ([| 0; 1; 2; 4; 5 |], 0.6); ([| 0; 2; 3; 5; 5 |], 0.4) ];
    };
  ]

let routes_of defs = List.map (fun (sites, w) -> { element_sites = sites; weight = w }) defs

let run ?(epoch_len = default_epoch_len) ?(event_budget = 2_000_000) ?(lanes = 1)
    (sched : Schedule.t) =
  let seed = sched.Schedule.seed in
  let sys =
    System.create ~seed:(seed + 1) ~retry_interval:0.4
      ~flow_store:(Sb_dataplane.Plane.Replicated 2) ~lanes ~num_sites ~delay
      ~gsb_site ()
  in
  let eng = System.engine sys in
  (* VNF 0 at sites 1,2; VNF 1 at 2,3; VNF 2 at 4,5. *)
  List.iter
    (fun (vnf, sites) ->
      List.iter
        (fun site -> System.deploy_vnf sys ~vnf ~site ~capacity:100. ~instances:2)
        sites)
    [ (0, [ 1; 2 ]); (1, [ 2; 3 ]); (2, [ 4; 5 ]) ];
  for s = 0 to num_sites - 1 do
    System.register_edge sys ~site:s ~attachment:(Printf.sprintf "site%d" s)
  done;
  System.set_route_policy sys (fun spec ~exclude:_ ->
      match List.find_opt (fun d -> d.sd_name = spec.spec_name) specs with
      | Some d -> Some (routes_of d.sd_routes)
      | None -> None);
  let store = Store.create eng ~replica_sites:[ 1; 3; 5 ] ~delay in
  System.attach_store sys store;
  let ids =
    List.map
      (fun d ->
        ( System.request_chain sys
            {
              spec_name = d.sd_name;
              ingress_attachment = Printf.sprintf "site%d" d.sd_ingress;
              egress_attachment = Printf.sprintf "site%d" d.sd_egress;
              vnfs = d.sd_vnfs;
              traffic = d.sd_traffic;
            },
          d ))
      specs
  in
  Engine.run eng;
  (* --- chains established; arm the schedule and the checker --- *)
  let inv = Invariant.create ~sys ~num_sites ~seed in
  List.iter
    (fun (chain, _) -> Invariant.register_chain inv ~chain ~tuples:probe_tuples)
    ids;
  (* Pin the probe connections' paths before any fault fires, so the
     affinity and durability checks have a fault-free baseline. *)
  Invariant.check_epoch inv;
  Inject.arm ~sys ~store
    ~observe:(fun ~msg ~topic ~src ~dst -> Invariant.observe_wan inv ~msg ~topic ~src ~dst)
    ~rng:(Rng.split ~stream:1 (Rng.create seed))
    sched;
  let t0 = Engine.now eng in
  let epochs = int_of_float (Float.round (sched.Schedule.horizon /. epoch_len)) in
  for e = 1 to epochs do
    let te = t0 +. (float_of_int e *. epoch_len) in
    ignore (Engine.schedule_at eng ~time:te (fun () -> Invariant.check_epoch inv));
    (* Every other epoch, roll a route update through the 2PC — the
       rollout racing the faults is where the interesting interleavings
       live. Alternate between the two route sets per chain. *)
    if e mod 2 = 0 then
      ignore
        (Engine.schedule_at eng ~time:(te +. (0.3 *. epoch_len)) (fun () ->
             List.iter
               (fun (chain, d) ->
                 let defs = if e mod 4 = 0 then d.sd_routes else d.sd_alt in
                 System.update_routes sys ~chain (routes_of defs))
               ids))
  done;
  (* Drain under an event budget: unbounded 2PC retransmission is safe by
     design (loss windows end, participants come back), but a bug that
     breaks quiescence should surface as a violation, not a hang. *)
  let events = ref 0 in
  let completed = ref true in
  (try
     while Engine.step eng do
       incr events;
       if !events >= event_budget then begin
         completed := false;
         raise Exit
       end
     done
   with Exit -> ());
  if !completed then Invariant.check_quiesce inv;
  let violations =
    Invariant.violations inv
    @
    if !completed then []
    else
      [ { Invariant.inv = "quiescence";
          detail = Printf.sprintf "engine still busy after %d events" event_budget;
        } ]
  in
  { schedule = sched; violations; events = !events; completed = !completed }

let run_seed ?epoch_len ?event_budget ?lanes seed =
  run ?epoch_len ?event_budget ?lanes
    (Schedule.generate ~seed ~horizon ~num_sites)

(* Greedy shrink: repeatedly take the first candidate that still
   violates, until none does. *)
let shrink_failing sched =
  let fails s = (run s).violations <> [] in
  let rec go s =
    match List.find_opt fails (Schedule.shrink s) with
    | Some smaller -> go smaller
    | None -> s
  in
  go sched

let search ~base_seed ~budget =
  let rec loop i =
    if i >= budget then None
    else begin
      let seed = base_seed + i in
      let r = run_seed seed in
      if r.violations = [] then loop (i + 1)
      else
        let minimal = shrink_failing r.schedule in
        Some (run minimal)
    end
  in
  loop 0
