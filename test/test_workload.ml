module W = Sb_net.Workload
module Tg = Sb_dataplane.Traffic_gen
module Plane = Sb_dataplane.Plane
module Schedule = Sb_chaos.Schedule
module Rng = Sb_util.Rng

let ticks = 12
let keys = 18

(* Every generator family at one seed — the catalog the properties sweep. *)
let gens seed =
  [
    W.flash_crowd ~seed ~ticks ~keys ();
    W.ddos ~seed ~ticks ~keys ();
    W.elephant_mice ~seed ~ticks ~keys ();
    W.regional_failover ~seed ~ticks ~keys ();
    W.diurnal ~seed ~ticks ~keys ();
    W.overlay
      (W.diurnal ~seed ~ticks ~keys ())
      (W.shift (ticks / 2)
         (W.scale 0.5 (W.flash_crowd ~seed:(seed + 1) ~ticks:(ticks - (ticks / 2)) ~keys ())));
  ]

let grid w =
  Array.init (W.ticks w) (fun t ->
      Array.init (W.keys w) (fun k -> W.demand w ~tick:t ~key:k))

let churn_curve w = Array.init (W.ticks w) (fun t -> W.churn w ~tick:t)

(* -------------------------- qcheck properties ----------------------- *)

(* Same seed, bit-identical replay: the full demand grid and churn curve
   of two independently constructed generators are float-equal. *)
let prop_seed_determinism =
  QCheck.Test.make ~name:"same seed replays bit-identically" ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      List.for_all2
        (fun a b -> grid a = grid b && churn_curve a = churn_curve b)
        (gens seed) (gens seed))

(* [demand] is pure: evaluating cells in a random order, with repeats,
   gives exactly the sequential grid — the generator accumulates no
   per-flow or per-tick state, which is what makes it constant-memory
   at a million keys. *)
let prop_constant_memory =
  QCheck.Test.make ~name:"demand is pure (order/repeat independent)" ~count:40
    QCheck.(pair (int_range 0 100_000) (int_range 0 1_000_000))
    (fun (seed, order_seed) ->
      let rng = Rng.create order_seed in
      List.for_all
        (fun w ->
          let g = grid w in
          let ok = ref true in
          for _ = 1 to 300 do
            let t = Rng.int rng (W.ticks w) and k = Rng.int rng (W.keys w) in
            if W.demand w ~tick:t ~key:k <> g.(t).(k) then ok := false
          done;
          !ok)
        (gens seed))

let total w t = W.total_demand w ~tick:t

let close_to a b =
  let scale = Float.max 1. (Float.max (Float.abs a) (Float.abs b)) in
  Float.abs (a -. b) <= 1e-9 *. scale

(* The conservation claims the combinator docs make. *)
let prop_combinators_conserve =
  QCheck.Test.make ~name:"overlay/scale/shift conserve total demand" ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let a = W.flash_crowd ~seed ~ticks ~keys () in
      let b = W.diurnal ~seed:(seed + 1) ~ticks ~keys () in
      let ov = W.overlay a b in
      let sc = W.scale 0.25 a in
      let sh = W.shift 3 a in
      let ok = ref true in
      for t = 0 to ticks - 1 do
        if not (close_to (total ov t) (total a t +. total b t)) then ok := false;
        if not (close_to (total sc t) (0.25 *. total a t)) then ok := false;
        (* shift is exact, not approximate: the same floats, displaced. *)
        for k = 0 to keys - 1 do
          if W.demand sh ~tick:(t + 3) ~key:k <> W.demand a ~tick:t ~key:k then
            ok := false
        done
      done;
      for t = 0 to 2 do
        if total sh t <> 0. then ok := false
      done;
      !ok)

(* Regional failover redistributes, never destroys, demand: the total is
   flat across the failure boundary. *)
let prop_failover_conserves =
  QCheck.Test.make ~name:"regional failover conserves total demand" ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let w = W.regional_failover ~seed ~ticks ~keys () in
      let t0 = total w 0 in
      let ok = ref true in
      for t = 1 to ticks - 1 do
        if not (close_to (total w t) t0) then ok := false
      done;
      !ok)

let prop_churn_bounded =
  QCheck.Test.make ~name:"churn stays in [0, 1]" ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      List.for_all
        (fun w ->
          Array.for_all (fun c -> c >= 0. && c <= 1.) (churn_curve w))
        (gens seed))

(* Streaming generator: same seed gives the same packets and the same
   churned tuples; the live window is constant while distinct grows. *)
let prop_stream_determinism =
  QCheck.Test.make ~name:"streaming traffic_gen replays bit-identically" ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let run () =
        let g = Tg.create_stream ~seed ~window:64 () in
        let acc = ref [] in
        for _ = 1 to 5 do
          for _ = 1 to 40 do
            acc := fst (Tg.next g) :: !acc
          done;
          Tg.churn g
            ~close:(fun tp -> acc := tp :: !acc)
            ~opened:(fun tp -> acc := tp :: !acc)
            17
        done;
        (!acc, Tg.live_flows g, Tg.distinct_flows g)
      in
      let a, la, da = run () in
      let b, lb, db = run () in
      a = b && la = lb && da = db && la = 64 && da = 64 + (5 * 17))

let qcheck_props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_seed_determinism;
      prop_constant_memory;
      prop_combinators_conserve;
      prop_failover_conserves;
      prop_churn_bounded;
      prop_stream_determinism;
    ]

(* ----------------------------- unit tests --------------------------- *)

let test_grid_bounds () =
  let w = W.flash_crowd ~seed:7 ~ticks ~keys () in
  Alcotest.(check int) "ticks" ticks (W.ticks w);
  Alcotest.(check int) "keys" keys (W.keys w);
  Alcotest.(check (float 0.)) "outside grid" 0. (W.demand w ~tick:ticks ~key:0);
  Alcotest.(check (float 0.)) "negative tick" 0. (W.demand w ~tick:(-1) ~key:0);
  Alcotest.check_raises "bad ticks"
    (Invalid_argument "Workload.flash_crowd: ticks must be positive") (fun () ->
      ignore (W.flash_crowd ~seed:7 ~ticks:0 ~keys ()))

let test_ramp_endpoints () =
  let w = W.constant ~ticks ~keys ~rate:2. in
  let r = W.ramp ~from_:1. ~to_:3. w in
  Alcotest.(check (float 1e-9)) "start factor" 2. (W.demand r ~tick:0 ~key:0);
  Alcotest.(check (float 1e-9)) "end factor" 6. (W.demand r ~tick:(ticks - 1) ~key:0)

let test_demand_into_matches () =
  let w = W.ddos ~seed:9 ~ticks ~keys () in
  let buf = Array.make keys 0. in
  W.demand_into w ~tick:3 buf;
  Array.iteri
    (fun k v -> Alcotest.(check (float 0.)) "demand_into cell" (W.demand w ~tick:3 ~key:k) v)
    buf

(* Schedule combinators mirror the workload vocabulary: window arithmetic
   on overlay/shift/stretch, and regional_outage builds one outage per
   site. *)
let test_schedule_combinators () =
  let s =
    Schedule.regional_outage ~seed:1 ~num_sites:6 ~horizon:10. ~sites:[ 1; 4 ]
      ~start:2. ~stop:8.
  in
  Alcotest.(check int) "outages" 2 (List.length s.Schedule.faults);
  let shifted = Schedule.shift 5. s in
  Alcotest.(check (float 1e-9)) "shift horizon" 15. shifted.Schedule.horizon;
  List.iter
    (fun f ->
      let start, stop = Schedule.window f in
      Alcotest.(check (float 1e-9)) "shift start" 7. start;
      Alcotest.(check (float 1e-9)) "shift stop" 13. stop)
    shifted.Schedule.faults;
  let stretched = Schedule.stretch 0.5 s in
  List.iter
    (fun f ->
      let start, stop = Schedule.window f in
      Alcotest.(check (float 1e-9)) "stretch start" 1. start;
      Alcotest.(check (float 1e-9)) "stretch stop" 4. stop)
    stretched.Schedule.faults;
  let both = Schedule.overlay s shifted in
  Alcotest.(check int) "overlay faults" 4 (List.length both.Schedule.faults);
  Alcotest.(check (float 1e-9)) "overlay horizon" 15. both.Schedule.horizon

(* Idle-flow expiry on the packed dataplane: flows driven at clock 0 are
   swept once the clock advances past the idle bound — except those a
   later packet refreshed — and the table count drops accordingly. *)
let test_plane_expiry () =
  let fab = Plane.create ~seed:7 () in
  let sa = Plane.add_site fab "A" in
  let fa = Plane.add_forwarder fab ~site:sa in
  let ein = Plane.add_edge fab ~site:sa ~forwarder:fa in
  let eout = Plane.add_edge fab ~site:sa ~forwarder:fa in
  Plane.install_rule fab ~forwarder:fa ~chain_label:1 ~egress_label:0 ~stage:0
    [ (Plane.Edge eout, 1.0) ];
  let rng = Rng.create 3 in
  let tuples = Array.init 50 (fun _ -> Sb_dataplane.Packet.random_tuple rng) in
  Plane.set_clock fab 0;
  Array.iter
    (fun tp ->
      Alcotest.(check bool) "delivered" true
        (Plane.drive fab ~ingress:ein ~chain_label:1 ~egress_label:0 ~size:64 tp))
    tuples;
  let count0 = Plane.flow_table_size fab ~forwarder:fa in
  Alcotest.(check int) "one entry per flow" 50 count0;
  (* Refresh 10 flows at clock 2, then sweep everything idle since 0. *)
  Plane.set_clock fab 2;
  for i = 0 to 9 do
    ignore (Plane.drive fab ~ingress:ein ~chain_label:1 ~egress_label:0 ~size:64 tuples.(i))
  done;
  let evicted = Plane.expire_flows fab ~idle_before:2 in
  Alcotest.(check int) "evicted the 40 idle flows" 40 evicted;
  Alcotest.(check int) "survivors" 10 (Plane.flow_table_size fab ~forwarder:fa);
  (* Survivors still forward without a rule lookup miss, and a second
     sweep at the same bound finds nothing. *)
  Alcotest.(check bool) "survivor still routed" true
    (Plane.drive fab ~ingress:ein ~chain_label:1 ~egress_label:0 ~size:64 tuples.(0));
  Alcotest.(check int) "idempotent sweep" 0 (Plane.expire_flows fab ~idle_before:2)

let () =
  Alcotest.run "sb_net.workload"
    [
      ( "unit",
        [
          Alcotest.test_case "grid bounds" `Quick test_grid_bounds;
          Alcotest.test_case "ramp endpoints" `Quick test_ramp_endpoints;
          Alcotest.test_case "demand_into" `Quick test_demand_into_matches;
          Alcotest.test_case "schedule combinators" `Quick test_schedule_combinators;
          Alcotest.test_case "plane idle-flow expiry" `Quick test_plane_expiry;
        ] );
      ("properties", qcheck_props);
    ]
