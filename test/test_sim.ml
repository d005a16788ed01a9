module Engine = Sb_sim.Engine

let test_empty_run () =
  let e = Engine.create () in
  Engine.run e;
  Alcotest.(check (float 0.)) "clock stays at 0" 0. (Engine.now e)

let test_fires_in_time_order () =
  let e = Engine.create () in
  let order = ref [] in
  ignore (Engine.schedule e ~delay:3. (fun () -> order := 3 :: !order));
  ignore (Engine.schedule e ~delay:1. (fun () -> order := 1 :: !order));
  ignore (Engine.schedule e ~delay:2. (fun () -> order := 2 :: !order));
  Engine.run e;
  Alcotest.(check (list int)) "ascending time" [ 1; 2; 3 ] (List.rev !order)

let test_fifo_for_ties () =
  let e = Engine.create () in
  let order = ref [] in
  for i = 1 to 10 do
    ignore (Engine.schedule e ~delay:5. (fun () -> order := i :: !order))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "FIFO among equal times"
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
    (List.rev !order)

let test_clock_advances () =
  let e = Engine.create () in
  let seen = ref [] in
  ignore (Engine.schedule e ~delay:1.5 (fun () -> seen := Engine.now e :: !seen));
  ignore (Engine.schedule e ~delay:4.0 (fun () -> seen := Engine.now e :: !seen));
  Engine.run e;
  Alcotest.(check (list (float 1e-12))) "clock equals event times" [ 1.5; 4.0 ]
    (List.rev !seen)

let test_nested_scheduling () =
  let e = Engine.create () in
  let fired = ref [] in
  ignore
    (Engine.schedule e ~delay:1. (fun () ->
         fired := ("outer", Engine.now e) :: !fired;
         ignore
           (Engine.schedule e ~delay:2. (fun () ->
                fired := ("inner", Engine.now e) :: !fired))));
  Engine.run e;
  match List.rev !fired with
  | [ ("outer", t1); ("inner", t2) ] ->
    Alcotest.(check (float 1e-12)) "outer at 1" 1. t1;
    Alcotest.(check (float 1e-12)) "inner at 3" 3. t2
  | _ -> Alcotest.fail "expected two events"

let test_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let id = Engine.schedule e ~delay:1. (fun () -> fired := true) in
  Engine.cancel e id;
  Engine.run e;
  Alcotest.(check bool) "cancelled event does not fire" false !fired

let test_cancel_twice_is_noop () =
  let e = Engine.create () in
  let id = Engine.schedule e ~delay:1. (fun () -> ()) in
  Engine.cancel e id;
  Engine.cancel e id;
  Alcotest.(check int) "no pending" 0 (Engine.pending e);
  Engine.run e

let test_cancel_one_of_many () =
  let e = Engine.create () in
  let count = ref 0 in
  let _a = Engine.schedule e ~delay:1. (fun () -> incr count) in
  let b = Engine.schedule e ~delay:1. (fun () -> incr count) in
  let _c = Engine.schedule e ~delay:1. (fun () -> incr count) in
  Engine.cancel e b;
  Engine.run e;
  Alcotest.(check int) "two fire" 2 !count

let test_run_until () =
  let e = Engine.create () in
  let fired = ref [] in
  ignore (Engine.schedule e ~delay:1. (fun () -> fired := 1 :: !fired));
  ignore (Engine.schedule e ~delay:5. (fun () -> fired := 5 :: !fired));
  Engine.run_until e 3.;
  Alcotest.(check (list int)) "only early events" [ 1 ] (List.rev !fired);
  Alcotest.(check (float 1e-12)) "clock at horizon" 3. (Engine.now e);
  Alcotest.(check int) "late event pending" 1 (Engine.pending e);
  Engine.run e;
  Alcotest.(check (list int)) "late event eventually fires" [ 1; 5 ] (List.rev !fired)

let test_schedule_at () =
  let e = Engine.create () in
  let t = ref 0. in
  ignore (Engine.schedule_at e ~time:2.5 (fun () -> t := Engine.now e));
  Engine.run e;
  Alcotest.(check (float 1e-12)) "absolute time" 2.5 !t

let test_schedule_in_past_rejected () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~delay:1. (fun () -> ()));
  Engine.run e;
  Alcotest.check_raises "past time" (Invalid_argument "Engine.schedule_at: time in the past")
    (fun () -> ignore (Engine.schedule_at e ~time:0.5 (fun () -> ())))

let test_negative_delay_rejected () =
  let e = Engine.create () in
  Alcotest.check_raises "negative delay" (Invalid_argument "Engine.schedule: negative delay")
    (fun () -> ignore (Engine.schedule e ~delay:(-1.) (fun () -> ())))

(* NaN compares false with everything, so range checks alone would let it
   into the event heap. *)
let test_nan_rejected () =
  let e = Engine.create () in
  let nan_raises msg f = Alcotest.check_raises msg (Invalid_argument msg) f in
  nan_raises "Engine.schedule: NaN delay" (fun () ->
      ignore (Engine.schedule e ~delay:Float.nan ignore));
  nan_raises "Engine.schedule_at: NaN time" (fun () ->
      ignore (Engine.schedule_at e ~time:Float.nan ignore));
  nan_raises "Engine.run_until: NaN horizon" (fun () -> Engine.run_until e Float.nan);
  Alcotest.(check int) "nothing queued" 0 (Engine.pending e)

let test_pending_count () =
  let e = Engine.create () in
  Alcotest.(check int) "empty" 0 (Engine.pending e);
  let _ = Engine.schedule e ~delay:1. (fun () -> ()) in
  let _ = Engine.schedule e ~delay:2. (fun () -> ()) in
  Alcotest.(check int) "two pending" 2 (Engine.pending e);
  Engine.run e;
  Alcotest.(check int) "drained" 0 (Engine.pending e)

let test_many_events_stress () =
  let e = Engine.create () in
  let rng = Sb_util.Rng.create 99 in
  let n = 20_000 in
  let count = ref 0 in
  let last = ref (-1.) in
  for _ = 1 to n do
    let d = Sb_util.Rng.float rng 100. in
    ignore
      (Engine.schedule e ~delay:d (fun () ->
           incr count;
           Alcotest.(check bool) "non-decreasing clock" true (Engine.now e >= !last);
           last := Engine.now e))
  done;
  Engine.run e;
  Alcotest.(check int) "all fired" n !count

let test_zero_delay () =
  let e = Engine.create () in
  let fired = ref false in
  ignore (Engine.schedule e ~delay:0. (fun () -> fired := true));
  Engine.run e;
  Alcotest.(check bool) "zero-delay fires" true !fired

let prop_event_order =
  QCheck.Test.make ~name:"events fire sorted by time" ~count:100
    QCheck.(list_of_size Gen.(1 -- 100) (float_bound_inclusive 1000.))
    (fun delays ->
      let e = Engine.create () in
      let times = ref [] in
      List.iter
        (fun d -> ignore (Engine.schedule e ~delay:d (fun () -> times := Engine.now e :: !times)))
        delays;
      Engine.run e;
      let fired = List.rev !times in
      fired = List.sort compare fired && List.length fired = List.length delays)

let () =
  Alcotest.run "sb_sim"
    [
      ( "engine",
        [
          Alcotest.test_case "empty run" `Quick test_empty_run;
          Alcotest.test_case "time order" `Quick test_fires_in_time_order;
          Alcotest.test_case "FIFO ties" `Quick test_fifo_for_ties;
          Alcotest.test_case "clock advances" `Quick test_clock_advances;
          Alcotest.test_case "nested scheduling" `Quick test_nested_scheduling;
          Alcotest.test_case "cancel" `Quick test_cancel;
          Alcotest.test_case "cancel twice" `Quick test_cancel_twice_is_noop;
          Alcotest.test_case "cancel one of many" `Quick test_cancel_one_of_many;
          Alcotest.test_case "run_until" `Quick test_run_until;
          Alcotest.test_case "schedule_at" `Quick test_schedule_at;
          Alcotest.test_case "past rejected" `Quick test_schedule_in_past_rejected;
          Alcotest.test_case "negative delay rejected" `Quick test_negative_delay_rejected;
          Alcotest.test_case "NaN rejected" `Quick test_nan_rejected;
          Alcotest.test_case "pending count" `Quick test_pending_count;
          Alcotest.test_case "stress 20k events" `Slow test_many_events_stress;
          Alcotest.test_case "zero delay" `Quick test_zero_delay;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_event_order ]);
    ]
