module Bus = Sb_msgbus.Bus
module Engine = Sb_sim.Engine
module BC = Sb_msgbus.Broadcast_compare

let delay50 s1 s2 = if s1 = s2 then 0. else 0.050

let make_bus ?(mode = Bus.Switchboard) ?(num_sites = 4) ?(egress_rate = 20_000.)
    ?(buffer = 64) () =
  let eng = Engine.create () in
  let bus = Bus.create eng ~mode ~num_sites ~delay:delay50 ~egress_rate ~buffer () in
  (eng, bus)

let test_basic_delivery () =
  let eng, bus = make_bus () in
  let got = ref [] in
  Bus.subscribe bus ~site:1 ~topic:"/t" (fun v -> got := v :: !got);
  ignore (Engine.schedule eng ~delay:1. (fun () -> Bus.publish bus ~site:0 ~topic:"/t" 42));
  Engine.run eng;
  Alcotest.(check (list int)) "payload delivered" [ 42 ] !got

let test_delivery_latency_is_wan_delay () =
  let eng, bus = make_bus () in
  let at = ref nan in
  Bus.subscribe bus ~site:1 ~topic:"/t" (fun () -> at := Engine.now eng);
  ignore (Engine.schedule eng ~delay:1. (fun () -> Bus.publish bus ~site:0 ~topic:"/t" ()));
  Engine.run eng;
  (* 1s publish + serialization (1/rate) + 50 ms WAN. *)
  Alcotest.(check (float 1e-3)) "arrival time" 1.0505 !at

let test_local_delivery_fast () =
  let eng, bus = make_bus () in
  let at = ref nan in
  Bus.subscribe bus ~site:0 ~topic:"/t" (fun () -> at := Engine.now eng);
  ignore (Engine.schedule eng ~delay:1. (fun () -> Bus.publish bus ~site:0 ~topic:"/t" ()));
  Engine.run eng;
  Alcotest.(check bool) "local delivery < 5 ms" true (!at -. 1.0 < 0.005)

let test_no_subscriber_no_wan_message () =
  let eng, bus = make_bus () in
  Bus.subscribe bus ~site:1 ~topic:"/other" (fun () -> ());
  ignore (Engine.schedule eng ~delay:1. (fun () -> Bus.publish bus ~site:0 ~topic:"/t" ()));
  Engine.run eng;
  let s = Bus.stats bus in
  Alcotest.(check int) "no wide-area copies" 0 s.Bus.wan_messages;
  Alcotest.(check int) "nothing delivered" 0 s.Bus.delivered

let test_one_wan_copy_per_site () =
  let eng, bus = make_bus ~num_sites:5 () in
  (* 3 subscribers at site 1, 2 at site 2 -> exactly 2 WAN messages. *)
  let count = ref 0 in
  for _ = 1 to 3 do
    Bus.subscribe bus ~site:1 ~topic:"/t" (fun () -> incr count)
  done;
  for _ = 1 to 2 do
    Bus.subscribe bus ~site:2 ~topic:"/t" (fun () -> incr count)
  done;
  ignore (Engine.schedule eng ~delay:1. (fun () -> Bus.publish bus ~site:0 ~topic:"/t" ()));
  Engine.run eng;
  let s = Bus.stats bus in
  Alcotest.(check int) "2 WAN copies" 2 s.Bus.wan_messages;
  Alcotest.(check int) "5 deliveries" 5 !count

(* Regression (pinned by the sb_chaos single-copy invariant): with
   multi-site subscription filters in place, every publish crosses each
   wide-area link at most once and reaches exactly the remote subscribing
   sites — one copy per site, none to non-subscribers. Counted at the
   egress fault hook, which sees every wide-area copy exactly once. *)
let test_single_wan_copy_per_link () =
  let eng, bus = make_bus ~num_sites:6 () in
  (* Overlapping filters: "/a" at sites {1,2} (site 1 thrice), "/b" at
     sites {2,4}. *)
  for _ = 1 to 3 do
    Bus.subscribe bus ~site:1 ~topic:"/a" (fun () -> ())
  done;
  Bus.subscribe bus ~site:2 ~topic:"/a" (fun () -> ());
  Bus.subscribe bus ~site:2 ~topic:"/b" (fun () -> ());
  Bus.subscribe bus ~site:4 ~topic:"/b" (fun () -> ());
  let copies = Hashtbl.create 64 in
  let seen_msgs = Hashtbl.create 16 in
  Bus.set_wan_hook bus (fun ~msg ~topic ~src ~dst ->
      Hashtbl.replace seen_msgs msg ();
      let k = (msg, src, dst) in
      Hashtbl.replace copies k (1 + (try Hashtbl.find copies k with Not_found -> 0));
      if not (List.mem dst (Bus.subscriber_sites bus ~topic)) then
        Alcotest.failf "msg %d sent to non-subscribing site %d (topic %s)" msg dst topic;
      if dst = src then Alcotest.failf "msg %d looped back to its source site" msg;
      Bus.Deliver);
  (* Ten publishes from rotating sites, alternating topics. *)
  for i = 0 to 9 do
    ignore
      (Engine.schedule eng
         ~delay:(0.1 *. float_of_int (i + 1))
         (fun () ->
           Bus.publish bus ~site:(i mod 3) ~topic:(if i mod 2 = 0 then "/a" else "/b") ()))
  done;
  Engine.run eng;
  Hashtbl.iter
    (fun (msg, src, dst) n ->
      if n > 1 then Alcotest.failf "msg %d crossed link %d->%d %d times" msg src dst n)
    copies;
  (* One copy per remote subscribing site: sums to 16 over the workload
     ("/a" from {0,1,2}: 2+1+1 copies; "/b" from {0,1,2}: 2+2+1). *)
  let total = Hashtbl.fold (fun _ n acc -> acc + n) copies 0 in
  Alcotest.(check int) "exact wide-area copy count" 16 total;
  Alcotest.(check int) "every publish produced wide-area copies" 10
    (Hashtbl.length seen_msgs);
  Alcotest.(check int) "stats agree with the hook" 16 (Bus.stats bus).Bus.wan_messages

let test_full_mesh_copy_per_subscriber () =
  let eng, bus = make_bus ~mode:Bus.Full_mesh ~num_sites:5 () in
  for _ = 1 to 3 do
    Bus.subscribe bus ~site:1 ~topic:"/t" (fun () -> ())
  done;
  for _ = 1 to 2 do
    Bus.subscribe bus ~site:2 ~topic:"/t" (fun () -> ())
  done;
  ignore (Engine.schedule eng ~delay:1. (fun () -> Bus.publish bus ~site:0 ~topic:"/t" ()));
  Engine.run eng;
  let s = Bus.stats bus in
  Alcotest.(check int) "5 WAN copies" 5 s.Bus.wan_messages

let test_retained_replay () =
  let eng, bus = make_bus () in
  let got = ref [] in
  (* Publish first, subscribe later: retained value is replayed. *)
  ignore
    (Engine.schedule eng ~delay:1. (fun () -> Bus.publish_retained bus ~site:0 ~topic:"/t" 7));
  ignore
    (Engine.schedule eng ~delay:2. (fun () ->
         Bus.subscribe bus ~site:1 ~topic:"/t" (fun v -> got := v :: !got)));
  Engine.run eng;
  Alcotest.(check (list int)) "retained replayed" [ 7 ] !got

let test_retained_keeps_last_value () =
  let eng, bus = make_bus () in
  let got = ref [] in
  ignore
    (Engine.schedule eng ~delay:1. (fun () -> Bus.publish_retained bus ~site:0 ~topic:"/t" 1));
  ignore
    (Engine.schedule eng ~delay:2. (fun () -> Bus.publish_retained bus ~site:0 ~topic:"/t" 2));
  ignore
    (Engine.schedule eng ~delay:3. (fun () ->
         Bus.subscribe bus ~site:1 ~topic:"/t" (fun v -> got := v :: !got)));
  Engine.run eng;
  Alcotest.(check (list int)) "last value only" [ 2 ] !got

let test_plain_publish_not_retained () =
  (* An event topic keeps nothing: a later subscriber sees only later
     publishes, and the bus holds no payload for it. *)
  let eng, bus = make_bus () in
  let got = ref [] in
  ignore (Engine.schedule eng ~delay:1. (fun () -> Bus.publish bus ~site:0 ~topic:"/t" 1));
  ignore
    (Engine.schedule eng ~delay:2. (fun () ->
         Bus.subscribe bus ~site:1 ~topic:"/t" (fun v -> got := v :: !got)));
  ignore (Engine.schedule eng ~delay:3. (fun () -> Bus.publish bus ~site:0 ~topic:"/t" 2));
  Engine.run eng;
  Alcotest.(check (list int)) "only the later publish" [ 2 ] !got;
  Alcotest.(check int) "nothing retained" 0 (Bus.retained_topics bus)

let test_topic_tables_hold_live_state () =
  (* Publishing to a topic nobody subscribes to, or asking who subscribes
     to it, makes no subscription entry; only a retained publish keeps a
     payload. *)
  let eng, bus = make_bus () in
  Bus.subscribe bus ~site:1 ~topic:"/t" (fun _ -> ());
  ignore
    (Engine.schedule eng ~delay:1. (fun () ->
         Bus.publish bus ~site:0 ~topic:"/event" 1;
         Bus.publish_retained bus ~site:0 ~topic:"/state" 2));
  Engine.run eng;
  Alcotest.(check (list int)) "no subscriber sites" []
    (Bus.subscriber_sites bus ~topic:"/event");
  Alcotest.(check int) "one subscribed topic" 1 (Bus.subscribed_topics bus);
  Alcotest.(check int) "one retained topic" 1 (Bus.retained_topics bus)

let test_publish_during_filter_flight () =
  (* Subscribe at t=1 from a remote site; publish at t=1.01 (< filter
     install): the message must still arrive (replay semantics). *)
  let eng, bus = make_bus () in
  let got = ref 0 in
  ignore
    (Engine.schedule eng ~delay:1. (fun () ->
         Bus.subscribe bus ~site:1 ~topic:"/t" (fun () -> incr got)));
  ignore (Engine.schedule eng ~delay:1.01 (fun () -> Bus.publish bus ~site:0 ~topic:"/t" ()));
  Engine.run eng;
  Alcotest.(check bool) "delivered at least once" true (!got >= 1)

let test_drops_on_buffer_overflow () =
  let eng, bus = make_bus ~egress_rate:10. ~buffer:4 () in
  Bus.subscribe bus ~site:1 ~topic:"/t" (fun () -> ());
  ignore
    (Engine.schedule eng ~delay:1. (fun () ->
         for _ = 1 to 100 do
           Bus.publish bus ~site:0 ~topic:"/t" ()
         done));
  Engine.run eng;
  let s = Bus.stats bus in
  Alcotest.(check bool) "drops occur" true (s.Bus.dropped > 0);
  Alcotest.(check int) "conservation" 100 (s.Bus.wan_messages + s.Bus.dropped)

let test_queueing_latency_under_load () =
  let eng, bus = make_bus ~egress_rate:100. ~buffer:1000 () in
  Bus.subscribe bus ~site:1 ~topic:"/t" (fun () -> ());
  ignore
    (Engine.schedule eng ~delay:1. (fun () ->
         for _ = 1 to 200 do
           Bus.publish bus ~site:0 ~topic:"/t" ()
         done));
  Engine.run eng;
  let s = Bus.stats bus in
  let lat = Sb_util.Stats.percentile 90. s.Bus.latencies in
  (* 200 messages at 100/s: the tail waits ~2 s. *)
  Alcotest.(check bool) "queueing visible in tail latency" true (lat > 1.0)

let test_latency_reservoir_bounded () =
  (* Push well past the reservoir capacity: memory stays bounded, the
     total count keeps the true tally, and the retained sample is a
     deterministic function of the delivery sequence. *)
  let run () =
    let eng, bus = make_bus ~num_sites:2 ~egress_rate:1e9 ~buffer:1_000_000 () in
    Bus.subscribe bus ~site:1 ~topic:"/t" (fun () -> ());
    for i = 0 to 19_999 do
      ignore
        (Engine.schedule eng
           ~delay:(1. +. (1e-4 *. float_of_int i))
           (fun () -> Bus.publish bus ~site:0 ~topic:"/t" ()))
    done;
    Engine.run eng;
    Bus.stats bus
  in
  let s1 = run () in
  Alcotest.(check int) "all samples counted" 20_000 s1.Bus.latency_count;
  Alcotest.(check int) "reservoir capped" 16_384 (List.length s1.Bus.latencies);
  let s2 = run () in
  Alcotest.(check bool) "retained sample deterministic" true
    (s1.Bus.latencies = s2.Bus.latencies)

let test_stats_reset () =
  let eng, bus = make_bus () in
  Bus.subscribe bus ~site:1 ~topic:"/t" (fun () -> ());
  ignore (Engine.schedule eng ~delay:1. (fun () -> Bus.publish bus ~site:0 ~topic:"/t" ()));
  Engine.run eng;
  Bus.reset_stats bus;
  let s = Bus.stats bus in
  Alcotest.(check int) "published reset" 0 s.Bus.published;
  Alcotest.(check int) "delivered reset" 0 s.Bus.delivered

let test_subscriber_sites () =
  let _, bus = make_bus ~num_sites:6 () in
  Bus.subscribe bus ~site:3 ~topic:"/t" (fun () -> ());
  Bus.subscribe bus ~site:1 ~topic:"/t" (fun () -> ());
  Bus.subscribe bus ~site:3 ~topic:"/t" (fun () -> ());
  Alcotest.(check (list int)) "distinct sorted sites" [ 1; 3 ]
    (Bus.subscriber_sites bus ~topic:"/t")


let test_reflector_floods_all_sites () =
  (* 6 sites, reflector at 5, subscribers only at site 1: publish from 0
     still produces 1 (to reflector) + 5 (flood) WAN messages. *)
  let eng, bus = make_bus ~mode:(Bus.Route_reflector 5) ~num_sites:6 () in
  Bus.subscribe bus ~site:1 ~topic:"/t" (fun () -> ());
  ignore (Engine.schedule eng ~delay:1. (fun () -> Bus.publish bus ~site:0 ~topic:"/t" ()));
  Engine.run eng;
  let s = Bus.stats bus in
  Alcotest.(check int) "floods every site" 6 s.Bus.wan_messages;
  Alcotest.(check int) "subscriber still served" 1 s.Bus.delivered

let test_reflector_two_hop_latency () =
  let eng, bus = make_bus ~mode:(Bus.Route_reflector 2) ~num_sites:4 () in
  let at = ref nan in
  Bus.subscribe bus ~site:1 ~topic:"/t" (fun () -> at := Engine.now eng);
  ignore (Engine.schedule eng ~delay:1. (fun () -> Bus.publish bus ~site:0 ~topic:"/t" ()));
  Engine.run eng;
  (* publisher -> reflector -> subscriber: two 50 ms hops + 2 serializations. *)
  Alcotest.(check (float 2e-3)) "two-hop delivery" 1.1001 !at

let test_reflector_bottleneck_vs_switchboard () =
  (* High publish rate from many sites: the single reflector's egress
     saturates long before Switchboard's per-site filters do. *)
  let run mode =
    let eng = Engine.create () in
    let bus = Bus.create eng ~mode ~num_sites:6 ~delay:delay50 ~egress_rate:500. ~buffer:10_000 () in
    Bus.subscribe bus ~site:1 ~topic:"/t" (fun () -> ());
    for i = 0 to 999 do
      ignore
        (Engine.schedule eng
           ~delay:(1. +. (0.002 *. float_of_int i))
           (fun () -> Bus.publish bus ~site:(2 + (i mod 4)) ~topic:"/t" ()))
    done;
    Engine.run eng;
    Sb_util.Stats.median (Bus.stats bus).Bus.latencies
  in
  let sb = run Bus.Switchboard in
  let rr = run (Bus.Route_reflector 0) in
  Alcotest.(check bool)
    (Printf.sprintf "reflector queues (rr %.3f vs sb %.3f)" rr sb)
    true (rr > 2. *. sb)

(* ----------------- Fig. 9 comparison (shape checks) ----------------- *)

let small_setup =
  { BC.default_setup with BC.num_sites = 6; subscribers_per_site = 6; duration = 5. }

let test_fig9_switchboard_saturates_later () =
  (* At a rate full-mesh cannot sustain, Switchboard still delivers. *)
  let rate = 150. in
  let sb = BC.run small_setup ~mode:Bus.Switchboard ~rate in
  let fm = BC.run small_setup ~mode:Bus.Full_mesh ~rate in
  Alcotest.(check bool) "SB goodput ~ offered" true (sb.BC.goodput > 0.95 *. rate);
  Alcotest.(check bool) "FM goodput collapses" true (fm.BC.goodput < 0.6 *. rate);
  Alcotest.(check bool) "FM drops" true (fm.BC.drop_fraction > 0.2);
  Alcotest.(check bool) "SB no drops" true (sb.BC.drop_fraction = 0.)

let test_fig9_latency_gap () =
  let rate = 150. in
  let sb = BC.run small_setup ~mode:Bus.Switchboard ~rate in
  let fm = BC.run small_setup ~mode:Bus.Full_mesh ~rate in
  Alcotest.(check bool) "order-of-magnitude latency gap" true
    (fm.BC.median_latency > 5. *. sb.BC.median_latency)

let test_fig9_wan_message_ratio () =
  let rate = 20. in
  let sb = BC.run small_setup ~mode:Bus.Switchboard ~rate in
  let fm = BC.run small_setup ~mode:Bus.Full_mesh ~rate in
  (* Full-mesh sends subscribers_per_site times more WAN messages. *)
  let ratio = float_of_int fm.BC.wan_messages /. float_of_int sb.BC.wan_messages in
  Alcotest.(check (float 0.5)) "message multiplicity" 6. ratio

let prop_delivery_count =
  QCheck.Test.make ~name:"every visible subscriber gets every message exactly once" ~count:30
    QCheck.(pair (int_range 1 5) (int_range 1 20))
    (fun (nsub_sites, nmsgs) ->
      let eng = Engine.create () in
      let bus =
        Bus.create eng ~mode:Bus.Switchboard ~num_sites:(nsub_sites + 1) ~delay:delay50
          ~egress_rate:1e6 ~buffer:100_000 ()
      in
      let counts = Array.make nsub_sites 0 in
      for s = 0 to nsub_sites - 1 do
        Bus.subscribe bus ~site:(s + 1) ~topic:"/t" (fun () -> counts.(s) <- counts.(s) + 1)
      done;
      for i = 1 to nmsgs do
        ignore
          (Engine.schedule eng ~delay:(1. +. float_of_int i) (fun () ->
               Bus.publish bus ~site:0 ~topic:"/t" ()))
      done;
      Engine.run eng;
      Array.for_all (fun c -> c = nmsgs) counts)

(* ----------------------- bytes-on-wire accounting -------------------- *)

let make_sized_bus ?bandwidth ?(topic_key = fun t -> t) ?(num_sites = 4) () =
  let eng = Engine.create () in
  let bus =
    Bus.create eng ~mode:Bus.Switchboard ~num_sites ~delay:delay50 ?bandwidth
      ~size_fn:String.length ~topic_key ()
  in
  (eng, bus)

let test_bytes_accounting () =
  let eng, bus = make_sized_bus () in
  (* One local subscriber and two remote sites: published once, two WAN
     copies — wan_bytes counts each wide-area copy. *)
  Bus.subscribe bus ~site:0 ~topic:"/t" (fun _ -> ());
  Bus.subscribe bus ~site:1 ~topic:"/t" (fun _ -> ());
  Bus.subscribe bus ~site:2 ~topic:"/t" (fun _ -> ());
  ignore (Engine.schedule eng ~delay:1. (fun () -> Bus.publish bus ~site:0 ~topic:"/t" "hello"));
  Engine.run eng;
  let s = Bus.stats bus in
  Alcotest.(check int) "published bytes" 5 s.Bus.published_bytes;
  Alcotest.(check int) "wan bytes = 2 copies" 10 s.Bus.wan_bytes;
  Alcotest.(check int) "size observations" 1 s.Bus.size_count;
  Alcotest.(check (list int)) "size reservoir" [ 5 ] s.Bus.sizes;
  Alcotest.(check (list (triple string int int)))
    "per-topic bytes"
    [ ("/t", 1, 5) ]
    s.Bus.topic_bytes

let test_topic_key_collapses_classes () =
  let key t = if String.length t >= 2 then String.sub t 0 2 else t in
  let eng, bus = make_sized_bus ~topic_key:key () in
  Bus.subscribe bus ~site:1 ~topic:"/a/1" (fun _ -> ());
  Bus.subscribe bus ~site:1 ~topic:"/a/2" (fun _ -> ());
  ignore (Engine.schedule eng ~delay:1. (fun () -> Bus.publish bus ~site:0 ~topic:"/a/1" "xx"));
  ignore (Engine.schedule eng ~delay:2. (fun () -> Bus.publish bus ~site:0 ~topic:"/a/2" "yyy"));
  Engine.run eng;
  let s = Bus.stats bus in
  Alcotest.(check (list (triple string int int)))
    "one class, summed"
    [ ("/a", 2, 5) ]
    s.Bus.topic_bytes

let test_bandwidth_prices_serialization () =
  (* bandwidth = 100 B/s and a 50 B payload: serialization is 0.5 s
     instead of the flat 1/egress_rate. Arrival = 1 (publish) + 0.5
     (serialize) + 0.05 (WAN). *)
  let eng, bus = make_sized_bus ~bandwidth:100. () in
  let at = ref nan in
  Bus.subscribe bus ~site:1 ~topic:"/t" (fun _ -> at := Engine.now eng);
  ignore
    (Engine.schedule eng ~delay:1. (fun () ->
         Bus.publish bus ~site:0 ~topic:"/t" (String.make 50 'x')));
  Engine.run eng;
  Alcotest.(check (float 1e-3)) "size-proportional arrival" 1.55 !at

let test_bytes_reset () =
  let eng, bus = make_sized_bus () in
  Bus.subscribe bus ~site:1 ~topic:"/t" (fun _ -> ());
  ignore (Engine.schedule eng ~delay:1. (fun () -> Bus.publish bus ~site:0 ~topic:"/t" "abc"));
  Engine.run eng;
  Bus.reset_stats bus;
  let s = Bus.stats bus in
  Alcotest.(check int) "published bytes reset" 0 s.Bus.published_bytes;
  Alcotest.(check int) "wan bytes reset" 0 s.Bus.wan_bytes;
  Alcotest.(check int) "size count reset" 0 s.Bus.size_count;
  Alcotest.(check (list (triple string int int))) "classes reset" [] s.Bus.topic_bytes

let () =
  Alcotest.run "sb_msgbus"
    [
      ( "bus",
        [
          Alcotest.test_case "basic delivery" `Quick test_basic_delivery;
          Alcotest.test_case "WAN delivery latency" `Quick test_delivery_latency_is_wan_delay;
          Alcotest.test_case "local delivery fast" `Quick test_local_delivery_fast;
          Alcotest.test_case "no subscriber, no WAN copy" `Quick test_no_subscriber_no_wan_message;
          Alcotest.test_case "one WAN copy per site" `Quick test_one_wan_copy_per_site;
          Alcotest.test_case "single WAN copy per link (regression)" `Quick
            test_single_wan_copy_per_link;
          Alcotest.test_case "full mesh per subscriber" `Quick
            test_full_mesh_copy_per_subscriber;
          Alcotest.test_case "retained replay" `Quick test_retained_replay;
          Alcotest.test_case "retained keeps last" `Quick test_retained_keeps_last_value;
          Alcotest.test_case "plain publish not retained" `Quick
            test_plain_publish_not_retained;
          Alcotest.test_case "topic tables hold live state" `Quick
            test_topic_tables_hold_live_state;
          Alcotest.test_case "publish during filter flight" `Quick
            test_publish_during_filter_flight;
          Alcotest.test_case "buffer overflow drops" `Quick test_drops_on_buffer_overflow;
          Alcotest.test_case "queueing latency" `Quick test_queueing_latency_under_load;
          Alcotest.test_case "latency reservoir bounded" `Quick
            test_latency_reservoir_bounded;
          Alcotest.test_case "stats reset" `Quick test_stats_reset;
          Alcotest.test_case "subscriber sites" `Quick test_subscriber_sites;
          Alcotest.test_case "reflector floods all sites" `Quick
            test_reflector_floods_all_sites;
          Alcotest.test_case "reflector two-hop latency" `Quick test_reflector_two_hop_latency;
          Alcotest.test_case "reflector bottleneck" `Quick
            test_reflector_bottleneck_vs_switchboard;
        ] );
      ( "fig9",
        [
          Alcotest.test_case "SB saturates later" `Slow test_fig9_switchboard_saturates_later;
          Alcotest.test_case "latency gap" `Slow test_fig9_latency_gap;
          Alcotest.test_case "WAN message ratio" `Quick test_fig9_wan_message_ratio;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "bytes on the wire" `Quick test_bytes_accounting;
          Alcotest.test_case "topic classes" `Quick test_topic_key_collapses_classes;
          Alcotest.test_case "bandwidth serialization" `Quick
            test_bandwidth_prices_serialization;
          Alcotest.test_case "bytes reset" `Quick test_bytes_reset;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_delivery_count ]);
    ]
