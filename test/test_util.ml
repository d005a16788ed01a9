module Rng = Sb_util.Rng
module Zipf = Sb_util.Zipf
module Stats = Sb_util.Stats
module Convex_cost = Sb_util.Convex_cost
module Table = Sb_util.Table

let check_float = Alcotest.(check (float 1e-9))
let check_close msg ~tolerance expected actual =
  Alcotest.(check (float tolerance)) msg expected actual

(* ------------------------------ Rng ------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Rng.bits64 a <> Rng.bits64 b then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_rng_int_range () =
  let rng = Rng.create 7 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 13 in
    Alcotest.(check bool) "in [0, 13)" true (v >= 0 && v < 13)
  done

let test_rng_int_rejects_bad_bound () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_float_range () =
  let rng = Rng.create 3 in
  for _ = 1 to 10_000 do
    let v = Rng.float rng 2.5 in
    Alcotest.(check bool) "in [0, 2.5)" true (v >= 0. && v < 2.5)
  done

let test_rng_float_mean () =
  let rng = Rng.create 11 in
  let n = 50_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.float rng 1.0
  done;
  check_close "mean near 0.5" ~tolerance:0.01 0.5 (!sum /. float_of_int n)

let test_rng_split_independent () =
  let parent = Rng.create 5 in
  let child = Rng.split parent in
  (* Child and parent produce different streams after the split. *)
  let same = ref 0 in
  for _ = 1 to 20 do
    if Rng.bits64 parent = Rng.bits64 child then incr same
  done;
  Alcotest.(check bool) "streams diverge" true (!same < 3)

let test_rng_split_stream_deterministic () =
  (* Stream splitting is a pure function of (parent state, index): the
     parent is not advanced, and the same index always yields the same
     child — the lane-seeding contract of the sharded dataplane. *)
  let p1 = Rng.create 77 and p2 = Rng.create 77 in
  for i = 0 to 5 do
    Alcotest.(check int64)
      (Printf.sprintf "stream %d reproducible" i)
      (Rng.bits64 (Rng.split ~stream:i p1))
      (Rng.bits64 (Rng.split ~stream:i p2))
  done;
  Alcotest.(check int64) "parent state untouched by stream splits"
    (Rng.bits64 p1) (Rng.bits64 p2)

let test_rng_split_stream_zero_matches_plain () =
  (* [split ~stream:0] must equal a plain [split] taken at the same
     parent state (plain split then advances the parent). *)
  let a = Rng.create 31 and b = Rng.create 31 in
  Alcotest.(check int64) "stream 0 == plain split"
    (Rng.bits64 (Rng.split ~stream:0 a))
    (Rng.bits64 (Rng.split b))

let test_rng_split_streams_distinct () =
  let parent = Rng.create 9 in
  let firsts = List.init 16 (fun i -> Rng.bits64 (Rng.split ~stream:i parent)) in
  Alcotest.(check int) "16 streams, 16 distinct first draws" 16
    (List.length (List.sort_uniq compare firsts))

let test_rng_split_stream_rejects_negative () =
  let parent = Rng.create 1 in
  Alcotest.check_raises "negative stream"
    (Invalid_argument "Rng.split: stream must be non-negative") (fun () ->
      ignore (Rng.split ~stream:(-1) parent))

let test_rng_copy_snapshot () =
  let a = Rng.create 9 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.bits64 a) (Rng.bits64 b)

let test_rng_exponential_mean () =
  let rng = Rng.create 21 in
  let n = 100_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential rng 2.0
  done;
  check_close "mean near 1/rate" ~tolerance:0.01 0.5 (!sum /. float_of_int n)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 13 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_sample_without_replacement () =
  let rng = Rng.create 17 in
  let s = Rng.sample_without_replacement rng 10 100 in
  Alcotest.(check int) "10 samples" 10 (List.length s);
  Alcotest.(check int) "distinct" 10 (List.length (List.sort_uniq compare s));
  List.iter (fun v -> Alcotest.(check bool) "in range" true (v >= 0 && v < 100)) s

let test_rng_sample_full_range () =
  let rng = Rng.create 19 in
  let s = Rng.sample_without_replacement rng 5 5 in
  Alcotest.(check (list int)) "all items" [ 0; 1; 2; 3; 4 ] (List.sort compare s)

let test_rng_weighted_index () =
  let rng = Rng.create 23 in
  let weights = [| 1.; 0.; 3. |] in
  let counts = Array.make 3 0 in
  for _ = 1 to 40_000 do
    let i = Rng.weighted_index rng weights in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check int) "zero-weight never chosen" 0 counts.(1);
  let ratio = float_of_int counts.(2) /. float_of_int counts.(0) in
  check_close "3:1 ratio" ~tolerance:0.2 3.0 ratio

let test_rng_weighted_index_rejects () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "all zero"
    (Invalid_argument "Rng.weighted_index: zero total weight") (fun () ->
      ignore (Rng.weighted_index rng [| 0.; 0. |]))

(* The packed dataplane's draw: the same index and the same state advance
   as [weighted_index] over the raw weights, without allocating. *)
let test_rng_weighted_index_cum () =
  let gen = Rng.create 29 in
  let a = Rng.create 31 and b = Rng.create 31 in
  for _ = 1 to 2_000 do
    let n = 1 + Rng.int gen 6 in
    let weights =
      Array.init n (fun _ -> if Rng.int gen 4 = 0 then 0. else Rng.float gen 3.)
    in
    weights.(Rng.int gen n) <- 0.5;
    let cum = Array.make (n + 2) 0. in
    let acc = ref 0. in
    Array.iteri
      (fun i w ->
        acc := !acc +. w;
        cum.(i + 1) <- !acc)
      weights;
    Alcotest.(check int) "same index" (Rng.weighted_index a weights)
      (Rng.weighted_index_cum b cum ~off:1 ~len:n)
  done;
  Alcotest.(check int64) "same state afterwards" (Rng.bits64 a) (Rng.bits64 b);
  Alcotest.check_raises "empty"
    (Invalid_argument "Rng.weighted_index: zero total weight") (fun () ->
      ignore (Rng.weighted_index_cum b [| 1. |] ~off:0 ~len:0));
  if Sys.backend_type = Sys.Native then begin
    let cum = [| 0.25; 0.5; 1.0 |] in
    let sink = ref 0 in
    let w0 = Gc.minor_words () in
    for _ = 1 to 10_000 do
      sink := !sink + Rng.weighted_index_cum b cum ~off:0 ~len:3
    done;
    let words = Gc.minor_words () -. w0 in
    if words > 100. then Alcotest.failf "10k draws allocated %.0f minor words" words;
    ignore (Sys.opaque_identity !sink)
  end

(* ------------------------------ Zipf ------------------------------ *)

let test_zipf_probabilities_sum () =
  let z = Zipf.create ~n:100 ~s:1.0 in
  let sum = ref 0. in
  for r = 0 to 99 do
    sum := !sum +. Zipf.probability z r
  done;
  check_close "probabilities sum to 1" ~tolerance:1e-9 1.0 !sum

let test_zipf_monotone () =
  let z = Zipf.create ~n:50 ~s:1.2 in
  for r = 1 to 49 do
    Alcotest.(check bool) "decreasing popularity" true
      (Zipf.probability z (r - 1) >= Zipf.probability z r)
  done

let test_zipf_sample_range () =
  let z = Zipf.create ~n:10 ~s:1.0 in
  let rng = Rng.create 3 in
  for _ = 1 to 10_000 do
    let r = Zipf.sample z rng in
    Alcotest.(check bool) "rank in range" true (r >= 0 && r < 10)
  done

let test_zipf_empirical_matches () =
  let n = 20 in
  let z = Zipf.create ~n ~s:1.0 in
  let rng = Rng.create 7 in
  let counts = Array.make n 0 in
  let trials = 200_000 in
  for _ = 1 to trials do
    let r = Zipf.sample z rng in
    counts.(r) <- counts.(r) + 1
  done;
  for r = 0 to 4 do
    let emp = float_of_int counts.(r) /. float_of_int trials in
    check_close (Printf.sprintf "rank %d frequency" r) ~tolerance:0.01
      (Zipf.probability z r) emp
  done

let test_zipf_uniform_when_s_zero () =
  let z = Zipf.create ~n:4 ~s:0. in
  for r = 0 to 3 do
    check_float "uniform" 0.25 (Zipf.probability z r)
  done

(* ------------------------------ Stats ------------------------------ *)

let test_stats_mean () =
  check_float "mean" 2.5 (Stats.mean [ 1.; 2.; 3.; 4. ]);
  check_float "empty mean" 0. (Stats.mean [])

let test_stats_stddev () =
  check_float "constant stddev" 0. (Stats.stddev [ 5.; 5.; 5. ]);
  check_close "known stddev" ~tolerance:1e-9 2.0 (Stats.stddev [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ])

let test_stats_percentile () =
  let xs = [ 1.; 2.; 3.; 4.; 5. ] in
  check_float "p0" 1. (Stats.percentile 0. xs);
  check_float "p50" 3. (Stats.percentile 50. xs);
  check_float "p100" 5. (Stats.percentile 100. xs);
  check_float "p25 interpolates" 2. (Stats.percentile 25. xs)

let test_stats_percentile_single () =
  check_float "singleton" 7. (Stats.percentile 99. [ 7. ])

let test_stats_min_max () =
  let lo, hi = Stats.min_max [ 3.; 1.; 2. ] in
  check_float "min" 1. lo;
  check_float "max" 3. hi

let test_stats_weighted_mean () =
  check_float "weighted" 3.0 (Stats.weighted_mean [ (2., 1.); (4., 1.) ]);
  check_float "weights matter" 3.5 (Stats.weighted_mean [ (2., 1.); (4., 3.) ])

let test_stats_summary () =
  let s = Stats.summarize [ 1.; 2.; 3.; 4.; 5. ] in
  Alcotest.(check int) "count" 5 s.Stats.count;
  check_float "mean" 3. s.Stats.mean;
  check_float "p50" 3. s.Stats.p50

(* --------------------------- Convex cost --------------------------- *)

let test_convex_zero () = check_float "cost at 0" 0. (Convex_cost.cost 0.)

let test_convex_increasing () =
  let prev = ref (-1.) in
  List.iter
    (fun u ->
      let c = Convex_cost.cost u in
      Alcotest.(check bool) "increasing" true (c > !prev);
      prev := c)
    [ 0.1; 0.3; 0.5; 0.7; 0.9; 1.0; 1.2 ]

let test_convex_convexity () =
  (* Midpoint rule on a few sample pairs. *)
  List.iter
    (fun (a, b) ->
      let mid = Convex_cost.cost ((a +. b) /. 2.) in
      let avg = (Convex_cost.cost a +. Convex_cost.cost b) /. 2. in
      Alcotest.(check bool) "midpoint below average" true (mid <= avg +. 1e-9))
    [ (0., 1.); (0.2, 0.9); (0.5, 1.3); (0.8, 1.2) ]

let test_convex_slopes () =
  check_float "slope below 1/3" 1. (Convex_cost.marginal_cost 0.1);
  check_float "slope near 1" 500. (Convex_cost.marginal_cost 1.05);
  check_float "slope beyond 1.1" 5000. (Convex_cost.marginal_cost 2.)

let test_convex_piecewise_value () =
  (* cost(2/3) = 1/3 * 1 + 1/3 * 3 = 4/3 *)
  check_close "breakpoint value" ~tolerance:1e-9 (4. /. 3.) (Convex_cost.cost (2. /. 3.))

let test_convex_rejects_negative () =
  Alcotest.check_raises "negative utilization"
    (Invalid_argument "Convex_cost.cost: negative utilization") (fun () ->
      ignore (Convex_cost.cost (-0.1)))

(* ------------------------------ Table ------------------------------ *)

let test_table_render () =
  let t = Table.create ~header:[ "a"; "bb" ] in
  Table.add_row t [ "1"; "2" ];
  let s = Table.render t in
  Alcotest.(check bool) "contains header" true
    (String.length s > 0 && String.sub s 0 1 = "a")

let test_table_arity () =
  let t = Table.create ~header:[ "a"; "b" ] in
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Table.add_row: arity mismatch with header") (fun () ->
      Table.add_row t [ "only one" ])

(* ------------------------------ Heap ------------------------------- *)

module Heap = Sb_util.Heap

let test_heap_empty () =
  let h = Heap.create () in
  Alcotest.(check bool) "is_empty" true (Heap.is_empty h);
  Alcotest.(check int) "length 0" 0 (Heap.length h);
  Alcotest.(check (option (pair (float 0.) int))) "pop on empty" None (Heap.pop_min h);
  Alcotest.(check (option (pair (float 0.) int))) "peek on empty" None (Heap.peek_min h)

let test_heap_sorted_drain () =
  let h = Heap.create () in
  let rng = Rng.create 31 in
  let n = 500 in
  for v = 0 to n - 1 do
    Heap.push h ~prio:(Rng.float rng 100.) v
  done;
  Alcotest.(check int) "length after pushes" n (Heap.length h);
  let prev = ref neg_infinity in
  let popped = ref 0 in
  let rec drain () =
    match Heap.pop_min h with
    | None -> ()
    | Some (p, _) ->
      Alcotest.(check bool) "non-decreasing priorities" true (p >= !prev);
      prev := p;
      incr popped;
      drain ()
  in
  drain ();
  Alcotest.(check int) "all elements popped" n !popped;
  Alcotest.(check bool) "empty after drain" true (Heap.is_empty h)

let test_heap_tie_break_on_payload () =
  (* Equal priorities must pop in ascending payload order: Dijkstra's
     determinism (and hence the routing goldens) depends on it. *)
  let h = Heap.create () in
  List.iter (fun v -> Heap.push h ~prio:1. v) [ 9; 3; 7; 1; 5 ];
  let order = List.init 5 (fun _ -> match Heap.pop_min h with Some (_, v) -> v | None -> -1) in
  Alcotest.(check (list int)) "ascending payloads" [ 1; 3; 5; 7; 9 ] order

let test_heap_grows_past_capacity () =
  let h = Heap.create ~capacity:2 () in
  for v = 0 to 99 do
    Heap.push h ~prio:(float_of_int (100 - v)) v
  done;
  Alcotest.(check int) "all retained" 100 (Heap.length h);
  Alcotest.(check (option (pair (float 0.) int))) "min is last pushed"
    (Some (1., 99)) (Heap.pop_min h)

let test_heap_peek_does_not_remove () =
  let h = Heap.create () in
  Heap.push h ~prio:2. 1;
  Heap.push h ~prio:1. 2;
  Alcotest.(check (option (pair (float 0.) int))) "peek min" (Some (1., 2)) (Heap.peek_min h);
  Alcotest.(check int) "length unchanged" 2 (Heap.length h)

let test_heap_clear () =
  let h = Heap.create () in
  Heap.push h ~prio:1. 1;
  Heap.clear h;
  Alcotest.(check bool) "empty after clear" true (Heap.is_empty h);
  Heap.push h ~prio:3. 7;
  Alcotest.(check (option (pair (float 0.) int))) "usable after clear" (Some (3., 7))
    (Heap.pop_min h)

(* ------------------------------- Par ------------------------------- *)

module Par = Sb_util.Par

let check_par_covers ~domains n =
  let hits = Array.make (max n 1) 0 in
  Par.map_chunks ?domains ~n (fun lo hi ->
      for i = lo to hi - 1 do
        hits.(i) <- hits.(i) + 1
      done);
  Array.iteri
    (fun i c ->
      if i < n then
        Alcotest.(check int) (Printf.sprintf "index %d covered once" i) 1 c)
    hits

let test_par_covers_sequential () = check_par_covers ~domains:(Some 1) 100
let test_par_covers_parallel () = check_par_covers ~domains:(Some 4) 1000
let test_par_more_domains_than_work () = check_par_covers ~domains:(Some 8) 3
let test_par_empty_range () = check_par_covers ~domains:(Some 4) 0
let test_par_default_domains () =
  Alcotest.(check bool) "at least one domain" true (Par.default_domains () >= 1);
  check_par_covers ~domains:None 257

let test_par_parallel_sum_matches () =
  let n = 10_000 in
  let out = Array.make n 0 in
  Par.map_chunks ~domains:4 ~n (fun lo hi ->
      for i = lo to hi - 1 do
        out.(i) <- i * i
      done);
  let expect = Array.init n (fun i -> i * i) in
  Alcotest.(check bool) "disjoint writes compose" true (out = expect)

(* ------------------------------- Pool ------------------------------ *)

module Pool = Sb_util.Pool

let test_pool_runs_every_worker () =
  let p = Pool.create ~workers:4 () in
  Alcotest.(check int) "size" 4 (Pool.size p);
  let hits = Array.make 4 0 in
  (* Disjoint per-worker writes; repeated runs reuse the same domains. *)
  for _ = 1 to 50 do
    Pool.run p (fun w -> hits.(w) <- hits.(w) + 1)
  done;
  Pool.shutdown p;
  Array.iteri (fun w c -> Alcotest.(check int) (Printf.sprintf "worker %d" w) 50 c) hits

let test_pool_parallel_work_composes () =
  let p = Pool.create ~workers:3 () in
  let n = 9_000 in
  let out = Array.make n 0 in
  Pool.run p (fun w ->
      let chunk = n / 3 in
      for i = w * chunk to ((w + 1) * chunk) - 1 do
        out.(i) <- i * i
      done);
  Pool.shutdown p;
  Alcotest.(check bool) "disjoint writes compose" true
    (out = Array.init n (fun i -> i * i))

let test_pool_propagates_exception () =
  let p = Pool.create ~workers:2 () in
  let raised =
    try
      Pool.run p (fun w -> if w = 1 then failwith "boom");
      false
    with Failure m -> m = "boom"
  in
  Alcotest.(check bool) "worker exception re-raised in caller" true raised;
  (* The pool survives a failed job. *)
  let ok = ref 0 in
  let m = Mutex.create () in
  Pool.run p (fun _ -> Mutex.lock m; incr ok; Mutex.unlock m);
  Pool.shutdown p;
  Alcotest.(check int) "usable after failure" 2 !ok

let test_pool_shutdown_idempotent () =
  let p = Pool.create ~workers:2 () in
  Pool.run p (fun _ -> ());
  Pool.shutdown p;
  Pool.shutdown p;
  Alcotest.check_raises "run after shutdown"
    (Invalid_argument "Pool.run: pool is shut down") (fun () ->
      Pool.run p (fun _ -> ()))

let test_spsc_fifo_order () =
  let r = Pool.Spsc.create 8 in
  Alcotest.(check int) "empty pop" (-1) (Pool.Spsc.pop r);
  for i = 0 to 5 do
    Alcotest.(check bool) "push accepted" true (Pool.Spsc.push r i)
  done;
  Alcotest.(check int) "length" 6 (Pool.Spsc.length r);
  for i = 0 to 5 do
    Alcotest.(check int) "FIFO" i (Pool.Spsc.pop r)
  done;
  Alcotest.(check int) "drained" (-1) (Pool.Spsc.pop r)

let test_spsc_full_and_reuse () =
  let r = Pool.Spsc.create 4 in
  Alcotest.(check int) "capacity as given" 4 (Pool.Spsc.capacity r);
  for i = 0 to 3 do
    Alcotest.(check bool) "fills" true (Pool.Spsc.push r (100 + i))
  done;
  Alcotest.(check bool) "full rejects" false (Pool.Spsc.push r 999);
  Alcotest.(check int) "pop head" 100 (Pool.Spsc.pop r);
  Alcotest.(check bool) "slot freed" true (Pool.Spsc.push r 999);
  (* Wrap around the ring a few times. *)
  for i = 0 to 9 do
    ignore (Pool.Spsc.pop r);
    ignore (Pool.Spsc.push r i)
  done;
  Alcotest.(check int) "still full" 4 (Pool.Spsc.length r)

let test_spsc_rounds_capacity () =
  Alcotest.(check int) "rounds up to power of two" 8
    (Pool.Spsc.capacity (Pool.Spsc.create 5));
  Alcotest.check_raises "negative value"
    (Invalid_argument "Spsc.push: negative value") (fun () ->
      ignore (Pool.Spsc.push (Pool.Spsc.create 2) (-3)))

let test_spsc_cross_domain_handoff () =
  (* One producer domain, one consumer domain, every value arrives once
     and in order — the shard dispatch pattern. *)
  let r = Pool.Spsc.create 16 in
  let n = 2_000 in
  let consumer =
    Domain.spawn (fun () ->
        let got = ref 0 and ok = ref true in
        while !got < n do
          let v = Pool.Spsc.pop r in
          if v >= 0 then begin
            if v <> !got then ok := false;
            incr got
          end
          else Domain.cpu_relax ()
        done;
        !ok)
  in
  for i = 0 to n - 1 do
    while not (Pool.Spsc.push r i) do
      Domain.cpu_relax ()
    done
  done;
  Alcotest.(check bool) "ordered, no loss, no duplication" true
    (Domain.join consumer)

(* --------------------------- properties ---------------------------- *)

let prop_heap_matches_sorted =
  QCheck.Test.make ~name:"heap drains as a stable sort" ~count:200
    QCheck.(list_of_size Gen.(0 -- 64) (int_range 0 9))
    (fun prios ->
      let h = Heap.create () in
      List.iteri (fun v p -> Heap.push h ~prio:(float_of_int p) v) prios;
      let rec drain acc =
        match Heap.pop_min h with None -> List.rev acc | Some pv -> drain (pv :: acc)
      in
      let got = drain [] in
      let expect =
        List.mapi (fun v p -> (float_of_int p, v)) prios
        |> List.sort compare
      in
      got = expect)

let prop_percentile_bounded =
  QCheck.Test.make ~name:"percentile within min/max" ~count:500
    QCheck.(pair (list_of_size Gen.(1 -- 50) (float_bound_exclusive 1000.)) (float_bound_inclusive 100.))
    (fun (xs, p) ->
      let xs = List.map Float.abs xs in
      QCheck.assume (xs <> []);
      let v = Stats.percentile p xs in
      let lo, hi = Stats.min_max xs in
      v >= lo -. 1e-9 && v <= hi +. 1e-9)

let prop_zipf_cdf_complete =
  QCheck.Test.make ~name:"zipf sample always in range" ~count:200
    QCheck.(pair (int_range 1 200) (float_bound_inclusive 2.5))
    (fun (n, s) ->
      let z = Zipf.create ~n ~s in
      let rng = Rng.create (n + int_of_float (s *. 100.)) in
      let ok = ref true in
      for _ = 1 to 100 do
        let r = Zipf.sample z rng in
        if r < 0 || r >= n then ok := false
      done;
      !ok)

let prop_convex_monotone =
  QCheck.Test.make ~name:"convex cost monotone" ~count:500
    QCheck.(pair (float_bound_inclusive 3.) (float_bound_inclusive 3.))
    (fun (a, b) ->
      let lo = Float.min a b and hi = Float.max a b in
      Convex_cost.cost lo <= Convex_cost.cost hi +. 1e-9)

let () =
  Alcotest.run "sb_util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
          Alcotest.test_case "int rejects bad bound" `Quick test_rng_int_rejects_bad_bound;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "float mean" `Quick test_rng_float_mean;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "stream split deterministic" `Quick
            test_rng_split_stream_deterministic;
          Alcotest.test_case "stream 0 == plain split" `Quick
            test_rng_split_stream_zero_matches_plain;
          Alcotest.test_case "streams distinct" `Quick test_rng_split_streams_distinct;
          Alcotest.test_case "stream rejects negative" `Quick
            test_rng_split_stream_rejects_negative;
          Alcotest.test_case "copy snapshot" `Quick test_rng_copy_snapshot;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "sample without replacement" `Quick
            test_rng_sample_without_replacement;
          Alcotest.test_case "sample full range" `Quick test_rng_sample_full_range;
          Alcotest.test_case "weighted index" `Quick test_rng_weighted_index;
          Alcotest.test_case "weighted index rejects" `Quick test_rng_weighted_index_rejects;
          Alcotest.test_case "weighted index cum" `Quick test_rng_weighted_index_cum;
        ] );
      ( "zipf",
        [
          Alcotest.test_case "probabilities sum" `Quick test_zipf_probabilities_sum;
          Alcotest.test_case "monotone" `Quick test_zipf_monotone;
          Alcotest.test_case "sample range" `Quick test_zipf_sample_range;
          Alcotest.test_case "empirical match" `Slow test_zipf_empirical_matches;
          Alcotest.test_case "uniform at s=0" `Quick test_zipf_uniform_when_s_zero;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "stddev" `Quick test_stats_stddev;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "percentile singleton" `Quick test_stats_percentile_single;
          Alcotest.test_case "min_max" `Quick test_stats_min_max;
          Alcotest.test_case "weighted mean" `Quick test_stats_weighted_mean;
          Alcotest.test_case "summary" `Quick test_stats_summary;
        ] );
      ( "convex_cost",
        [
          Alcotest.test_case "zero" `Quick test_convex_zero;
          Alcotest.test_case "increasing" `Quick test_convex_increasing;
          Alcotest.test_case "convex" `Quick test_convex_convexity;
          Alcotest.test_case "slopes" `Quick test_convex_slopes;
          Alcotest.test_case "piecewise value" `Quick test_convex_piecewise_value;
          Alcotest.test_case "rejects negative" `Quick test_convex_rejects_negative;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "arity" `Quick test_table_arity;
        ] );
      ( "heap",
        [
          Alcotest.test_case "empty" `Quick test_heap_empty;
          Alcotest.test_case "sorted drain" `Quick test_heap_sorted_drain;
          Alcotest.test_case "tie-break on payload" `Quick test_heap_tie_break_on_payload;
          Alcotest.test_case "grows past capacity" `Quick test_heap_grows_past_capacity;
          Alcotest.test_case "peek non-destructive" `Quick test_heap_peek_does_not_remove;
          Alcotest.test_case "clear" `Quick test_heap_clear;
        ] );
      ( "par",
        [
          Alcotest.test_case "sequential coverage" `Quick test_par_covers_sequential;
          Alcotest.test_case "parallel coverage" `Quick test_par_covers_parallel;
          Alcotest.test_case "more domains than work" `Quick test_par_more_domains_than_work;
          Alcotest.test_case "empty range" `Quick test_par_empty_range;
          Alcotest.test_case "default domains" `Quick test_par_default_domains;
          Alcotest.test_case "disjoint writes compose" `Quick test_par_parallel_sum_matches;
        ] );
      ( "pool",
        [
          Alcotest.test_case "runs every worker" `Quick test_pool_runs_every_worker;
          Alcotest.test_case "parallel work composes" `Quick test_pool_parallel_work_composes;
          Alcotest.test_case "propagates exception" `Quick test_pool_propagates_exception;
          Alcotest.test_case "shutdown idempotent" `Quick test_pool_shutdown_idempotent;
          Alcotest.test_case "spsc FIFO order" `Quick test_spsc_fifo_order;
          Alcotest.test_case "spsc full/reuse" `Quick test_spsc_full_and_reuse;
          Alcotest.test_case "spsc capacity rounding" `Quick test_spsc_rounds_capacity;
          Alcotest.test_case "spsc cross-domain handoff" `Quick
            test_spsc_cross_domain_handoff;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_percentile_bounded;
          QCheck_alcotest.to_alcotest prop_zipf_cdf_complete;
          QCheck_alcotest.to_alcotest prop_convex_monotone;
          QCheck_alcotest.to_alcotest prop_heap_matches_sorted;
        ] );
    ]
