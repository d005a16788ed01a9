module Topology = Sb_net.Topology
module Paths = Sb_net.Paths
module Traffic = Sb_net.Traffic
module Load = Sb_net.Load

let check_float = Alcotest.(check (float 1e-9))

let line3 () = Topology.line ~delays:[ 0.01; 0.02 ] ~bandwidth:10.

(* ---------------------------- topology ----------------------------- *)

let test_line_shape () =
  let t = line3 () in
  Alcotest.(check int) "nodes" 3 (Topology.num_nodes t);
  Alcotest.(check int) "duplex links" 4 (Topology.num_links t)

let test_out_links () =
  let t = line3 () in
  Alcotest.(check int) "middle node degree 2" 2 (List.length (Topology.out_links t 1));
  Alcotest.(check int) "end node degree 1" 1 (List.length (Topology.out_links t 0))

let test_link_lookup () =
  let t = line3 () in
  let l = Topology.link t 0 in
  Alcotest.(check bool) "link endpoints valid" true (l.Topology.src >= 0 && l.Topology.dst >= 0);
  Alcotest.check_raises "bad id" (Invalid_argument "Topology.link") (fun () ->
      ignore (Topology.link t 999))

let test_add_link_validation () =
  let t = Topology.create () in
  let a = Topology.add_node t "a" in
  Alcotest.check_raises "unknown endpoint"
    (Invalid_argument "Topology.add_link: unknown endpoint") (fun () ->
      ignore (Topology.add_link t ~src:a ~dst:42 ~bandwidth:1. ~delay:0.));
  Alcotest.check_raises "bad bandwidth"
    (Invalid_argument "Topology.add_link: non-positive bandwidth") (fun () ->
      ignore (Topology.add_link t ~src:a ~dst:a ~bandwidth:0. ~delay:0.))

let test_full_mesh () =
  let t = Topology.full_mesh ~n:4 ~bandwidth:1. ~delay:0.005 in
  Alcotest.(check int) "nodes" 4 (Topology.num_nodes t);
  Alcotest.(check int) "links" 12 (Topology.num_links t)

let test_backbone_connected () =
  let rng = Sb_util.Rng.create 1 in
  let t = Topology.backbone ~rng ~num_core:6 ~pops_per_core:2 () in
  Alcotest.(check int) "node count" 18 (Topology.num_nodes t);
  let p = Paths.compute t in
  for i = 0 to Topology.num_nodes t - 1 do
    for j = 0 to Topology.num_nodes t - 1 do
      Alcotest.(check bool) "all pairs reachable" true (Paths.reachable p i j)
    done
  done

let test_backbone_deterministic () =
  let t1 = Topology.backbone ~rng:(Sb_util.Rng.create 5) ~num_core:5 ~pops_per_core:1 () in
  let t2 = Topology.backbone ~rng:(Sb_util.Rng.create 5) ~num_core:5 ~pops_per_core:1 () in
  Alcotest.(check int) "same link count" (Topology.num_links t1) (Topology.num_links t2);
  let l1 = Topology.link t1 0 and l2 = Topology.link t2 0 in
  check_float "same first-link delay" l1.Topology.delay l2.Topology.delay

let test_backbone_rejects_small () =
  let rng = Sb_util.Rng.create 1 in
  Alcotest.check_raises "too few cores"
    (Invalid_argument "Topology.backbone: need at least 3 core nodes") (fun () ->
      ignore (Topology.backbone ~rng ~num_core:2 ~pops_per_core:1 ()))

(* ------------------------------ paths ------------------------------ *)

let test_dijkstra_line () =
  let t = line3 () in
  let p = Paths.compute t in
  check_float "0 to 2" 0.03 (Paths.delay p 0 2);
  check_float "2 to 0" 0.03 (Paths.delay p 2 0);
  check_float "self" 0. (Paths.delay p 1 1)

let test_dijkstra_vs_floyd_warshall () =
  (* Cross-check Dijkstra all-pairs against an independent Floyd-Warshall. *)
  let rng = Sb_util.Rng.create 2 in
  let t = Topology.backbone ~rng ~num_core:5 ~pops_per_core:2 () in
  let n = Topology.num_nodes t in
  let dist = Array.make_matrix n n infinity in
  for i = 0 to n - 1 do
    dist.(i).(i) <- 0.
  done;
  Array.iter
    (fun (l : Topology.link) ->
      if l.Topology.delay < dist.(l.Topology.src).(l.Topology.dst) then
        dist.(l.Topology.src).(l.Topology.dst) <- l.Topology.delay)
    (Topology.links t);
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if dist.(i).(k) +. dist.(k).(j) < dist.(i).(j) then
          dist.(i).(j) <- dist.(i).(k) +. dist.(k).(j)
      done
    done
  done;
  let p = Paths.compute t in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "pair (%d,%d)" i j)
        dist.(i).(j) (Paths.delay p i j)
    done
  done

let test_fractions_conservation () =
  let rng = Sb_util.Rng.create 3 in
  let t = Topology.backbone ~rng ~num_core:5 ~pops_per_core:2 () in
  let p = Paths.compute t in
  let n = Topology.num_nodes t in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then begin
        let fracs = Paths.fractions p ~src ~dst in
        (* Outflow from src is 1, inflow to dst is 1. *)
        let out_src =
          List.fold_left
            (fun acc (e, f) ->
              let l = Topology.link t e in
              if l.Topology.src = src then acc +. f else acc)
            0. fracs
        in
        let in_dst =
          List.fold_left
            (fun acc (e, f) ->
              let l = Topology.link t e in
              if l.Topology.dst = dst then acc +. f else acc)
            0. fracs
        in
        Alcotest.(check (float 1e-6)) "unit outflow at src" 1. out_src;
        Alcotest.(check (float 1e-6)) "unit inflow at dst" 1. in_dst
      end
    done
  done

let test_fractions_on_shortest_paths_only () =
  let rng = Sb_util.Rng.create 4 in
  let t = Topology.backbone ~rng ~num_core:4 ~pops_per_core:1 () in
  let p = Paths.compute t in
  let n = Topology.num_nodes t in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then
        List.iter
          (fun (e, f) ->
            let l = Topology.link t e in
            let on_sp =
              Float.abs
                (Paths.delay p src l.Topology.src +. l.Topology.delay
                +. Paths.delay p l.Topology.dst dst -. Paths.delay p src dst)
              < 1e-9
            in
            Alcotest.(check bool) "positive fraction only on shortest paths" true
              ((f > 0. && on_sp) || f = 0.))
          (Paths.fractions p ~src ~dst)
    done
  done

let test_ecmp_even_split () =
  (* Diamond: a-b and a-c equal delay, b-d and c-d equal delay: two equal
     paths, each link carries 0.5. *)
  let t = Topology.create () in
  let a = Topology.add_node t "a" in
  let b = Topology.add_node t "b" in
  let c = Topology.add_node t "c" in
  let d = Topology.add_node t "d" in
  Topology.add_duplex t a b ~bandwidth:1. ~delay:0.01;
  Topology.add_duplex t a c ~bandwidth:1. ~delay:0.01;
  Topology.add_duplex t b d ~bandwidth:1. ~delay:0.01;
  Topology.add_duplex t c d ~bandwidth:1. ~delay:0.01;
  let p = Paths.compute t in
  let fracs = Paths.fractions p ~src:a ~dst:d in
  Alcotest.(check int) "four links carry traffic" 4 (List.length fracs);
  List.iter (fun (_, f) -> check_float "even split" 0.5 f) fracs

let test_link_fraction_lookup () =
  let t = line3 () in
  let p = Paths.compute t in
  (* The link 0->1 carries all of 0->2 traffic. *)
  let links01 =
    Array.to_list (Topology.links t)
    |> List.filter (fun (l : Topology.link) -> l.Topology.src = 0 && l.Topology.dst = 1)
  in
  match links01 with
  | [ l ] ->
    check_float "full fraction" 1. (Paths.link_fraction p ~src:0 ~dst:2 ~link:l.Topology.id);
    check_float "nothing in reverse" 0. (Paths.link_fraction p ~src:2 ~dst:0 ~link:l.Topology.id)
  | _ -> Alcotest.fail "expected unique 0->1 link"

let test_hop_count () =
  let t = line3 () in
  let p = Paths.compute t in
  Alcotest.(check int) "two hops" 2 (Paths.hop_count p 0 2);
  Alcotest.(check int) "zero hops" 0 (Paths.hop_count p 1 1)

let test_unreachable () =
  let t = Topology.create () in
  let a = Topology.add_node t "a" in
  let b = Topology.add_node t "b" in
  let p = Paths.compute t in
  Alcotest.(check bool) "not reachable" false (Paths.reachable p a b);
  Alcotest.(check bool) "delay infinite" true (Paths.delay p a b = infinity);
  Alcotest.(check (list (pair int (float 0.)))) "no fractions" []
    (Paths.fractions p ~src:a ~dst:b)

let test_hop_count_equal_cost_paths () =
  (* Diamond with a direct equal-cost shortcut: a->d directly (one hop,
     delay 0.02) and a->b->d (two hops, 0.01 + 0.01). Both are shortest;
     hop_count must report the minimum over all shortest paths (1), not
     whichever path Dijkstra relaxed last. *)
  let t = Topology.create () in
  let a = Topology.add_node t "a" in
  let b = Topology.add_node t "b" in
  let d = Topology.add_node t "d" in
  Topology.add_duplex t a b ~bandwidth:1. ~delay:0.01;
  Topology.add_duplex t b d ~bandwidth:1. ~delay:0.01;
  Topology.add_duplex t a d ~bandwidth:1. ~delay:0.02;
  let p = Paths.compute t in
  check_float "both routes shortest" 0.02 (Paths.delay p a d);
  Alcotest.(check int) "min hops over shortest paths" 1 (Paths.hop_count p a d);
  Alcotest.(check int) "reverse too" 1 (Paths.hop_count p d a);
  Alcotest.(check int) "via-node unaffected" 1 (Paths.hop_count p a b)

let test_fractions_dag_cut () =
  (* Every distance cut of the shortest-path DAG must carry the full unit
     of flow: ECMP links only go strictly forward in distance from [src],
     so the fractions crossing any threshold between 0 and dist(src,dst)
     sum to exactly 1. *)
  let rng = Sb_util.Rng.create 12 in
  let t = Topology.backbone ~rng ~num_core:5 ~pops_per_core:2 () in
  let p = Paths.compute t in
  let n = Topology.num_nodes t in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then begin
        let total = Paths.delay p src dst in
        let fracs = Paths.fractions p ~src ~dst in
        List.iter
          (fun frac_of_total ->
            let theta = frac_of_total *. total in
            (* Skip degenerate cuts through a node (a link endpoint sitting
               exactly on the threshold would be counted ambiguously). *)
            let on_node =
              List.exists
                (fun (e, _) ->
                  let l = Topology.link t e in
                  Float.abs (Paths.delay p src l.Topology.src -. theta) < 1e-9
                  || Float.abs (Paths.delay p src l.Topology.dst -. theta) < 1e-9)
                fracs
            in
            if not on_node then begin
              let crossing =
                List.fold_left
                  (fun acc (e, f) ->
                    let l = Topology.link t e in
                    if
                      Paths.delay p src l.Topology.src < theta
                      && Paths.delay p src l.Topology.dst > theta
                    then acc +. f
                    else acc)
                  0. fracs
              in
              Alcotest.(check (float 1e-6))
                (Printf.sprintf "unit flow across cut %.2f of (%d,%d)" frac_of_total src dst)
                1. crossing
            end)
          [ 0.25; 0.5; 0.75 ]
      end
    done
  done

(* Naive reference ECMP splitter, written against the spec rather than the
   packed implementation: distances from an independent Floyd–Warshall,
   link flows accumulated into plain association lists. *)
let reference_fractions t ~src ~dst =
  let n = Topology.num_nodes t in
  let dist = Array.make_matrix n n infinity in
  for i = 0 to n - 1 do
    dist.(i).(i) <- 0.
  done;
  Array.iter
    (fun (l : Topology.link) ->
      if l.Topology.delay < dist.(l.Topology.src).(l.Topology.dst) then
        dist.(l.Topology.src).(l.Topology.dst) <- l.Topology.delay)
    (Topology.links t);
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if dist.(i).(k) +. dist.(k).(j) < dist.(i).(j) then
          dist.(i).(j) <- dist.(i).(k) +. dist.(k).(j)
      done
    done
  done;
  if src = dst || dist.(src).(dst) = infinity then []
  else begin
    let total = dist.(src).(dst) in
    let on_path u (l : Topology.link) =
      Float.abs (dist.(src).(u) +. l.Topology.delay +. dist.(l.Topology.dst).(dst) -. total)
      < 1e-9
    in
    let order =
      List.init n (fun v -> v)
      |> List.filter (fun v ->
             dist.(src).(v) < infinity
             && dist.(v).(dst) < infinity
             && dist.(src).(v) +. dist.(v).(dst) -. total < 1e-9)
      |> List.sort (fun a b -> compare dist.(src).(a) dist.(src).(b))
    in
    let inflow = Array.make n 0. in
    inflow.(src) <- 1.;
    let link_flow = ref [] in
    List.iter
      (fun u ->
        if inflow.(u) > 0. && u <> dst then begin
          let next = List.filter (on_path u) (Topology.out_links t u) in
          let share = inflow.(u) /. float_of_int (List.length next) in
          List.iter
            (fun (l : Topology.link) ->
              inflow.(l.Topology.dst) <- inflow.(l.Topology.dst) +. share;
              let cur = try List.assoc l.Topology.id !link_flow with Not_found -> 0. in
              link_flow := (l.Topology.id, cur +. share) :: List.remove_assoc l.Topology.id !link_flow)
            next
        end)
      order;
    List.sort (fun (a, _) (b, _) -> compare a b) !link_flow
  end

let test_packed_fractions_match_reference () =
  let rng = Sb_util.Rng.create 14 in
  let t = Topology.backbone ~rng ~num_core:4 ~pops_per_core:2 () in
  let p = Paths.compute t in
  let n = Topology.num_nodes t in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      let expect = reference_fractions t ~src ~dst in
      let got = Paths.fractions p ~src ~dst in
      Alcotest.(check int)
        (Printf.sprintf "same link set for (%d,%d)" src dst)
        (List.length expect) (List.length got);
      List.iter2
        (fun (ee, ef) (ge, gf) ->
          Alcotest.(check int) "same link id" ee ge;
          Alcotest.(check (float 1e-9)) "same fraction" ef gf)
        expect got
    done
  done

let test_iter_fractions_agrees_with_list () =
  let rng = Sb_util.Rng.create 15 in
  let t = Topology.backbone ~rng ~num_core:4 ~pops_per_core:1 () in
  let p = Paths.compute t in
  let n = Topology.num_nodes t in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      let via_iter = ref [] in
      Paths.iter_fractions p ~src ~dst (fun e f -> via_iter := (e, f) :: !via_iter);
      Alcotest.(check (list (pair int (float 0.))))
        (Printf.sprintf "iter = list for (%d,%d)" src dst)
        (Paths.fractions p ~src ~dst)
        (List.rev !via_iter)
    done
  done

(* ----------------------------- traffic ----------------------------- *)

let test_gravity_total () =
  let rng = Sb_util.Rng.create 5 in
  let tm = Traffic.gravity ~rng ~n:10 ~total:100. in
  Alcotest.(check (float 1e-6)) "total preserved" 100. (Traffic.total tm)

let test_gravity_no_self_traffic () =
  let rng = Sb_util.Rng.create 6 in
  let tm = Traffic.gravity ~rng ~n:8 ~total:50. in
  for i = 0 to 7 do
    check_float "zero diagonal" 0. tm.(i).(i)
  done

let test_gravity_nonnegative () =
  let rng = Sb_util.Rng.create 7 in
  let tm = Traffic.gravity ~rng ~n:12 ~total:10. in
  Array.iter (Array.iter (fun v -> Alcotest.(check bool) "non-negative" true (v >= 0.))) tm

let test_traffic_scale () =
  let rng = Sb_util.Rng.create 8 in
  let tm = Traffic.gravity ~rng ~n:5 ~total:10. in
  let tm2 = Traffic.scale tm 3. in
  Alcotest.(check (float 1e-6)) "scaled" 30. (Traffic.total tm2)

let test_node_mass () =
  let rng = Sb_util.Rng.create 9 in
  let tm = Traffic.gravity ~rng ~n:6 ~total:60. in
  let sum = ref 0. in
  for i = 0 to 5 do
    sum := !sum +. Traffic.node_mass tm i
  done;
  Alcotest.(check (float 1e-6)) "masses sum to total" 60. !sum

(* ------------------------------ load ------------------------------- *)

let test_load_add_flow () =
  let t = line3 () in
  let p = Paths.compute t in
  let load = Load.create t p in
  Load.add_flow load ~src:0 ~dst:2 ~volume:5.;
  (* Both hops on the path carry 5. *)
  let carried =
    Array.to_list (Topology.links t)
    |> List.filter (fun (l : Topology.link) -> Load.link_load load l.Topology.id > 0.)
  in
  Alcotest.(check int) "two loaded links" 2 (List.length carried);
  List.iter
    (fun (l : Topology.link) -> check_float "5 units" 5. (Load.link_load load l.Topology.id))
    carried

let test_load_remove_flow () =
  let t = line3 () in
  let p = Paths.compute t in
  let load = Load.create t p in
  Load.add_flow load ~src:0 ~dst:2 ~volume:5.;
  Load.remove_flow load ~src:0 ~dst:2 ~volume:5.;
  check_float "mlu zero after removal" 0. (Load.mlu load)

let test_load_mlu () =
  let t = line3 () in
  let p = Paths.compute t in
  let load = Load.create t p in
  Load.add_flow load ~src:0 ~dst:2 ~volume:5.;
  check_float "mlu = 5/10" 0.5 (Load.mlu load)

let test_load_background () =
  let t = line3 () in
  let p = Paths.compute t in
  let load = Load.create t p in
  Load.add_background load 0 2.;
  check_float "background counted" 0.2 (Load.mlu load)

let test_load_self_flow_noop () =
  let t = line3 () in
  let p = Paths.compute t in
  let load = Load.create t p in
  Load.add_flow load ~src:1 ~dst:1 ~volume:100.;
  check_float "self flow carries nothing" 0. (Load.mlu load)

let test_path_network_cost_positive () =
  let t = line3 () in
  let p = Paths.compute t in
  let load = Load.create t p in
  let c1 = Load.path_network_cost load ~src:0 ~dst:2 ~extra:1. in
  Load.add_flow load ~src:0 ~dst:2 ~volume:8.;
  let c2 = Load.path_network_cost load ~src:0 ~dst:2 ~extra:1. in
  Alcotest.(check bool) "cost grows with load (convexity)" true (c2 > c1);
  Alcotest.(check bool) "cost positive" true (c1 > 0.)

(* Lifting a flow out can leave a load a hair below zero (0.3 - 0.1 - 0.2
   is -2.8e-17). Adding nothing, or next to nothing, onto such a link must
   cost nothing rather than less: SB-DP's prune relies on [net >= 0]. *)
let test_path_network_cost_residue () =
  let t = line3 () in
  let p = Paths.compute t in
  let load = Load.create t p in
  Load.add_flow load ~src:0 ~dst:2 ~volume:0.3;
  Load.remove_flow load ~src:0 ~dst:2 ~volume:0.1;
  Load.remove_flow load ~src:0 ~dst:2 ~volume:0.2;
  Alcotest.(check bool) "negative residue left" true
    (Array.exists (fun (l : Topology.link) -> Load.link_load load l.Topology.id < 0.) (Topology.links t));
  List.iter
    (fun extra ->
      let c = Load.path_network_cost load ~src:0 ~dst:2 ~extra in
      if c < 0. then Alcotest.failf "cost %g of adding %g is negative" c extra)
    [ 0.; 1e-20; 1e-17 ]

let test_path_max_utilization () =
  let t = line3 () in
  let p = Paths.compute t in
  let load = Load.create t p in
  Load.add_flow load ~src:0 ~dst:1 ~volume:4.;
  Alcotest.(check (float 1e-9)) "max util on path" 0.4
    (Load.path_max_utilization load ~src:0 ~dst:2)

(* gravity masses should be skewed: top node carries a disproportionate
   share (heavy-tailed), which the chain workload relies on. *)
let test_gravity_skew () =
  let rng = Sb_util.Rng.create 10 in
  let tm = Traffic.gravity ~rng ~n:40 ~total:100. in
  let masses = List.init 40 (fun i -> Traffic.node_mass tm i) in
  let sorted = List.sort (fun a b -> compare b a) masses in
  let top5 = List.fold_left ( +. ) 0. (List.filteri (fun i _ -> i < 5) sorted) in
  Alcotest.(check bool) "top 5 of 40 nodes exceed uniform share" true (top5 > 100. *. 5. /. 40.)

let prop_fractions_sum_per_node =
  QCheck.Test.make ~name:"ECMP flow conservation at transit nodes" ~count:30
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Sb_util.Rng.create seed in
      let t = Topology.backbone ~rng ~num_core:4 ~pops_per_core:1 () in
      let p = Paths.compute t in
      let n = Topology.num_nodes t in
      let src = Sb_util.Rng.int rng n in
      let dst = (src + 1 + Sb_util.Rng.int rng (n - 1)) mod n in
      if src = dst then true
      else begin
        let fracs = Paths.fractions p ~src ~dst in
        (* At every node except src/dst: inflow = outflow. *)
        let ok = ref true in
        for v = 0 to n - 1 do
          if v <> src && v <> dst then begin
            let inflow =
              List.fold_left
                (fun acc (e, f) ->
                  if (Topology.link t e).Topology.dst = v then acc +. f else acc)
                0. fracs
            in
            let outflow =
              List.fold_left
                (fun acc (e, f) ->
                  if (Topology.link t e).Topology.src = v then acc +. f else acc)
                0. fracs
            in
            if Float.abs (inflow -. outflow) > 1e-6 then ok := false
          end
        done;
        !ok
      end)

let () =
  Alcotest.run "sb_net"
    [
      ( "topology",
        [
          Alcotest.test_case "line shape" `Quick test_line_shape;
          Alcotest.test_case "out links" `Quick test_out_links;
          Alcotest.test_case "link lookup" `Quick test_link_lookup;
          Alcotest.test_case "add_link validation" `Quick test_add_link_validation;
          Alcotest.test_case "full mesh" `Quick test_full_mesh;
          Alcotest.test_case "backbone connected" `Quick test_backbone_connected;
          Alcotest.test_case "backbone deterministic" `Quick test_backbone_deterministic;
          Alcotest.test_case "backbone rejects small" `Quick test_backbone_rejects_small;
        ] );
      ( "paths",
        [
          Alcotest.test_case "dijkstra line" `Quick test_dijkstra_line;
          Alcotest.test_case "dijkstra vs floyd-warshall" `Quick test_dijkstra_vs_floyd_warshall;
          Alcotest.test_case "fractions conservation" `Quick test_fractions_conservation;
          Alcotest.test_case "fractions on shortest paths" `Quick
            test_fractions_on_shortest_paths_only;
          Alcotest.test_case "ECMP even split" `Quick test_ecmp_even_split;
          Alcotest.test_case "link fraction lookup" `Quick test_link_fraction_lookup;
          Alcotest.test_case "hop count" `Quick test_hop_count;
          Alcotest.test_case "hop count over equal-cost paths" `Quick
            test_hop_count_equal_cost_paths;
          Alcotest.test_case "unreachable" `Quick test_unreachable;
          Alcotest.test_case "DAG-cut flow conservation" `Quick test_fractions_dag_cut;
          Alcotest.test_case "packed fractions match naive reference" `Quick
            test_packed_fractions_match_reference;
          Alcotest.test_case "iter_fractions agrees with list" `Quick
            test_iter_fractions_agrees_with_list;
        ] );
      ( "traffic",
        [
          Alcotest.test_case "gravity total" `Quick test_gravity_total;
          Alcotest.test_case "no self traffic" `Quick test_gravity_no_self_traffic;
          Alcotest.test_case "non-negative" `Quick test_gravity_nonnegative;
          Alcotest.test_case "scale" `Quick test_traffic_scale;
          Alcotest.test_case "node mass" `Quick test_node_mass;
          Alcotest.test_case "skew" `Quick test_gravity_skew;
        ] );
      ( "load",
        [
          Alcotest.test_case "add flow" `Quick test_load_add_flow;
          Alcotest.test_case "remove flow" `Quick test_load_remove_flow;
          Alcotest.test_case "mlu" `Quick test_load_mlu;
          Alcotest.test_case "background" `Quick test_load_background;
          Alcotest.test_case "self flow noop" `Quick test_load_self_flow_noop;
          Alcotest.test_case "network cost convex" `Quick test_path_network_cost_positive;
          Alcotest.test_case "network cost on a residue" `Quick test_path_network_cost_residue;
          Alcotest.test_case "path max utilization" `Quick test_path_max_utilization;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_fractions_sum_per_node ]);
    ]
