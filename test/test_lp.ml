module Lp = Sb_lp.Lp
module Mip = Sb_lp.Mip

let solve_opt p =
  match Lp.solve p with
  | Lp.Optimal s -> s
  | Lp.Infeasible -> Alcotest.fail "unexpected infeasible"
  | Lp.Unbounded -> Alcotest.fail "unexpected unbounded"

let check_obj = Alcotest.(check (float 1e-6))
let check_val = Alcotest.(check (float 1e-6))

(* ---------------------- textbook instances ----------------------- *)

let test_maximize_basic () =
  (* max 3x + 5y; x <= 4; 2y <= 12; 3x + 2y <= 18 -> 36 at (2, 6) *)
  let p = Lp.create () in
  let x = Lp.add_var p "x" and y = Lp.add_var p "y" in
  Lp.add_constraint p [ (1., x) ] Lp.Le 4.;
  Lp.add_constraint p [ (2., y) ] Lp.Le 12.;
  Lp.add_constraint p [ (3., x); (2., y) ] Lp.Le 18.;
  Lp.set_objective p Lp.Maximize [ (3., x); (5., y) ];
  let s = solve_opt p in
  check_obj "objective" 36. (Lp.objective_value s);
  check_val "x" 2. (Lp.value s x);
  check_val "y" 6. (Lp.value s y)

let test_minimize_with_ge_and_eq () =
  (* min a + b; a + b >= 3; a - b = 1 -> 3 at (2, 1) *)
  let p = Lp.create () in
  let a = Lp.add_var p "a" and b = Lp.add_var p "b" in
  Lp.add_constraint p [ (1., a); (1., b) ] Lp.Ge 3.;
  Lp.add_constraint p [ (1., a); (-1., b) ] Lp.Eq 1.;
  Lp.set_objective p Lp.Minimize [ (1., a); (1., b) ];
  let s = solve_opt p in
  check_obj "objective" 3. (Lp.objective_value s);
  check_val "a" 2. (Lp.value s a);
  check_val "b" 1. (Lp.value s b)

let test_infeasible () =
  let p = Lp.create () in
  let x = Lp.add_var p "x" in
  Lp.add_constraint p [ (1., x) ] Lp.Le 1.;
  Lp.add_constraint p [ (1., x) ] Lp.Ge 2.;
  Lp.set_objective p Lp.Minimize [ (1., x) ];
  match Lp.solve p with
  | Lp.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible"

let test_unbounded () =
  let p = Lp.create () in
  let x = Lp.add_var p "x" in
  Lp.set_objective p Lp.Maximize [ (1., x) ];
  match Lp.solve p with
  | Lp.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded"

let test_unbounded_after_pivots () =
  (* max x + 2y s.t. x - y <= 1, x + z = 3, -x + z <= 2: x and z pivot in
     first, then y has no blocking row. *)
  let p = Lp.create () in
  let x = Lp.add_var p "x" and y = Lp.add_var p "y" and z = Lp.add_var p "z" in
  Lp.add_constraint p [ (1., x); (-1., y) ] Lp.Le 1.;
  Lp.add_constraint p [ (1., x); (1., z) ] Lp.Eq 3.;
  Lp.add_constraint p [ (-1., x); (1., z) ] Lp.Le 2.;
  Lp.set_objective p Lp.Maximize [ (1., x); (2., y) ];
  match Lp.solve p with
  | Lp.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded"

let test_degenerate_trivial () =
  (* No constraints, minimize x -> 0 at lower bound. *)
  let p = Lp.create () in
  let x = Lp.add_var p "x" in
  Lp.set_objective p Lp.Minimize [ (1., x) ];
  let s = solve_opt p in
  check_obj "objective" 0. (Lp.objective_value s)

let test_variable_upper_bound () =
  let p = Lp.create () in
  let x = Lp.add_var p ~ub:2.5 "x" in
  Lp.set_objective p Lp.Maximize [ (1., x) ];
  let s = solve_opt p in
  check_obj "hits ub" 2.5 (Lp.objective_value s)

let test_variable_lower_bound_shift () =
  (* lb = 3: min x subject to nothing -> 3 *)
  let p = Lp.create () in
  let x = Lp.add_var p ~lb:3. "x" in
  Lp.set_objective p Lp.Minimize [ (1., x) ];
  let s = solve_opt p in
  check_obj "sits at lb" 3. (Lp.objective_value s);
  check_val "x value" 3. (Lp.value s x)

let test_free_variable () =
  (* Free variable can go negative: min x s.t. x >= -5 via constraint. *)
  let p = Lp.create () in
  let x = Lp.add_var p ~lb:neg_infinity "x" in
  Lp.add_constraint p [ (1., x) ] Lp.Ge (-5.);
  Lp.set_objective p Lp.Minimize [ (1., x) ];
  let s = solve_opt p in
  check_obj "objective" (-5.) (Lp.objective_value s);
  check_val "x" (-5.) (Lp.value s x)

let test_free_variable_with_ub () =
  let p = Lp.create () in
  let x = Lp.add_var p ~lb:neg_infinity ~ub:7. "x" in
  Lp.set_objective p Lp.Maximize [ (1., x) ];
  let s = solve_opt p in
  check_obj "hits ub" 7. (Lp.objective_value s)

let test_negative_rhs_row () =
  (* x - y <= -2 with min x + y -> x=0, y=2. *)
  let p = Lp.create () in
  let x = Lp.add_var p "x" and y = Lp.add_var p "y" in
  Lp.add_constraint p [ (1., x); (-1., y) ] Lp.Le (-2.);
  Lp.set_objective p Lp.Minimize [ (1., x); (1., y) ];
  let s = solve_opt p in
  check_obj "objective" 2. (Lp.objective_value s)

let test_duplicate_terms_summed () =
  (* 2x expressed as x + x. max (x+x) s.t. x + x <= 10 -> x = 5, obj 10. *)
  let p = Lp.create () in
  let x = Lp.add_var p "x" in
  Lp.add_constraint p [ (1., x); (1., x) ] Lp.Le 10.;
  Lp.set_objective p Lp.Maximize [ (1., x); (1., x) ];
  let s = solve_opt p in
  check_obj "objective" 10. (Lp.objective_value s);
  check_val "x" 5. (Lp.value s x)

let test_redundant_equalities () =
  (* Two identical equalities must not break phase 1 (dependent rows). *)
  let p = Lp.create () in
  let x = Lp.add_var p "x" and y = Lp.add_var p "y" in
  Lp.add_constraint p [ (1., x); (1., y) ] Lp.Eq 4.;
  Lp.add_constraint p [ (1., x); (1., y) ] Lp.Eq 4.;
  Lp.set_objective p Lp.Minimize [ (1., x) ];
  let s = solve_opt p in
  check_obj "objective" 0. (Lp.objective_value s);
  check_val "y" 4. (Lp.value s y)

let test_transportation_problem () =
  (* 2 supplies (10, 20), 2 demands (15, 15), costs [[1 4][2 1]].
     Optimal: s0->d0 10, s1->d0 5, s1->d1 15 -> 10 + 10 + 15 = 35. *)
  let p = Lp.create () in
  let x = Array.init 2 (fun i -> Array.init 2 (fun j -> Lp.add_var p (Printf.sprintf "x%d%d" i j))) in
  Lp.add_constraint p [ (1., x.(0).(0)); (1., x.(0).(1)) ] Lp.Le 10.;
  Lp.add_constraint p [ (1., x.(1).(0)); (1., x.(1).(1)) ] Lp.Le 20.;
  Lp.add_constraint p [ (1., x.(0).(0)); (1., x.(1).(0)) ] Lp.Eq 15.;
  Lp.add_constraint p [ (1., x.(0).(1)); (1., x.(1).(1)) ] Lp.Eq 15.;
  Lp.set_objective p Lp.Minimize
    [ (1., x.(0).(0)); (4., x.(0).(1)); (2., x.(1).(0)); (1., x.(1).(1)) ];
  let s = solve_opt p in
  check_obj "transportation optimum" 35. (Lp.objective_value s)

let test_larger_random_feasibility () =
  (* A bigger random-ish LP: verify the optimum respects all constraints. *)
  let rng = Sb_util.Rng.create 31 in
  let p = Lp.create () in
  let n = 30 and m = 20 in
  let vars = Array.init n (fun i -> Lp.add_var p (Printf.sprintf "v%d" i)) in
  let rows =
    Array.init m (fun _ ->
        let terms =
          Array.to_list vars
          |> List.filter_map (fun v ->
                 if Sb_util.Rng.float rng 1. < 0.3 then
                   Some (Sb_util.Rng.uniform_in rng 0.1 2.0, v)
                 else None)
        in
        let rhs = Sb_util.Rng.uniform_in rng 5. 50. in
        (terms, rhs))
  in
  Array.iter (fun (terms, rhs) -> if terms <> [] then Lp.add_constraint p terms Lp.Le rhs) rows;
  Lp.set_objective p Lp.Maximize (Array.to_list (Array.map (fun v -> (1., v)) vars));
  match Lp.solve p with
  | Lp.Optimal s ->
    Array.iter
      (fun (terms, rhs) ->
        let lhs = List.fold_left (fun acc (c, v) -> acc +. (c *. Lp.value s v)) 0. terms in
        Alcotest.(check bool) "constraint satisfied" true (lhs <= rhs +. 1e-6))
      rows;
    Array.iter
      (fun v -> Alcotest.(check bool) "non-negative" true (Lp.value s v >= -1e-9))
      vars
  | Lp.Unbounded ->
    (* Possible if some variable appears in no constraint. *)
    ()
  | Lp.Infeasible -> Alcotest.fail "all-Le problem with positive rhs is feasible"

(* Brute-force cross-check on tiny random 2-var LPs: compare simplex with a
   fine grid search. *)
let test_grid_crosscheck () =
  let rng = Sb_util.Rng.create 77 in
  for _ = 1 to 25 do
    let a1 = Sb_util.Rng.uniform_in rng 0.2 2. and b1 = Sb_util.Rng.uniform_in rng 0.2 2. in
    let a2 = Sb_util.Rng.uniform_in rng 0.2 2. and b2 = Sb_util.Rng.uniform_in rng 0.2 2. in
    let r1 = Sb_util.Rng.uniform_in rng 1. 10. and r2 = Sb_util.Rng.uniform_in rng 1. 10. in
    let c1 = Sb_util.Rng.uniform_in rng 0.1 3. and c2 = Sb_util.Rng.uniform_in rng 0.1 3. in
    let p = Lp.create () in
    let x = Lp.add_var p "x" and y = Lp.add_var p "y" in
    Lp.add_constraint p [ (a1, x); (b1, y) ] Lp.Le r1;
    Lp.add_constraint p [ (a2, x); (b2, y) ] Lp.Le r2;
    Lp.set_objective p Lp.Maximize [ (c1, x); (c2, y) ];
    let s = solve_opt p in
    (* Grid search over the feasible box. *)
    let best = ref 0. in
    let steps = 400 in
    let xmax = Float.min (r1 /. a1) (r2 /. a2) in
    let ymax = Float.min (r1 /. b1) (r2 /. b2) in
    for i = 0 to steps do
      for j = 0 to steps do
        let xv = float_of_int i /. float_of_int steps *. xmax in
        let yv = float_of_int j /. float_of_int steps *. ymax in
        if (a1 *. xv) +. (b1 *. yv) <= r1 && (a2 *. xv) +. (b2 *. yv) <= r2 then begin
          let obj = (c1 *. xv) +. (c2 *. yv) in
          if obj > !best then best := obj
        end
      done
    done;
    Alcotest.(check bool) "simplex >= grid - eps" true
      (Lp.objective_value s >= !best -. 0.05);
    Alcotest.(check bool) "simplex optimal within grid resolution" true
      (Lp.objective_value s <= !best +. (0.05 *. Float.max 1. !best))
  done


let test_beale_cycling_example () =
  (* Beale's classic degenerate LP, which cycles under naive Dantzig
     pivoting: min -0.75x4 + 150x5 - 0.02x6 + 6x7 subject to
     0.25x4 - 60x5 - 0.04x6 + 9x7 <= 0
     0.5x4 - 90x5 - 0.02x6 + 3x7 <= 0
     x6 <= 1.  Optimum -0.05. *)
  let p = Lp.create () in
  let x4 = Lp.add_var p "x4" and x5 = Lp.add_var p "x5" in
  let x6 = Lp.add_var p "x6" and x7 = Lp.add_var p "x7" in
  Lp.add_constraint p [ (0.25, x4); (-60., x5); (-0.04, x6); (9., x7) ] Lp.Le 0.;
  Lp.add_constraint p [ (0.5, x4); (-90., x5); (-0.02, x6); (3., x7) ] Lp.Le 0.;
  Lp.add_constraint p [ (1., x6) ] Lp.Le 1.;
  Lp.set_objective p Lp.Minimize
    [ (-0.75, x4); (150., x5); (-0.02, x6); (6., x7) ];
  let s = solve_opt p in
  check_obj "Beale optimum" (-0.05) (Lp.objective_value s)

let test_highly_degenerate () =
  (* Many redundant constraints through the origin. *)
  let p = Lp.create () in
  let x = Lp.add_var p "x" and y = Lp.add_var p "y" in
  for _ = 1 to 10 do
    Lp.add_constraint p [ (1., x); (-1., y) ] Lp.Le 0.;
    Lp.add_constraint p [ (-1., x); (1., y) ] Lp.Le 0.
  done;
  Lp.add_constraint p [ (1., x); (1., y) ] Lp.Le 4.;
  Lp.set_objective p Lp.Maximize [ (1., x); (2., y) ];
  let s = solve_opt p in
  (* x = y forced; x + y <= 4 -> x = y = 2, objective 6. *)
  check_obj "degenerate optimum" 6. (Lp.objective_value s)

let test_equality_only_system () =
  (* Pure equality system with a unique solution: x=1, y=2. *)
  let p = Lp.create () in
  let x = Lp.add_var p "x" and y = Lp.add_var p "y" in
  Lp.add_constraint p [ (1., x); (1., y) ] Lp.Eq 3.;
  Lp.add_constraint p [ (2., x); (1., y) ] Lp.Eq 4.;
  Lp.set_objective p Lp.Minimize [ (1., x) ];
  let s = solve_opt p in
  check_val "x" 1. (Lp.value s x);
  check_val "y" 2. (Lp.value s y)

(* ---------------------------- inputs ----------------------------- *)

let raises_invalid name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name

let test_add_var_rejects_bad_bounds () =
  let p = Lp.create () in
  raises_invalid "NaN lb" (fun () -> Lp.add_var p ~lb:nan "x");
  raises_invalid "NaN ub" (fun () -> Lp.add_var p ~ub:nan "x");
  raises_invalid "lb = infinity" (fun () -> Lp.add_var p ~lb:infinity "x");
  raises_invalid "ub = neg_infinity" (fun () -> Lp.add_var p ~lb:neg_infinity ~ub:neg_infinity "x");
  raises_invalid "lb > ub" (fun () -> Lp.add_var p ~lb:2. ~ub:1. "x");
  Alcotest.(check int) "no variable added" 0 (Lp.num_vars p)

let test_rows_reject_non_finite () =
  let p = Lp.create () in
  let x = Lp.add_var p "x" and y = Lp.add_var p "y" in
  raises_invalid "NaN coefficient" (fun () -> Lp.add_constraint p [ (1., x); (nan, y) ] Lp.Le 1.);
  raises_invalid "infinite coefficient" (fun () -> Lp.add_constraint p [ (infinity, x) ] Lp.Le 1.);
  raises_invalid "NaN rhs" (fun () -> Lp.add_constraint p [ (1., x) ] Lp.Eq nan);
  raises_invalid "NaN objective" (fun () -> Lp.set_objective p Lp.Maximize [ (nan, x) ]);
  raises_invalid "infinite objective" (fun () -> Lp.set_objective p Lp.Minimize [ (neg_infinity, y) ]);
  Alcotest.(check int) "no row added" 0 (Lp.num_constraints p);
  (* the rejected calls left the problem usable *)
  Lp.add_constraint p [ (1., x); (1., y) ] Lp.Le 3.;
  Lp.set_objective p Lp.Maximize [ (1., x); (2., y) ];
  check_obj "objective" 6. (Lp.objective_value (solve_opt p))

let test_infinite_rhs () =
  (* x <= +inf never binds; x >= +inf can never hold. *)
  let p = Lp.create () in
  let x = Lp.add_var p ~ub:4. "x" in
  Lp.add_constraint p [ (1., x) ] Lp.Le infinity;
  Lp.set_objective p Lp.Maximize [ (1., x) ];
  check_obj "vacuous row" 4. (Lp.objective_value (solve_opt p));
  Lp.add_constraint p [ (1., x) ] Lp.Ge infinity;
  match Lp.solve p with
  | Lp.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible"

(* ------------------------------ MIP ------------------------------ *)

let test_mip_basic () =
  (* max x + y; 2x + 3y <= 12; x <= 4; integers -> 5 (e.g. 4 + 1). *)
  let p = Lp.create () in
  let x = Lp.add_var p ~integer:true "x" in
  let y = Lp.add_var p ~integer:true "y" in
  Lp.add_constraint p [ (2., x); (3., y) ] Lp.Le 12.;
  Lp.add_constraint p [ (1., x) ] Lp.Le 4.;
  Lp.set_objective p Lp.Maximize [ (1., x); (1., y) ];
  match Mip.solve p with
  | Mip.Optimal s ->
    check_obj "objective" 5. (Lp.objective_value s);
    Alcotest.(check bool) "x integral" true
      (Float.abs (Lp.value s x -. Float.round (Lp.value s x)) < 1e-6)
  | _ -> Alcotest.fail "expected optimal"

let test_mip_knapsack () =
  (* Knapsack: values 60,100,120; weights 10,20,30; cap 50 -> 220. *)
  let p = Lp.create () in
  let items = [| (60., 10.); (100., 20.); (120., 30.) |] in
  let vars =
    Array.mapi (fun i _ -> Lp.add_var p ~ub:1. ~integer:true (Printf.sprintf "i%d" i)) items
  in
  Lp.add_constraint p
    (Array.to_list (Array.mapi (fun i v -> (snd items.(i), v)) vars))
    Lp.Le 50.;
  Lp.set_objective p Lp.Maximize
    (Array.to_list (Array.mapi (fun i v -> (fst items.(i), v)) vars));
  match Mip.solve p with
  | Mip.Optimal s -> check_obj "knapsack optimum" 220. (Lp.objective_value s)
  | _ -> Alcotest.fail "expected optimal"

let test_mip_infeasible () =
  let p = Lp.create () in
  let x = Lp.add_var p ~integer:true "x" in
  Lp.add_constraint p [ (1., x) ] Lp.Le 1.;
  Lp.add_constraint p [ (1., x) ] Lp.Ge 2.;
  Lp.set_objective p Lp.Minimize [ (1., x) ];
  match Mip.solve p with
  | Mip.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible"

let test_mip_fractional_gap () =
  (* LP relaxation is fractional: x + y <= 1.5, max x + y integral -> 1. *)
  let p = Lp.create () in
  let x = Lp.add_var p ~ub:1. ~integer:true "x" in
  let y = Lp.add_var p ~ub:1. ~integer:true "y" in
  Lp.add_constraint p [ (1., x); (1., y) ] Lp.Le 1.5;
  Lp.set_objective p Lp.Maximize [ (1., x); (1., y) ];
  match Mip.solve p with
  | Mip.Optimal s -> check_obj "integral optimum" 1. (Lp.objective_value s)
  | _ -> Alcotest.fail "expected optimal"

let test_mip_minimize () =
  (* min 3x + 2y s.t. x + y >= 2.5, integer -> x=0,y=3 cost 6 or x=1,y=2
     cost 7; optimum 6. *)
  let p = Lp.create () in
  let x = Lp.add_var p ~integer:true "x" in
  let y = Lp.add_var p ~integer:true "y" in
  Lp.add_constraint p [ (1., x); (1., y) ] Lp.Ge 2.5;
  Lp.set_objective p Lp.Minimize [ (3., x); (2., y) ];
  match Mip.solve p with
  | Mip.Optimal s -> check_obj "objective" 6. (Lp.objective_value s)
  | _ -> Alcotest.fail "expected optimal"

let test_mip_mixed_integer () =
  (* x integer, y continuous: max x + y; x + y <= 3.7; x <= 2.2 ->
     x = 2, y = 1.7. *)
  let p = Lp.create () in
  let x = Lp.add_var p ~integer:true "x" in
  let y = Lp.add_var p "y" in
  Lp.add_constraint p [ (1., x); (1., y) ] Lp.Le 3.7;
  Lp.add_constraint p [ (1., x) ] Lp.Le 2.2;
  Lp.set_objective p Lp.Maximize [ (1., x); (1., y) ];
  match Mip.solve p with
  | Mip.Optimal s ->
    check_obj "objective" 3.7 (Lp.objective_value s);
    check_val "x integral part" 2. (Lp.value s x)
  | _ -> Alcotest.fail "expected optimal"

(* --------------------------- properties ---------------------------- *)

(* Random small LPs: the solver never reports Optimal with a violated
   constraint, and maximization objectives never exceed an obvious bound. *)
let prop_optimal_is_feasible =
  QCheck.Test.make ~name:"optimal solutions are feasible" ~count:60
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Sb_util.Rng.create seed in
      let n = 2 + Sb_util.Rng.int rng 6 in
      let m = 1 + Sb_util.Rng.int rng 6 in
      let p = Lp.create () in
      let vars = Array.init n (fun i -> Lp.add_var p (Printf.sprintf "v%d" i)) in
      let rows = ref [] and in_row = Array.make n false in
      for _ = 1 to m do
        let terms =
          Array.to_list vars
          |> List.filter_map (fun v ->
                 if Sb_util.Rng.bool rng then Some (Sb_util.Rng.uniform_in rng 0.1 3., v)
                 else None)
        in
        if terms <> [] then begin
          let rhs = Sb_util.Rng.uniform_in rng 1. 20. in
          Lp.add_constraint p terms Lp.Le rhs;
          rows := (terms, rhs) :: !rows;
          Array.iteri (fun i v -> if List.exists (fun (_, u) -> u == v) terms then in_row.(i) <- true) vars
        end
      done;
      Lp.set_objective p Lp.Maximize
        (Array.to_list (Array.map (fun v -> (Sb_util.Rng.uniform_in rng 0.1 2., v)) vars));
      match Lp.solve p with
      | Lp.Optimal s ->
        List.for_all
          (fun (terms, rhs) ->
            List.fold_left (fun acc (c, v) -> acc +. (c *. Lp.value s v)) 0. terms
            <= rhs +. 1e-6)
          !rows
        && Array.for_all (fun v -> Lp.value s v >= -1e-9) vars
      | Lp.Unbounded ->
        (* every objective coefficient is positive, so only a variable in
           no row can grow without bound *)
        Array.exists not in_row
      | Lp.Infeasible -> false (* impossible for Le-only with rhs > 0 *))

(* The two ways into the simplex agree: a random small LP whose rows list
   their terms out of order and repeat some variables, solved through the
   list API, and the same LP written by hand in column form (each
   column's rows ascending, repeats summed in the order they were
   listed) give the same status, objective and iteration count. *)
let prop_list_api_matches_columns =
  QCheck.Test.make ~name:"list API = hand-built column form" ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Sb_util.Rng.create seed in
      let n = 1 + Sb_util.Rng.int rng 7 and m = 1 + Sb_util.Rng.int rng 7 in
      let small () = float_of_int (Sb_util.Rng.int rng 9 - 4) in
      let p = Lp.create () in
      let bounds =
        Array.init n (fun _ ->
            match Sb_util.Rng.int rng 4 with
            | 0 -> (neg_infinity, infinity)
            | 1 -> (-2., 5.)
            | 2 -> (1., infinity)
            | _ -> (0., infinity))
      in
      let vars = Array.mapi (fun j (lb, ub) -> Lp.add_var p ~lb ~ub (Printf.sprintf "v%d" j)) bounds in
      (* [a.(i).(j)]: row i's coefficient of column j, if it has one *)
      let a = Array.make_matrix m n None in
      let rel = Array.make m Lp.Le and rhs = Array.make m 0. in
      for i = 0 to m - 1 do
        let k = Sb_util.Rng.int rng (2 * n + 1) in
        let terms = List.init k (fun _ -> (small (), Sb_util.Rng.int rng n)) in
        List.iter
          (fun (c, j) ->
            a.(i).(j) <- Some (match a.(i).(j) with None -> c | Some c0 -> c0 +. c))
          terms;
        rel.(i) <- (match Sb_util.Rng.int rng 3 with 0 -> Lp.Le | 1 -> Lp.Ge | _ -> Lp.Eq);
        rhs.(i) <- small () *. 2.;
        Lp.add_constraint p (List.map (fun (c, j) -> (c, vars.(j))) terms) rel.(i) rhs.(i)
      done;
      let cost = Array.make n 0. in
      let obj = List.init (Sb_util.Rng.int rng (2 * n + 1)) (fun _ -> (small (), Sb_util.Rng.int rng n)) in
      List.iter (fun (c, j) -> cost.(j) <- cost.(j) +. c) obj;
      let sense = if Sb_util.Rng.bool rng then Lp.Minimize else Lp.Maximize in
      Lp.set_objective p sense (List.map (fun (c, j) -> (c, vars.(j))) obj);
      let cstart = Array.make (n + 1) 0 and cidx = ref [] and cval = ref [] in
      for j = 0 to n - 1 do
        cstart.(j + 1) <- cstart.(j);
        for i = 0 to m - 1 do
          match a.(i).(j) with
          | Some c ->
            cidx := i :: !cidx;
            cval := c :: !cval;
            cstart.(j + 1) <- cstart.(j + 1) + 1
          | None -> ()
        done
      done;
      let cols =
        {
          Lp.ncols = n;
          nrows = m;
          cstart;
          cidx = Array.of_list (List.rev !cidx);
          cval = Array.of_list (List.rev !cval);
          lb = Array.map fst bounds;
          ub = Array.map snd bounds;
          rel;
          rhs;
          sense;
          cost;
        }
      in
      match (Lp.solve p, Lp.solve_columns cols) with
      | Lp.Optimal s1, Lp.Optimal s2 ->
        Int64.equal
          (Int64.bits_of_float (Lp.objective_value s1))
          (Int64.bits_of_float (Lp.objective_value s2))
        && Lp.iterations s1 = Lp.iterations s2
        || QCheck.Test.fail_reportf "objective %.17g vs %.17g, iterations %d vs %d"
             (Lp.objective_value s1) (Lp.objective_value s2) (Lp.iterations s1)
             (Lp.iterations s2)
      | Lp.Infeasible, Lp.Infeasible | Lp.Unbounded, Lp.Unbounded -> true
      | _ -> QCheck.Test.fail_report "statuses differ")

(* Optimality against the definition: on small random LPs, [Lp.solve]
   agrees with brute-force vertex enumeration. Rows are Le/Ge/Eq with
   small integer data (so degenerate vertices and ties are common) and
   right-hand sides of either sign; variables are non-negative, shifted,
   boxed (possibly fixed) or free. Every infinite variable bound is
   replaced by a box row at +/-5, so the region is a polytope: it is empty
   or its optimum sits at a vertex, the solution of [n] linearly
   independent active constraints. *)
type bf_row = { coef : float array; rel : Lp.relation; rhs : float }

(* Solve the square system [a x = b] by Gaussian elimination with partial
   pivoting; [None] when it is singular. *)
let solve_square a b =
  let n = Array.length b in
  let a = Array.map Array.copy a and b = Array.copy b in
  try
    for k = 0 to n - 1 do
      let piv = ref k in
      for i = k + 1 to n - 1 do
        if Float.abs a.(i).(k) > Float.abs a.(!piv).(k) then piv := i
      done;
      if Float.abs a.(!piv).(k) < 1e-9 then raise Exit;
      let t = a.(k) in
      a.(k) <- a.(!piv);
      a.(!piv) <- t;
      let t = b.(k) in
      b.(k) <- b.(!piv);
      b.(!piv) <- t;
      for i = k + 1 to n - 1 do
        let f = a.(i).(k) /. a.(k).(k) in
        for j = k to n - 1 do
          a.(i).(j) <- a.(i).(j) -. (f *. a.(k).(j))
        done;
        b.(i) <- b.(i) -. (f *. b.(k))
      done
    done;
    let x = Array.make n 0. in
    for i = n - 1 downto 0 do
      let s = ref b.(i) in
      for j = i + 1 to n - 1 do
        s := !s -. (a.(i).(j) *. x.(j))
      done;
      x.(i) <- !s /. a.(i).(i)
    done;
    Some x
  with Exit -> None

(* The best objective over all vertices, or [None] when there is none. *)
let brute_force ~maximize obj rows =
  let n = Array.length obj in
  let rows = Array.of_list rows in
  let dot c x =
    let s = ref 0. in
    Array.iteri (fun j cj -> s := !s +. (cj *. x.(j))) c;
    !s
  in
  let feasible x =
    Array.for_all
      (fun r ->
        let lhs = dot r.coef x and tol = 1e-7 *. (1. +. Float.abs r.rhs) in
        match r.rel with
        | Lp.Le -> lhs <= r.rhs +. tol
        | Lp.Ge -> lhs >= r.rhs -. tol
        | Lp.Eq -> Float.abs (lhs -. r.rhs) <= tol)
      rows
  in
  let best = ref None in
  let rec subsets start chosen k =
    if k = 0 then begin
      let chosen = Array.of_list chosen in
      match
        solve_square (Array.map (fun i -> rows.(i).coef) chosen) (Array.map (fun i -> rows.(i).rhs) chosen)
      with
      | Some x when feasible x ->
        let v = dot obj x in
        (match !best with
        | Some b when (if maximize then b >= v else b <= v) -> ()
        | _ -> best := Some v)
      | _ -> ()
    end
    else
      for i = start to Array.length rows - 1 do
        subsets (i + 1) (i :: chosen) (k - 1)
      done
  in
  subsets 0 [] n;
  !best

let prop_matches_vertex_enumeration =
  QCheck.Test.make ~name:"optimum matches vertex enumeration" ~count:500
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Sb_util.Rng.create seed in
      let small lo hi = float_of_int (lo + Sb_util.Rng.int rng (hi - lo + 1)) in
      let n = 1 + Sb_util.Rng.int rng 4 in
      let p = Lp.create () in
      let box = ref [] in
      let unit j = Array.init n (fun i -> if i = j then 1. else 0.) in
      let vars =
        Array.init n (fun j ->
            let lb, ub =
              match Sb_util.Rng.int rng 4 with
              | 0 -> (0., infinity)
              | 1 -> (small (-3) 3, infinity)
              | 2 ->
                let lb = small (-3) 3 in
                (lb, lb +. small 0 4)
              | _ -> (neg_infinity, infinity)
            in
            (* the LP keeps its finite bounds and gets a box row for each
               infinite one; the enumeration sees every bound as a row *)
            let v = Lp.add_var p ~lb ~ub (Printf.sprintf "v%d" j) in
            let box_row rel b =
              Lp.add_constraint p [ (1., v) ] rel b;
              b
            in
            let lo = if Float.is_finite lb then lb else box_row Lp.Ge (-5.) in
            let hi = if Float.is_finite ub then ub else box_row Lp.Le 5. in
            box :=
              { coef = unit j; rel = Lp.Ge; rhs = lo } :: { coef = unit j; rel = Lp.Le; rhs = hi } :: !box;
            v)
      in
      let rows =
        List.init (Sb_util.Rng.int rng 7) (fun _ ->
            let coef = Array.init n (fun _ -> small (-3) 3) in
            let rel = match Sb_util.Rng.int rng 3 with 0 -> Lp.Le | 1 -> Lp.Ge | _ -> Lp.Eq in
            let rhs = small (-6) 6 in
            Lp.add_constraint p
              (List.filteri (fun j _ -> coef.(j) <> 0.) (Array.to_list (Array.mapi (fun j v -> (coef.(j), v)) vars)))
              rel rhs;
            { coef; rel; rhs })
      in
      let obj = Array.init n (fun _ -> small (-3) 3) in
      let maximize = Sb_util.Rng.bool rng in
      Lp.set_objective p
        (if maximize then Lp.Maximize else Lp.Minimize)
        (Array.to_list (Array.mapi (fun j v -> (obj.(j), v)) vars));
      match (Lp.solve p, brute_force ~maximize obj (rows @ !box)) with
      | Lp.Infeasible, None -> true
      | Lp.Optimal s, Some best ->
        Float.abs (Lp.objective_value s -. best) <= 1e-7 *. Float.max 1. (Float.abs best)
      | _ -> false)

(* Strong duality on LPs large enough to exercise the basis updates:
   40-60 rows (Le, Ge and Eq) over 30-50 variables that are non-negative,
   boxed, bounded above only or free. Over 100 seeds a solve took 38-97
   iterations and 3-4 factorizations, so every case runs dozens of
   Forrest-Tomlin updates and refactors after some. The primal is made feasible by
   deriving each right-hand side from a point inside the bounds (with zero
   slack on some inequalities, for degeneracy), and bounded by deriving
   the costs from a dual-feasible point, c = A^T y + v - w. The dual is
   then built explicitly,
     max b^T y + l^T v - u^T w  s.t.  A^T y + v - w = c,
   with y_i >= 0 on Ge rows, <= 0 on Le rows, free on Eq rows, and
   v_j >= 0 (w_j >= 0) only for a finite lower (upper) bound, and both
   are solved by [Lp.solve]: their optima must agree. *)
let prop_strong_duality =
  QCheck.Test.make ~name:"primal and explicit dual optima agree" ~count:100
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Sb_util.Rng.create seed in
      let module R = Sb_util.Rng in
      let coef () = Float.round (R.uniform_in rng (-30.) 30.) /. 10. in
      let n = 30 + R.int rng 21 and m = 40 + R.int rng 21 in
      let lb, ub =
        Array.init n (fun _ ->
            match R.int rng 4 with
            | 0 -> (0., infinity)
            | 1 ->
              let l = coef () in
              (l, l +. R.uniform_in rng 0. 4.)
            | 2 -> (neg_infinity, coef ())
            | _ -> (neg_infinity, infinity))
        |> Array.split
      in
      let x0 =
        Array.init n (fun j ->
            match (Float.is_finite lb.(j), Float.is_finite ub.(j)) with
            | true, true -> R.uniform_in rng lb.(j) ub.(j)
            | true, false -> lb.(j) +. R.uniform_in rng 0. 2.
            | false, true -> ub.(j) -. R.uniform_in rng 0. 2.
            | false, false -> coef ())
      in
      let a = Array.init m (fun _ -> Array.init n (fun _ -> if R.int rng 4 = 0 then coef () else 0.)) in
      let rel = Array.init m (fun _ -> match R.int rng 3 with 0 -> Lp.Le | 1 -> Lp.Ge | _ -> Lp.Eq) in
      let rhs =
        Array.init m (fun i ->
            let ax = ref 0. in
            Array.iteri (fun j aij -> ax := !ax +. (aij *. x0.(j))) a.(i);
            let slack = if R.bool rng then 0. else R.uniform_in rng 0. 3. in
            match rel.(i) with Lp.Le -> !ax +. slack | Lp.Ge -> !ax -. slack | Lp.Eq -> !ax)
      in
      let y0 =
        Array.init m (fun i ->
            let y = R.uniform_in rng 0. 2. in
            match rel.(i) with Lp.Le -> -.y | Lp.Ge -> y | Lp.Eq -> y -. 1.)
      in
      let v0 = Array.init n (fun j -> if Float.is_finite lb.(j) then R.uniform_in rng 0. 1. else 0.) in
      let w0 = Array.init n (fun j -> if Float.is_finite ub.(j) then R.uniform_in rng 0. 1. else 0.) in
      let c =
        Array.init n (fun j ->
            let s = ref (v0.(j) -. w0.(j)) in
            Array.iteri (fun i row -> s := !s +. (row.(j) *. y0.(i))) a;
            !s)
      in
      let terms vars k = List.filter (fun (q, _) -> q <> 0.) (List.init (Array.length vars) (fun t -> (k t, vars.(t)))) in
      let primal = Lp.create () in
      let x = Array.init n (fun j -> Lp.add_var primal ~lb:lb.(j) ~ub:ub.(j) (Printf.sprintf "x%d" j)) in
      Array.iteri (fun i row -> Lp.add_constraint primal (terms x (fun j -> row.(j))) rel.(i) rhs.(i)) a;
      Lp.set_objective primal Lp.Minimize (terms x (fun j -> c.(j)));
      let dual = Lp.create () in
      let y =
        Array.init m (fun i ->
            let lb, ub =
              match rel.(i) with
              | Lp.Le -> (neg_infinity, 0.)
              | Lp.Ge -> (0., infinity)
              | Lp.Eq -> (neg_infinity, infinity)
            in
            Lp.add_var dual ~lb ~ub (Printf.sprintf "y%d" i))
      in
      let v = Array.map (fun l -> if Float.is_finite l then Some (Lp.add_var dual "v") else None) lb in
      let w = Array.map (fun u -> if Float.is_finite u then Some (Lp.add_var dual "w") else None) ub in
      let bound_terms j =
        (match v.(j) with Some vj -> [ (1., vj, lb.(j)) ] | None -> [])
        @ match w.(j) with Some wj -> [ (-1., wj, -.ub.(j)) ] | None -> []
      in
      for j = 0 to n - 1 do
        Lp.add_constraint dual
          (terms y (fun i -> a.(i).(j)) @ List.map (fun (q, var, _) -> (q, var)) (bound_terms j))
          Lp.Eq c.(j)
      done;
      Lp.set_objective dual Lp.Maximize
        (terms y (fun i -> rhs.(i))
        @ List.concat (List.init n (fun j -> List.map (fun (_, var, k) -> (k, var)) (bound_terms j))));
      match (Lp.solve primal, Lp.solve dual) with
      | Lp.Optimal p, Lp.Optimal d ->
        let po = Lp.objective_value p and dobj = Lp.objective_value d in
        Float.abs (po -. dobj) <= 1e-7 *. Float.max 1. (Float.abs po)
        || QCheck.Test.fail_reportf "primal %.12g, dual %.12g" po dobj
      | _ -> QCheck.Test.fail_report "primal or dual not optimal")

let prop_mip_at_most_lp =
  QCheck.Test.make ~name:"MIP optimum <= LP relaxation (maximize)" ~count:40
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Sb_util.Rng.create seed in
      let build () =
        let p = Lp.create () in
        let n = 2 + Sb_util.Rng.int rng 3 in
        let vars =
          Array.init n (fun i ->
              Lp.add_var p ~ub:10. ~integer:true (Printf.sprintf "v%d" i))
        in
        let terms = Array.to_list (Array.map (fun v -> (Sb_util.Rng.uniform_in rng 0.5 2., v)) vars) in
        Lp.add_constraint p terms Lp.Le (Sb_util.Rng.uniform_in rng 3. 15.);
        Lp.set_objective p Lp.Maximize
          (Array.to_list (Array.map (fun v -> (Sb_util.Rng.uniform_in rng 0.5 2., v)) vars));
        p
      in
      let p = build () in
      match (Mip.solve p, Lp.solve p) with
      | Mip.Optimal mi, Lp.Optimal lp ->
        Lp.objective_value mi <= Lp.objective_value lp +. 1e-6
      | _ -> true)

let () =
  Alcotest.run "sb_lp"
    [
      ( "simplex",
        [
          Alcotest.test_case "maximize basic" `Quick test_maximize_basic;
          Alcotest.test_case "ge and eq" `Quick test_minimize_with_ge_and_eq;
          Alcotest.test_case "infeasible" `Quick test_infeasible;
          Alcotest.test_case "unbounded" `Quick test_unbounded;
          Alcotest.test_case "unbounded after pivots" `Quick test_unbounded_after_pivots;
          Alcotest.test_case "trivial" `Quick test_degenerate_trivial;
          Alcotest.test_case "upper bound" `Quick test_variable_upper_bound;
          Alcotest.test_case "lower bound shift" `Quick test_variable_lower_bound_shift;
          Alcotest.test_case "free variable" `Quick test_free_variable;
          Alcotest.test_case "free with ub" `Quick test_free_variable_with_ub;
          Alcotest.test_case "negative rhs" `Quick test_negative_rhs_row;
          Alcotest.test_case "duplicate terms" `Quick test_duplicate_terms_summed;
          Alcotest.test_case "redundant equalities" `Quick test_redundant_equalities;
          Alcotest.test_case "transportation" `Quick test_transportation_problem;
          Alcotest.test_case "random feasibility" `Quick test_larger_random_feasibility;
          Alcotest.test_case "grid cross-check" `Slow test_grid_crosscheck;
          Alcotest.test_case "Beale cycling example" `Quick test_beale_cycling_example;
          Alcotest.test_case "highly degenerate" `Quick test_highly_degenerate;
          Alcotest.test_case "equality-only system" `Quick test_equality_only_system;
        ] );
      ( "inputs",
        [
          Alcotest.test_case "add_var rejects bad bounds" `Quick test_add_var_rejects_bad_bounds;
          Alcotest.test_case "rows reject non-finite data" `Quick test_rows_reject_non_finite;
          Alcotest.test_case "infinite rhs" `Quick test_infinite_rhs;
        ] );
      ( "mip",
        [
          Alcotest.test_case "basic" `Quick test_mip_basic;
          Alcotest.test_case "knapsack" `Quick test_mip_knapsack;
          Alcotest.test_case "infeasible" `Quick test_mip_infeasible;
          Alcotest.test_case "fractional gap" `Quick test_mip_fractional_gap;
          Alcotest.test_case "minimize" `Quick test_mip_minimize;
          Alcotest.test_case "mixed integer" `Quick test_mip_mixed_integer;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_optimal_is_feasible;
          QCheck_alcotest.to_alcotest prop_list_api_matches_columns;
          QCheck_alcotest.to_alcotest prop_matches_vertex_enumeration;
          QCheck_alcotest.to_alcotest prop_strong_duality;
          QCheck_alcotest.to_alcotest prop_mip_at_most_lp;
        ] );
    ]
