type result =
  | Optimal of Lp.solution
  | Infeasible
  | Unbounded
  | Node_limit of Lp.solution option

let solve ?(max_nodes = 10_000) ?(int_tol = 1e-6) problem =
  (* The column form is built once; a node differs from the root only in
     its column bounds. *)
  let cols = Lp.to_columns problem in
  let int_vars = List.filter (Lp.var_is_integer problem) (Lp.all_vars problem) in
  let maximizing = Lp.objective_sense problem = Lp.Maximize in
  (* Compare incumbents in minimization terms regardless of sense. *)
  let key sol =
    let obj = Lp.objective_value sol in
    if maximizing then -.obj else obj
  in
  let fractional sol =
    let best = ref None in
    List.iter
      (fun v ->
        let x = Lp.value sol v in
        let frac = Float.abs (x -. Float.round x) in
        if frac > int_tol then
          match !best with
          | Some (_, f) when f >= frac -> ()
          | _ -> best := Some (v, frac))
      int_vars;
    !best
  in
  let incumbent = ref None in
  let better k =
    match !incumbent with None -> true | Some (bk, _) -> k < bk -. 1e-9
  in
  let nodes = ref 0 in
  let truncated = ref false in
  let unbounded_root = ref false in
  (* [lb]/[ub]: the node's column bounds, the root's tightened by every
     branching decision above it. *)
  let rec branch ~root lb ub =
    if !nodes >= max_nodes then truncated := true
    else begin
      incr nodes;
      match Lp.solve_columns { cols with lb; ub } with
      | Lp.Infeasible -> ()
      | Lp.Unbounded -> if root then unbounded_root := true
      | Lp.Optimal sol ->
        let k = key sol in
        (* The relaxation bound prunes: a node whose relaxation is no better
           than the incumbent cannot contain a better integral solution. *)
        if better k then begin
          match fractional sol with
          | None -> incumbent := Some (k, sol)
          | Some (v, _) ->
            let x = Lp.value sol v and j = Lp.var_index v in
            let down = Array.copy ub in
            down.(j) <- Float.min ub.(j) (Float.floor x);
            branch ~root:false lb down;
            let up = Array.copy lb in
            up.(j) <- Float.max lb.(j) (Float.ceil x);
            branch ~root:false up ub
        end
    end
  in
  branch ~root:true cols.Lp.lb cols.Lp.ub;
  if !unbounded_root then Unbounded
  else
    match (!incumbent, !truncated) with
    | Some (_, sol), false -> Optimal sol
    | Some (_, sol), true -> Node_limit (Some sol)
    | None, true -> Node_limit None
    | None, false -> Infeasible
