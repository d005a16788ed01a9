type var = { id : int; vname : string; lb : float; ub : float; integer : bool }

type relation = Le | Ge | Eq
type expr = (float * var) list
type sense = Minimize | Maximize

(* Rows are packed as they are added: row i's terms are
   [term_var]/[term_coef] over [row_start.(i)] .. [row_start.(i+1) - 1],
   repeated variables included (the solver sums them). *)
type problem = {
  mutable vars : var list; (* reverse order of creation *)
  mutable nvars : int;
  mutable nrows : int;
  mutable row_start : int array;
  mutable row_rel : relation array;
  mutable row_rhs : float array;
  mutable term_var : int array;
  mutable term_coef : float array;
  mutable obj_sense : sense;
  mutable obj : expr;
  tightened : (var * float * float) list; (* bounds added by clone_with_bounds *)
}

let create ?name:_ () =
  {
    vars = [];
    nvars = 0;
    nrows = 0;
    row_start = Array.make 16 0;
    row_rel = Array.make 16 Le;
    row_rhs = Array.make 16 0.;
    term_var = Array.make 64 0;
    term_coef = Array.make 64 0.;
    obj_sense = Minimize;
    obj = [];
    tightened = [];
  }

let add_var p ?(lb = 0.) ?(ub = infinity) ?(integer = false) vname =
  if Float.is_nan lb || Float.is_nan ub then invalid_arg "Lp.add_var: NaN bound";
  if lb = infinity then invalid_arg "Lp.add_var: lb = infinity";
  if ub = neg_infinity then invalid_arg "Lp.add_var: ub = neg_infinity";
  if lb > ub then invalid_arg "Lp.add_var: lb > ub";
  let v = { id = p.nvars; vname; lb; ub; integer } in
  p.nvars <- p.nvars + 1;
  p.vars <- v :: p.vars;
  v

let var_name v = v.vname
let var_is_integer _p v = v.integer
let all_vars p = List.rev p.vars

(* [a] grown to hold at least [n] elements, padded with [pad]. *)
let ensure a n pad =
  if n <= Array.length a then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) pad in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let add_constraint p ?name:_ terms rel rhs =
  if Float.is_nan rhs then invalid_arg "Lp.add_constraint: NaN right-hand side";
  let i = p.nrows in
  p.row_start <- ensure p.row_start (i + 2) 0;
  p.row_rel <- ensure p.row_rel (i + 1) Le;
  p.row_rhs <- ensure p.row_rhs (i + 1) 0.;
  (* Terms are written past the last row and committed only at the end,
     so a rejected constraint leaves the problem unchanged. *)
  let k =
    List.fold_left
      (fun k (c, v) ->
        if not (Float.is_finite c) then invalid_arg "Lp.add_constraint: non-finite coefficient";
        if k >= Array.length p.term_var then begin
          p.term_var <- ensure p.term_var (k + 1) 0;
          p.term_coef <- ensure p.term_coef (k + 1) 0.
        end;
        p.term_var.(k) <- v.id;
        p.term_coef.(k) <- c;
        k + 1)
      p.row_start.(i) terms
  in
  p.row_start.(i + 1) <- k;
  p.row_rel.(i) <- rel;
  p.row_rhs.(i) <- rhs;
  p.nrows <- i + 1

let set_objective p sense terms =
  List.iter
    (fun (c, _) ->
      if not (Float.is_finite c) then invalid_arg "Lp.set_objective: non-finite coefficient")
    terms;
  p.obj_sense <- sense;
  p.obj <- terms

let num_vars p = p.nvars
let num_constraints p = p.nrows
let objective_sense p = p.obj_sense

(* The clone owns copies of the row arrays, so rows added later to either
   problem stay private to it. *)
let clone_with_bounds p extra =
  {
    p with
    row_start = Array.copy p.row_start;
    row_rel = Array.copy p.row_rel;
    row_rhs = Array.copy p.row_rhs;
    term_var = Array.copy p.term_var;
    term_coef = Array.copy p.term_coef;
    tightened = extra @ p.tightened;
  }

type solution = { values : float array; obj_value : float }

type outcome = Optimal of solution | Infeasible | Unbounded

let value sol v = sol.values.(v.id)
let objective_value sol = sol.obj_value

let pp_outcome ppf = function
  | Optimal s -> Format.fprintf ppf "optimal (objective %.6g)" s.obj_value
  | Infeasible -> Format.fprintf ppf "infeasible"
  | Unbounded -> Format.fprintf ppf "unbounded"

(* ------------------------------------------------------------------ *)
(* Sparse bounded revised simplex.                                     *)
(* ------------------------------------------------------------------ *)

(* Standard form. Row i gets a logical variable s_i = -(A_i x), so the
   system is [A I] (x, s) = 0 and every bound is a native variable bound:
   the structurals' own, and the rows' (Le: s_i >= -b_i, Ge: s_i <= -b_i,
   Eq: s_i = -b_i). Indices 0..n-1 are the structurals, n..n+m-1 the
   logicals. The start basis is all-logical (B = I) with every nonbasic
   structural at a finite bound, or at 0 when free, and then crashed (see
   [crash]). Whenever the basis violates a bound, the iteration is a phase
   1 iteration, minimizing the sum of infeasibilities; otherwise it is a
   phase 2 iteration on the true objective. *)

let eps = 1e-9 (* pivot magnitude, ratio-tie and reduced-cost tolerance *)
let feas_tol = 1e-9 (* relative primal feasibility tolerance *)
let drop_tol = 1e-14 (* eta entries below this are dropped *)
let max_updates = 512 (* basis updates between refactorizations, at most *)

(* A file of column etas. Eta t is the identity with column [row.(t)]
   replaced by a vector whose pivot entry is [pivot.(t)] and whose
   off-diagonal entries are [idx]/[value] over [start.(t)] ..
   [start.(t+1) - 1]. *)
type etas = {
  mutable count : int;
  mutable row : int array;
  mutable pivot : float array;
  mutable start : int array;
  mutable idx : int array;
  mutable value : float array;
}

let etas_create m =
  let cap = (2 * m) + 16 in
  {
    count = 0;
    row = Array.make cap 0;
    pivot = Array.make cap 0.;
    start = Array.make (cap + 1) 0;
    idx = Array.make (8 * cap) 0;
    value = Array.make (8 * cap) 0.;
  }

let etas_clear e =
  e.count <- 0;
  e.start.(0) <- 0

let etas_nnz e = e.start.(e.count)

(* Start eta [count] with pivot ([r], [pv]); entries follow via [eta_add]. *)
let eta_open e r pv =
  let k = e.count in
  if k + 1 >= Array.length e.row then begin
    e.row <- ensure e.row (k + 2) 0;
    e.pivot <- ensure e.pivot (k + 2) 0.;
    e.start <- ensure e.start (k + 3) 0
  end;
  e.row.(k) <- r;
  e.pivot.(k) <- pv;
  e.start.(k + 1) <- e.start.(k)

let eta_add e i v =
  let k = e.count in
  let t = e.start.(k + 1) in
  if t >= Array.length e.idx then begin
    e.idx <- ensure e.idx (t + 1) 0;
    e.value <- ensure e.value (t + 1) 0.
  end;
  e.idx.(t) <- i;
  e.value.(t) <- v;
  e.start.(k + 1) <- t + 1

let eta_close e = e.count <- e.count + 1

(* w <- E_k^-T w *)
let apply_t e k w =
  let p = e.row.(k) in
  let s = ref w.(p) in
  for t = e.start.(k) to e.start.(k + 1) - 1 do
    s := !s -. (e.value.(t) *. w.(e.idx.(t)))
  done;
  w.(p) <- !s /. e.pivot.(k)

(* A dense vector that also lists the indices it may be nonzero at, so a
   sparse FTRAN result is scanned and cleared in time proportional to its
   fill rather than to the row count. *)
type sparse_vec = { v : float array; pat : int array; mutable len : int; seen : bool array }

let sv_create m = { v = Array.make m 0.; pat = Array.make m 0; len = 0; seen = Array.make m false }

let sv_touch sv i =
  if not sv.seen.(i) then begin
    sv.seen.(i) <- true;
    sv.pat.(sv.len) <- i;
    sv.len <- sv.len + 1
  end

let sv_set sv i x =
  sv_touch sv i;
  sv.v.(i) <- x

let sv_clear sv =
  for k = 0 to sv.len - 1 do
    let i = sv.pat.(k) in
    sv.v.(i) <- 0.;
    sv.seen.(i) <- false
  done;
  sv.len <- 0

(* sv <- E_k^-1 sv, extending the pattern with each fill-in *)
let apply_sparse e k sv =
  let w = sv.v in
  let p = e.row.(k) in
  let xp = w.(p) in
  if xp <> 0. then begin
    let xp = xp /. e.pivot.(k) in
    w.(p) <- xp;
    for t = e.start.(k) to e.start.(k + 1) - 1 do
      let i = e.idx.(t) in
      sv_touch sv i;
      w.(i) <- w.(i) -. (e.value.(t) *. xp)
    done
  end

(* Append the eta of column [sv] pivoting on row [r]. *)
let push_eta e r sv =
  eta_open e r sv.v.(r);
  for k = 0 to sv.len - 1 do
    let i = sv.pat.(k) in
    if i <> r && Float.abs sv.v.(i) > drop_tol then eta_add e i sv.v.(i)
  done;
  eta_close e

(* The basis is B = L U E_1 ... E_t: a sparse LU factorization, kept as
   two eta files, followed by the product-form updates E_i of the pivots
   since. L's etas are unit row operations in elimination order; U's are
   its columns, so back substitution applies them in reverse. *)
type factor = { l : etas; u : etas; upd : etas }

(* sv <- B^-1 sv *)
let ftran f sv =
  for k = 0 to f.l.count - 1 do
    apply_sparse f.l k sv
  done;
  for k = f.u.count - 1 downto 0 do
    apply_sparse f.u k sv
  done;
  for k = 0 to f.upd.count - 1 do
    apply_sparse f.upd k sv
  done

(* w <- B^-T w *)
let btran f w =
  for k = f.upd.count - 1 downto 0 do
    apply_t f.upd k w
  done;
  for k = 0 to f.u.count - 1 do
    apply_t f.u k w
  done;
  for k = f.l.count - 1 downto 0 do
    apply_t f.l k w
  done

type state = {
  n : int; (* structurals *)
  m : int; (* rows = logicals *)
  (* A by columns and by rows *)
  cstart : int array;
  cidx : int array;
  cval : float array;
  rstart : int array;
  ridx : int array;
  rval : float array;
  lo : float array; (* n + m *)
  up : float array;
  cost : float array; (* phase-2 cost, minimization form *)
  x : float array;
  d : float array; (* reduced costs of the current phase *)
  head : int array; (* m: basic variable of each row position *)
  pos : int array; (* n + m: row position if basic, else -1 *)
  f : factor;
  col : sparse_vec; (* m: an FTRANed column *)
  rho : float array; (* m: BTRAN work vector *)
}

let infeasibility st j =
  let v = st.x.(j) and lo = st.lo.(j) and up = st.up.(j) in
  if v < lo -. (feas_tol *. (1. +. Float.abs lo)) then -1
  else if v > up +. (feas_tol *. (1. +. Float.abs up)) then 1
  else 0

(* Recompute basic values from the nonbasic ones: B x_B = -N x_N. *)
let compute_primal st =
  let sv = st.col in
  for j = 0 to st.n - 1 do
    let xj = st.x.(j) in
    if st.pos.(j) < 0 && xj <> 0. then
      for t = st.cstart.(j) to st.cstart.(j + 1) - 1 do
        let i = st.cidx.(t) in
        sv_set sv i (sv.v.(i) -. (st.cval.(t) *. xj))
      done
  done;
  for i = 0 to st.m - 1 do
    if st.pos.(st.n + i) < 0 then sv_set sv i (sv.v.(i) -. st.x.(st.n + i))
  done;
  ftran st.f sv;
  for r = 0 to st.m - 1 do
    st.x.(st.head.(r)) <- sv.v.(r)
  done;
  sv_clear sv

(* Reduced costs d_j = c_j - y^T a_j with y = B^-T c_B, for the cost
   [c_basic r] on each basic position and [c_nonbasic j] elsewhere. *)
let compute_duals st c_basic c_nonbasic =
  let y = st.rho in
  for r = 0 to st.m - 1 do
    y.(r) <- c_basic r
  done;
  btran st.f y;
  for j = 0 to st.n - 1 do
    if st.pos.(j) < 0 then begin
      let s = ref (c_nonbasic j) in
      for t = st.cstart.(j) to st.cstart.(j + 1) - 1 do
        s := !s -. (y.(st.cidx.(t)) *. st.cval.(t))
      done;
      st.d.(j) <- !s
    end
    else st.d.(j) <- 0.
  done;
  for i = 0 to st.m - 1 do
    let j = st.n + i in
    st.d.(j) <- (if st.pos.(j) < 0 then c_nonbasic j -. y.(i) else 0.)
  done

(* Refactorization: a right-looking sparse LU of the current basis.

   Basic logicals are unit columns: their rows are pivoted first, for
   free, and the structurals' entries in those rows go straight to U. The
   rest, the active submatrix, is held by columns (rows and values; the
   constraint matrix's columns are short) and by rows (column patterns
   only, retired columns skipped lazily), with columns bucketed by their
   active count. Pivots are taken in this order: a column with one active
   entry, then a row with one active entry — neither changes the rest of
   the active submatrix, so neither needs a stability test beyond a
   nonzero pivot — and otherwise Markowitz's rule over the sparsest few
   columns, among entries at least 1/10 of their column's largest. A
   column with nothing usable left leaves the basis, keeping its value,
   and the logical of each uncovered row takes its place. *)
let markowitz_columns = 4
let markowitz_threshold = 0.1

let refactor st =
  let n = st.n and m = st.m and f = st.f in
  etas_clear f.l;
  etas_clear f.u;
  etas_clear f.upd;
  let logical_row = Array.make m false and done_ = Array.make m false in
  let cols = ref [] in
  for r = m - 1 downto 0 do
    let j = st.head.(r) in
    st.pos.(j) <- -1;
    st.head.(r) <- -1;
    if j >= n then logical_row.(j - n) <- true else cols := j :: !cols
  done;
  for i = 0 to m - 1 do
    if logical_row.(i) then begin
      done_.(i) <- true;
      st.head.(i) <- n + i;
      st.pos.(n + i) <- i
    end
  done;
  let cols = Array.of_list !cols in
  let k = Array.length cols in
  (* the active submatrix: values by column, patterns by row *)
  let clen = Array.make k 0 and rlen = Array.make m 0 in
  Array.iteri
    (fun c j ->
      for t = st.cstart.(j) to st.cstart.(j + 1) - 1 do
        let i = st.cidx.(t) in
        if not done_.(i) then begin
          rlen.(i) <- rlen.(i) + 1;
          clen.(c) <- clen.(c) + 1
        end
      done)
    cols;
  let crow = Array.init k (fun c -> Array.make (2 * clen.(c)) 0) in
  let cv = Array.init k (fun c -> Array.make (2 * clen.(c)) 0.) in
  let rpat = Array.init m (fun i -> Array.make (2 * rlen.(i)) 0) in
  let rphys = Array.make m 0 in
  Array.fill clen 0 k 0;
  Array.iteri
    (fun c j ->
      for t = st.cstart.(j) to st.cstart.(j + 1) - 1 do
        let i = st.cidx.(t) in
        if not done_.(i) then begin
          crow.(c).(clen.(c)) <- i;
          cv.(c).(clen.(c)) <- st.cval.(t);
          clen.(c) <- clen.(c) + 1;
          rpat.(i).(rphys.(i)) <- c;
          rphys.(i) <- rphys.(i) + 1
        end
      done)
    cols;
  (* columns bucketed by active count, as doubly linked lists *)
  let bhead = Array.make (m + 2) (-1) and bnext = Array.make k (-1) and bprev = Array.make k (-1) in
  let active = Array.make k true in
  let insert c =
    let b = clen.(c) in
    bnext.(c) <- bhead.(b);
    bprev.(c) <- -1;
    if bhead.(b) >= 0 then bprev.(bhead.(b)) <- c;
    bhead.(b) <- c
  in
  let remove c =
    if bprev.(c) >= 0 then bnext.(bprev.(c)) <- bnext.(c) else bhead.(clen.(c)) <- bnext.(c);
    if bnext.(c) >= 0 then bprev.(bnext.(c)) <- bprev.(c)
  in
  let retire c =
    remove c;
    active.(c) <- false
  in
  for c = k - 1 downto 0 do
    insert c
  done;
  let singles = ref [] in
  for i = m - 1 downto 0 do
    if (not done_.(i)) && rlen.(i) = 1 then singles := i :: !singles
  done;
  (* position of row i in column c *)
  let find c i =
    let t = ref 0 in
    while crow.(c).(!t) <> i do
      incr t
    done;
    !t
  in
  let append c i v =
    let t = clen.(c) in
    if t >= Array.length crow.(c) then begin
      crow.(c) <- ensure crow.(c) (t + 1) 0;
      cv.(c) <- ensure cv.(c) (t + 1) 0.
    end;
    crow.(c).(t) <- i;
    cv.(c).(t) <- v;
    remove c;
    clen.(c) <- t + 1;
    insert c;
    if rphys.(i) >= Array.length rpat.(i) then rpat.(i) <- ensure rpat.(i) (rphys.(i) + 1) 0;
    rpat.(i).(rphys.(i)) <- c;
    rphys.(i) <- rphys.(i) + 1;
    rlen.(i) <- rlen.(i) + 1
  in
  (* U's rows in pivot order: pivot (row, local column, value) and the
     other entries of the row *)
  let piv_row = Array.make k 0 and piv_col = Array.make k 0 and piv_val = Array.make k 0. in
  let ustart = Array.make (k + 1) 0 in
  let ucol = ref (Array.make 64 0) and uval = ref (Array.make 64 0.) in
  let steps = ref 0 in
  let lmult = Array.make m 0. and lstamp = Array.make m (-1) and hit = Array.make m (-1) in
  let visit = ref 0 in
  let eliminate p q =
    let s = !steps in
    let pv = cv.(q).(find q p) in
    piv_row.(s) <- p;
    piv_col.(s) <- q;
    piv_val.(s) <- pv;
    retire q;
    done_.(p) <- true;
    st.head.(p) <- cols.(q);
    st.pos.(cols.(q)) <- p;
    (* column q without row p is L's column s *)
    let opened = ref false in
    for t = 0 to clen.(q) - 1 do
      let i = crow.(q).(t) in
      if i <> p then begin
        let mult = cv.(q).(t) /. pv in
        lmult.(i) <- mult;
        lstamp.(i) <- s;
        rlen.(i) <- rlen.(i) - 1;
        if not !opened then begin
          eta_open f.l p 1.;
          opened := true
        end;
        eta_add f.l i mult
      end
    done;
    if !opened then eta_close f.l;
    (* row p leaves every active column and becomes U's row s; each such
       column then takes the update -mult_i * u_pc on the rows of L's
       column, filling in where it has no entry yet *)
    let u0 = ustart.(s) in
    let un = ref u0 in
    for t = 0 to rphys.(p) - 1 do
      let c = rpat.(p).(t) in
      if active.(c) then begin
        let tp = find c p in
        let u = cv.(c).(tp) in
        let last = clen.(c) - 1 in
        crow.(c).(tp) <- crow.(c).(last);
        cv.(c).(tp) <- cv.(c).(last);
        remove c;
        clen.(c) <- last;
        insert c;
        ucol := ensure !ucol (!un + 1) 0;
        uval := ensure !uval (!un + 1) 0.;
        !ucol.(!un) <- c;
        !uval.(!un) <- u;
        incr un;
        incr visit;
        for t' = 0 to clen.(c) - 1 do
          let i = crow.(c).(t') in
          if lstamp.(i) = s then begin
            cv.(c).(t') <- cv.(c).(t') -. (lmult.(i) *. u);
            hit.(i) <- !visit
          end
        done;
        for t' = 0 to clen.(q) - 1 do
          let i = crow.(q).(t') in
          if i <> p && hit.(i) <> !visit then append c i (-.lmult.(i) *. u)
        done
      end
    done;
    ustart.(s + 1) <- !un;
    for t = 0 to clen.(q) - 1 do
      let i = crow.(q).(t) in
      if i <> p && rlen.(i) = 1 then singles := i :: !singles
    done;
    steps := s + 1
  in
  let rec next_pivot () =
    if bhead.(0) >= 0 then begin
      (* a column with no active entry: structurally singular *)
      retire bhead.(0);
      next_pivot ()
    end
    else if bhead.(1) >= 0 then begin
      let c = bhead.(1) in
      if Float.abs cv.(c).(0) > eps then Some (crow.(c).(0), c)
      else begin
        retire c;
        next_pivot ()
      end
    end
    else
      match !singles with
      | i :: rest ->
        singles := rest;
        if done_.(i) || rlen.(i) <> 1 then next_pivot ()
        else begin
          let t = ref 0 in
          while not active.(rpat.(i).(!t)) do
            incr t
          done;
          let c = rpat.(i).(!t) in
          if Float.abs cv.(c).(find c i) > eps then Some (i, c) else next_pivot ()
        end
      | [] -> markowitz ()
  and markowitz () =
    let best = ref None and best_cost = ref max_int and best_abs = ref 0. in
    let examined = ref 0 and b = ref 2 in
    while !examined < markowitz_columns && !b <= m && !best_cost > 0 do
      let c = ref bhead.(!b) in
      while !c >= 0 && !examined < markowitz_columns do
        let next = bnext.(!c) in
        let big = ref 0. in
        for t = 0 to clen.(!c) - 1 do
          big := Float.max !big (Float.abs cv.(!c).(t))
        done;
        if !big <= eps then retire !c
        else begin
          incr examined;
          for t = 0 to clen.(!c) - 1 do
            let i = crow.(!c).(t) and v = Float.abs cv.(!c).(t) in
            let cost = (rlen.(i) - 1) * (!b - 1) in
            if
              v >= markowitz_threshold *. !big
              && (cost < !best_cost || (cost = !best_cost && v > !best_abs))
            then begin
              best := Some (i, !c);
              best_cost := cost;
              best_abs := v
            end
          done
        end;
        c := next
      done;
      incr b
    done;
    match !best with
    | Some _ -> !best
    | None ->
      (* every column examined was retired as numerically empty *)
      if Array.exists Fun.id active then markowitz () else None
  in
  let rec loop () =
    match next_pivot () with
    | Some (p, q) ->
      eliminate p q;
      loop ()
    | None -> ()
  in
  loop ();
  (* Rows left uncovered take their logical. *)
  for i = 0 to m - 1 do
    if not done_.(i) then begin
      st.head.(i) <- n + i;
      st.pos.(n + i) <- i
    end
  done;
  (* U by columns: for each pivot, the entries above it in U's earlier
     rows and the rows of basic logicals. *)
  let steps = !steps in
  let step_of = Array.make k (-1) in
  for s = 0 to steps - 1 do
    step_of.(piv_col.(s)) <- s
  done;
  let cnt = Array.make (steps + 1) 0 in
  let each_entry fn =
    for s = 0 to steps - 1 do
      for u = ustart.(s) to ustart.(s + 1) - 1 do
        let s' = step_of.(!ucol.(u)) in
        if s' >= 0 then fn s' piv_row.(s) !uval.(u)
      done
    done;
    Array.iteri
      (fun c j ->
        let s' = step_of.(c) in
        if s' >= 0 then
          for t = st.cstart.(j) to st.cstart.(j + 1) - 1 do
            if logical_row.(st.cidx.(t)) then fn s' st.cidx.(t) st.cval.(t)
          done)
      cols
  in
  each_entry (fun s _ _ -> cnt.(s + 1) <- cnt.(s + 1) + 1);
  for s = 0 to steps - 1 do
    cnt.(s + 1) <- cnt.(s + 1) + cnt.(s)
  done;
  let fill = Array.sub cnt 0 (max 1 steps) in
  let urow = Array.make cnt.(steps) 0 and uv = Array.make cnt.(steps) 0. in
  each_entry (fun s i v ->
      urow.(fill.(s)) <- i;
      uv.(fill.(s)) <- v;
      fill.(s) <- fill.(s) + 1);
  for s = 0 to steps - 1 do
    eta_open f.u piv_row.(s) piv_val.(s);
    for t = cnt.(s) to cnt.(s + 1) - 1 do
      eta_add f.u urow.(t) uv.(t)
    done;
    eta_close f.u
  done

(* Crash: swap each basic fixed logical (an equality row) for a
   structural of its row before the first factorization. A fixed logical
   can only leave the basis through a degenerate pivot, so every swap
   saves one simplex iteration; SB-LP has hundreds of equality rows, and
   with its zero right-hand sides the crashed basis is still feasible. The
   new column may touch no row crashed before it, so the basis stays
   triangular and nonsingular; among a row's candidates the sparsest
   column wins, first index on ties. If the crashed basis is infeasible,
   phase 1 repairs it. *)
let crash st =
  let n = st.n and crashed = Array.make st.m false in
  for i = 0 to st.m - 1 do
    if st.lo.(n + i) = st.up.(n + i) then begin
      let best = ref (-1) and best_len = ref max_int in
      for t = st.rstart.(i) to st.rstart.(i + 1) - 1 do
        let j = st.ridx.(t) in
        let len = st.cstart.(j + 1) - st.cstart.(j) in
        if
          len < !best_len && st.pos.(j) < 0 && st.rval.(t) <> 0. && st.lo.(j) < st.up.(j)
          &&
          let free = ref true in
          for u = st.cstart.(j) to st.cstart.(j + 1) - 1 do
            if crashed.(st.cidx.(u)) then free := false
          done;
          !free
        then begin
          best := j;
          best_len := len
        end
      done;
      if !best >= 0 then begin
        let j = !best in
        crashed.(i) <- true;
        st.head.(i) <- j;
        st.pos.(j) <- i;
        st.pos.(n + i) <- -1;
        st.x.(n + i) <- st.lo.(n + i)
      end
    end
  done

(* Choose the entering variable by Dantzig's rule (largest |d_j|, first
   index on ties), or by Bland's rule (first eligible index) after a long
   degenerate streak. A nonbasic variable may increase when below its
   upper bound and decrease when above its lower bound. *)
let choose_entering st ~bland =
  let eligible j dj =
    st.pos.(j) < 0 && if dj < 0. then st.x.(j) < st.up.(j) else st.x.(j) > st.lo.(j)
  in
  let best = ref (-1) and best_v = ref eps in
  (try
     for j = 0 to st.n + st.m - 1 do
       let dj = st.d.(j) in
       if Float.abs dj > !best_v && eligible j dj then begin
         best := j;
         if bland then raise Exit;
         best_v := Float.abs dj
       end
     done
   with Exit -> ());
  !best

let solve p =
  let vars = Array.of_list (all_vars p) in
  let n = Array.length vars in
  let m = p.nrows in
  let lo = Array.make (n + m) 0. and up = Array.make (n + m) 0. in
  Array.iter
    (fun v ->
      lo.(v.id) <- v.lb;
      up.(v.id) <- v.ub)
    vars;
  List.iter
    (fun (v, l, u) ->
      lo.(v.id) <- Float.max lo.(v.id) l;
      up.(v.id) <- Float.min up.(v.id) u)
    p.tightened;
  (* Rows by CSR, duplicates summed in place. *)
  let cap = p.row_start.(m) in
  let rstart = Array.make (m + 1) 0 and ridx = Array.make cap 0 and rval = Array.make cap 0. in
  let mark = Array.make n (-1) and slot = Array.make n 0 in
  let k = ref 0 in
  let contradictory = ref false in
  for i = 0 to m - 1 do
    for t = p.row_start.(i) to p.row_start.(i + 1) - 1 do
      let j = p.term_var.(t) and coef = p.term_coef.(t) in
      if mark.(j) = i then rval.(slot.(j)) <- rval.(slot.(j)) +. coef
      else begin
        mark.(j) <- i;
        slot.(j) <- !k;
        ridx.(!k) <- j;
        rval.(!k) <- coef;
        incr k
      end
    done;
    rstart.(i + 1) <- !k;
    let b = p.row_rhs.(i) in
    (match p.row_rel.(i) with
    | Le ->
      lo.(n + i) <- -.b;
      up.(n + i) <- infinity
    | Ge ->
      lo.(n + i) <- neg_infinity;
      up.(n + i) <- -.b
    | Eq ->
      lo.(n + i) <- -.b;
      up.(n + i) <- -.b);
    (* an infinite right-hand side on the binding side can never hold *)
    if lo.(n + i) = infinity || up.(n + i) = neg_infinity then contradictory := true
  done;
  let infeasible_bounds = ref !contradictory in
  for j = 0 to n - 1 do
    if lo.(j) > up.(j) then infeasible_bounds := true
  done;
  if !infeasible_bounds then Infeasible
  else begin
    let nnz = !k in
    (* Columns by CSC. *)
    let cstart = Array.make (n + 1) 0 in
    for t = 0 to nnz - 1 do
      cstart.(ridx.(t) + 1) <- cstart.(ridx.(t) + 1) + 1
    done;
    for j = 0 to n - 1 do
      cstart.(j + 1) <- cstart.(j + 1) + cstart.(j)
    done;
    let cidx = Array.make nnz 0 and cval = Array.make nnz 0. in
    let fill = Array.sub cstart 0 n in
    for i = 0 to m - 1 do
      for t = rstart.(i) to rstart.(i + 1) - 1 do
        let j = ridx.(t) in
        cidx.(fill.(j)) <- i;
        cval.(fill.(j)) <- rval.(t);
        fill.(j) <- fill.(j) + 1
      done
    done;
    let sign = match p.obj_sense with Minimize -> 1. | Maximize -> -1. in
    let cost = Array.make (n + m) 0. in
    List.iter (fun (coef, v) -> cost.(v.id) <- cost.(v.id) +. (sign *. coef)) p.obj;
    let x = Array.make (n + m) 0. in
    for j = 0 to n - 1 do
      x.(j) <- (if lo.(j) > neg_infinity then lo.(j) else if up.(j) < infinity then up.(j) else 0.)
    done;
    let st =
      {
        n;
        m;
        cstart;
        cidx;
        cval;
        rstart;
        ridx;
        rval;
        lo;
        up;
        cost;
        x;
        d = Array.make (n + m) 0.;
        head = Array.init m (fun i -> n + i);
        pos = Array.init (n + m) (fun j -> if j >= n then j - n else -1);
        f = { l = etas_create m; u = etas_create m; upd = etas_create m };
        col = sv_create m;
        rho = Array.make m 0.;
      }
    in
    crash st;
    (* Bland's rule takes over after this many degenerate pivots in a row:
       twice the rows plus the columns, logicals included *)
    let bland_after = 2 * (m + (n + m)) in
    let streak = ref 0 in
    let updates = ref 0 in
    (* [fresh]: x_B and (in phase 2) d were recomputed in full since
       the last pivot, so a verdict taken now is not an artefact of drift. *)
    let fresh = ref true in
    let d_valid = ref false in
    (* Refactor once the update etas hold twice as many nonzeros as the
       fresh factors plus one per row, by when FTRAN and BTRAN cost about
       three times what they would after a refactorization, or after
       [max_updates] pivots. Of the factors tried on SB-LP (1, 1.5, 2 and
       3 at 12 chains; 1, 2 and 4 at 50 and 200), 2 was the fastest. *)
    let base_nnz = ref 0 in
    let refresh () =
      refactor st;
      base_nnz := etas_nnz st.f.l + etas_nnz st.f.u;
      compute_primal st;
      updates := 0;
      d_valid := false;
      fresh := true
    in
    refresh ();
    let result = ref None in
    while !result = None do
      if
        !updates >= max_updates || etas_nnz st.f.upd >= 2 * (!base_nnz + m)
      then refresh ();
      let phase1 = ref false in
      for r = 0 to m - 1 do
        if infeasibility st st.head.(r) <> 0 then phase1 := true
      done;
      if !phase1 then begin
        compute_duals st (fun r -> float_of_int (infeasibility st st.head.(r))) (fun _ -> 0.);
        d_valid := false
      end
      else if not !d_valid then begin
        compute_duals st (fun r -> st.cost.(st.head.(r))) (fun j -> st.cost.(j));
        d_valid := true
      end;
      let q = choose_entering st ~bland:(!streak > bland_after) in
      if q < 0 then begin
        if not !fresh then refresh ()
        else if !phase1 then result := Some Infeasible
        else begin
          let obj = ref 0. in
          for j = 0 to n - 1 do
            if cost.(j) <> 0. then obj := !obj +. (cost.(j) *. x.(j))
          done;
          result := Some (Optimal { values = Array.sub x 0 n; obj_value = sign *. !obj })
        end
      end
      else begin
        let dir = if st.d.(q) < 0. then 1. else -1. in
        let col = st.col in
        if q < n then
          for t = cstart.(q) to cstart.(q + 1) - 1 do
            sv_set col cidx.(t) cval.(t)
          done
        else sv_set col (q - n) 1.;
        ftran st.f col;
        let alpha = col.v in
        (* Ratio test. As x_q moves by [dir * t], basic r moves by
           [-dir * alpha_r * t]. A feasible basic blocks at the bound it
           heads for; an infeasible one (phase 1) at the bound it violates,
           once it reaches it; ties go to the smallest basic index. *)
        let leave = ref (-1) and best = ref infinity and target = ref 0. in
        for k = 0 to col.len - 1 do
          let r = col.pat.(k) in
          let a = alpha.(r) in
          if Float.abs a > eps then begin
            let b = st.head.(r) in
            let v = x.(b) and delta = -.dir *. a in
            let status = infeasibility st b in
            let lim =
              if delta < 0. then (if status > 0 then up.(b) else if status < 0 then neg_infinity else lo.(b))
              else if status < 0 then lo.(b)
              else if status > 0 then infinity
              else up.(b)
            in
            if Float.is_finite lim then begin
              let ratio = Float.max 0. ((lim -. v) /. delta) in
              if
                ratio < !best -. eps
                || (ratio < !best +. eps && (!leave < 0 || b < st.head.(!leave)))
              then begin
                best := ratio;
                leave := r;
                target := lim
              end
            end
          end
        done;
        let room = if dir > 0. then up.(q) -. x.(q) else x.(q) -. lo.(q) in
        if !leave < 0 && room = infinity then begin
          if not !fresh then begin
            (* compute_primal works in [col] too *)
            sv_clear col;
            refresh ()
          end
          else if !phase1 then failwith "Lp.solve: numerical failure in phase 1"
          else result := Some Unbounded
        end
        else begin
          let flip = room <= !best in
          let t = if flip then room else !best in
          if t < eps then incr streak else streak := 0;
          let s = dir *. t in
          if t > 0. then
            for k = 0 to col.len - 1 do
              let r = col.pat.(k) in
              let a = alpha.(r) in
              if a <> 0. then begin
                let b = st.head.(r) in
                x.(b) <- x.(b) -. (s *. a)
              end
            done;
          if flip then x.(q) <- (if dir > 0. then up.(q) else lo.(q))
          else begin
            let r = !leave in
            let b = st.head.(r) in
            x.(q) <- x.(q) +. s;
            x.(b) <- !target;
            if !d_valid then begin
              (* d_j -= theta * (B^-1 a_j)_r, the pivot row through rho = B^-T e_r *)
              let theta = st.d.(q) /. alpha.(r) in
              let rho = st.rho in
              Array.fill rho 0 m 0.;
              rho.(r) <- 1.;
              btran st.f rho;
              for i = 0 to m - 1 do
                let f = theta *. rho.(i) in
                if f <> 0. then begin
                  for t = rstart.(i) to rstart.(i + 1) - 1 do
                    let j = ridx.(t) in
                    st.d.(j) <- st.d.(j) -. (f *. rval.(t))
                  done;
                  st.d.(n + i) <- st.d.(n + i) -. f
                end
              done;
              st.d.(q) <- 0.;
              st.d.(b) <- -.theta
            end;
            push_eta st.f.upd r col;
            st.head.(r) <- q;
            st.pos.(q) <- r;
            st.pos.(b) <- -1;
            incr updates
          end;
          fresh := false
        end;
        sv_clear col
      end
    done;
    Option.get !result
  end
