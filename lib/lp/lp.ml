type var = { id : int; vname : string; lb : float; ub : float; integer : bool }

type relation = Le | Ge | Eq
type expr = (float * var) list
type sense = Minimize | Maximize

(* Rows are packed as they are added: row i's terms are
   [term_var]/[term_coef] over [row_start.(i)] .. [row_start.(i+1) - 1],
   repeated variables included ([to_columns] sums them). *)
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
let var_index v = v.id
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

type columns = {
  ncols : int;
  nrows : int;
  cstart : int array;
  cidx : int array;
  cval : float array;
  lb : float array;
  ub : float array;
  rel : relation array;
  rhs : float array;
  sense : sense;
  cost : float array;
}

(* The rows' terms scattered to their columns. Rows are visited in order,
   so each column's rows arrive ascending, and a variable repeated within
   a row lands next to its earlier term and is summed into it, in the
   order the terms were added. Repeats leave gaps, closed at the end. *)
let to_columns p =
  let n = p.nvars and m = p.nrows in
  let cstart = Array.make (n + 1) 0 in
  for t = 0 to p.row_start.(m) - 1 do
    let j = p.term_var.(t) in
    cstart.(j + 1) <- cstart.(j + 1) + 1
  done;
  for j = 0 to n - 1 do
    cstart.(j + 1) <- cstart.(j + 1) + cstart.(j)
  done;
  let cap = cstart.(n) in
  let cidx = Array.make cap 0 and cval = Array.make cap 0. in
  let fill = Array.sub cstart 0 n in
  for i = 0 to m - 1 do
    for t = p.row_start.(i) to p.row_start.(i + 1) - 1 do
      let j = p.term_var.(t) and coef = p.term_coef.(t) in
      let k = fill.(j) in
      if k > cstart.(j) && cidx.(k - 1) = i then cval.(k - 1) <- cval.(k - 1) +. coef
      else begin
        cidx.(k) <- i;
        cval.(k) <- coef;
        fill.(j) <- k + 1
      end
    done
  done;
  let nnz = ref 0 in
  for j = 0 to n - 1 do
    let from = cstart.(j) in
    cstart.(j) <- !nnz;
    for t = from to fill.(j) - 1 do
      cidx.(!nnz) <- cidx.(t);
      cval.(!nnz) <- cval.(t);
      incr nnz
    done
  done;
  cstart.(n) <- !nnz;
  let lb = Array.make n 0. and ub = Array.make n 0. in
  List.iter
    (fun v ->
      lb.(v.id) <- v.lb;
      ub.(v.id) <- v.ub)
    p.vars;
  let cost = Array.make n 0. in
  List.iter (fun (coef, v) -> cost.(v.id) <- cost.(v.id) +. coef) p.obj;
  {
    ncols = n;
    nrows = m;
    cstart;
    cidx;
    cval;
    lb;
    ub;
    rel = Array.sub p.row_rel 0 m;
    rhs = Array.sub p.row_rhs 0 m;
    sense = p.obj_sense;
    cost;
  }

type solution = {
  values : float array;
  obj_value : float;
  iterations : int;
  refactorizations : int;
}

type outcome = Optimal of solution | Infeasible | Unbounded

let value sol v = sol.values.(v.id)
let column_value sol j = sol.values.(j)
let objective_value sol = sol.obj_value
let iterations sol = sol.iterations
let refactorizations sol = sol.refactorizations

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
let drop_tol = 1e-14 (* factor and pivot-row entries below this are dropped *)
let max_updates = 512 (* basis updates between refactorizations, at most *)
let update_tol = 1e-8 (* relative error of an updated diagonal that forces a refactorization *)

(* Unchecked array access, only in the inner loops of the triangular
   solves, the pivot row and pricing and in the sparse-vector helpers they
   call: their indices come from the factor's own index arrays, the
   matrix's CSR/CSC arrays or a loop bound that is an array's length. *)
external ( .!() ) : 'a array -> int -> 'a = "%array_unsafe_get"
external ( .!()<- ) : 'a array -> int -> 'a -> unit = "%array_unsafe_set"

(* A file of etas. Column eta t is the identity with column [row.(t)]
   replaced by a vector whose pivot entry is [pivot.(t)] and whose
   off-diagonal entries are [idx]/[value] over [start.(t)] ..
   [start.(t+1) - 1]; a row eta (see [apply_row]) reads the same arrays
   as a row. *)
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
let[@inline] apply_t e k w =
  let p = e.row.!(k) in
  let s = ref w.!(p) in
  for t = e.start.!(k) to e.start.!(k + 1) - 1 do
    s := !s -. (e.value.!(t) *. w.!(e.idx.!(t)))
  done;
  w.!(p) <- !s /. e.pivot.!(k)

(* A dense vector that also lists the indices it may be nonzero at, so a
   sparse FTRAN result is scanned and cleared in time proportional to its
   fill rather than to the row count. *)
type sparse_vec = { v : float array; pat : int array; mutable len : int; seen : bool array }

let sv_create m = { v = Array.make m 0.; pat = Array.make m 0; len = 0; seen = Array.make m false }

let[@inline] sv_touch sv i =
  if not sv.seen.!(i) then begin
    sv.seen.!(i) <- true;
    sv.pat.!(sv.len) <- i;
    sv.len <- sv.len + 1
  end

let[@inline] sv_set sv i x =
  sv_touch sv i;
  sv.v.!(i) <- x

let sv_clear sv =
  for k = 0 to sv.len - 1 do
    let i = sv.pat.(k) in
    sv.v.(i) <- 0.;
    sv.seen.(i) <- false
  done;
  sv.len <- 0

(* sv <- E_k^-1 sv, extending the pattern with each fill-in *)
let[@inline] apply_sparse e k sv =
  let w = sv.v in
  let p = e.row.!(k) in
  let xp = w.!(p) in
  if xp <> 0. then begin
    let xp = xp /. e.pivot.!(k) in
    w.!(p) <- xp;
    for t = e.start.!(k) to e.start.!(k + 1) - 1 do
      let i = e.idx.!(t) in
      sv_touch sv i;
      w.!(i) <- w.!(i) -. (e.value.!(t) *. xp)
    done
  end

(* w <- R_k w for the row eta k of a file of row etas: R_k is the
   identity with row [row.(k)] replaced by e_r - sum_j m_j e_j, the
   multipliers m_j being [idx]/[value]; [pivot] is unused. *)
let[@inline] apply_row e k sv =
  let w = sv.v in
  let s = ref 0. in
  for t = e.start.!(k) to e.start.!(k + 1) - 1 do
    s := !s +. (e.value.!(t) *. w.!(e.idx.!(t)))
  done;
  if !s <> 0. then begin
    let r = e.row.!(k) in
    sv_touch sv r;
    w.!(r) <- w.!(r) -. !s
  end

(* w <- R_k^T w *)
let[@inline] apply_row_t e k w =
  let x = w.!(e.row.!(k)) in
  if x <> 0. then
    for t = e.start.!(k) to e.start.!(k + 1) - 1 do
      let j = e.idx.!(t) in
      w.!(j) <- w.!(j) -. (e.value.!(t) *. x)
    done

(* U of the factorization, by columns in pivot order. Slot k holds the
   column of basis position [spos.(k)]: its diagonal [diag.(k)] sits in
   row [spos.(k)], its other entries [idx]/[value] over [beg.(k)] ..
   [fin.(k) - 1] in rows of earlier slots. A position with no slot has a
   unit column (a basic logical since the last refactorization) and
   counts as pivoted before every slot, so U is upper triangular in slot
   order. An update retires a slot ([spos] = -1) and appends one, so the
   entry arena only grows until the next refactorization. [rows.(i)]
   lists, over [rlen.(i)], the slots that have an entry in row i, and
   possibly some that have retired since. *)
type upper = {
  mutable slots : int;
  mutable spos : int array;
  mutable diag : float array;
  mutable beg : int array;
  mutable fin : int array;
  mutable idx : int array;
  mutable value : float array;
  mutable used : int; (* arena entries, live or not *)
  mutable nnz : int; (* live off-diagonal entries *)
  slot : int array; (* m: slot of each position, -1 for a unit column *)
  rows : int array array; (* m *)
  rlen : int array; (* m *)
  mutable queued : bool array; (* per slot, for [upper_solve_t] *)
}

let upper_create m =
  let cap = m + 16 in
  {
    slots = 0;
    spos = Array.make cap 0;
    diag = Array.make cap 0.;
    beg = Array.make cap 0;
    fin = Array.make cap 0;
    idx = Array.make (8 * cap) 0;
    value = Array.make (8 * cap) 0.;
    used = 0;
    nnz = 0;
    slot = Array.make m (-1);
    rows = Array.make m [||];
    rlen = Array.make m 0;
    queued = Array.make cap false;
  }

let upper_clear u =
  u.slots <- 0;
  u.used <- 0;
  u.nnz <- 0;
  Array.fill u.slot 0 (Array.length u.slot) (-1);
  Array.fill u.rlen 0 (Array.length u.rlen) 0

(* Append a slot for position [p] with diagonal [d]; entries follow via
   [upper_add], and [upper_close] commits it. *)
let upper_open u p d =
  let k = u.slots in
  if k >= Array.length u.spos then begin
    u.spos <- ensure u.spos (k + 1) 0;
    u.diag <- ensure u.diag (k + 1) 0.;
    u.beg <- ensure u.beg (k + 1) 0;
    u.fin <- ensure u.fin (k + 1) 0;
    u.queued <- ensure u.queued (k + 1) false
  end;
  u.spos.(k) <- p;
  u.diag.(k) <- d;
  u.beg.(k) <- u.used;
  u.fin.(k) <- u.used;
  u.slot.(p) <- k

let upper_add u i v =
  let t = u.used and k = u.slots in
  if t >= Array.length u.idx then begin
    u.idx <- ensure u.idx (t + 1) 0;
    u.value <- ensure u.value (t + 1) 0.
  end;
  u.idx.(t) <- i;
  u.value.(t) <- v;
  u.used <- t + 1;
  u.fin.(k) <- t + 1;
  u.nnz <- u.nnz + 1;
  let l = u.rlen.(i) in
  if l >= Array.length u.rows.(i) then u.rows.(i) <- ensure u.rows.(i) (max 4 (l + 1)) 0;
  u.rows.(i).(l) <- k;
  u.rlen.(i) <- l + 1

let upper_close u = u.slots <- u.slots + 1

(* sv <- U^-1 sv, by back substitution in reverse slot order *)
let upper_solve u sv =
  let w = sv.v in
  for k = u.slots - 1 downto 0 do
    let p = u.spos.!(k) in
    if p >= 0 && w.!(p) <> 0. then begin
      let xp = w.!(p) /. u.diag.!(k) in
      w.!(p) <- xp;
      for t = u.beg.!(k) to u.fin.!(k) - 1 do
        let i = u.idx.!(t) in
        sv_touch sv i;
        w.!(i) <- w.!(i) -. (u.value.!(t) *. xp)
      done
    end
  done

(* sv <- U^-T sv for a sparse [sv]: only the slots reachable from its
   pattern through [rows] are solved, in one sweep up the slot order. A
   solved position queues the slots of its row, all of them later. *)
let upper_solve_t u sv =
  let w = sv.v in
  let first = ref u.slots and pending = ref 0 in
  let queue k =
    if u.spos.(k) >= 0 && not u.queued.(k) then begin
      u.queued.(k) <- true;
      incr pending;
      if k < !first then first := k
    end
  in
  let queue_row i =
    let ks = u.rows.(i) in
    for t = 0 to u.rlen.(i) - 1 do
      queue ks.(t)
    done
  in
  for t = 0 to sv.len - 1 do
    let p = sv.pat.(t) in
    let k = u.slot.(p) in
    (* a unit column's value is final *)
    if k >= 0 then queue k else if w.(p) <> 0. then queue_row p
  done;
  let k = ref !first in
  while !pending > 0 do
    let kk = !k in
    if u.queued.(kk) then begin
      u.queued.(kk) <- false;
      decr pending;
      let p = u.spos.(kk) in
      let s = ref w.(p) in
      for t = u.beg.(kk) to u.fin.(kk) - 1 do
        s := !s -. (u.value.!(t) *. w.!(u.idx.!(t)))
      done;
      let y = !s /. u.diag.(kk) in
      if y <> 0. then begin
        sv_set sv p y;
        queue_row p
      end
      else w.(p) <- 0.
    end;
    k := kk + 1
  done

(* The basis is B = L R_1^-1 ... R_t^-1 U: a sparse LU factorization
   whose U has since taken one Forrest-Tomlin update per basis change,
   each leaving a row eta R_i. L's etas are unit row operations in
   elimination order. [spike] holds the spike of the entering column,
   for [update]; [urow] holds the U^-T stage of a BTRAN, which for the
   leaving row [update] reads too. *)
type factor = { l : etas; r : etas; u : upper; spike : sparse_vec; urow : sparse_vec }

(* sv <- R_t ... R_1 L^-1 sv: the spike of a column *)
let ftran_lower f sv =
  for k = 0 to f.l.count - 1 do
    apply_sparse f.l k sv
  done;
  for k = 0 to f.r.count - 1 do
    apply_row f.r k sv
  done

(* sv <- B^-1 sv *)
let ftran f sv =
  ftran_lower f sv;
  upper_solve f.u sv

(* w <- L^-T R_1^T ... R_t^T sv: BTRAN after U, from [sv] = U^-T e into
   the dense [w] *)
let btran_lower f sv w =
  Array.fill w 0 (Array.length w) 0.;
  for k = 0 to sv.len - 1 do
    let i = sv.pat.(k) in
    w.(i) <- sv.v.(i)
  done;
  for k = f.r.count - 1 downto 0 do
    apply_row_t f.r k w
  done;
  for k = f.l.count - 1 downto 0 do
    apply_t f.l k w
  done

(* Forrest-Tomlin update: the column of position [r] becomes [f.spike],
   the spike of the entering column, whose FTRAN gave [alpha_r] in row r;
   [f.urow] holds y = U^-T e_r. The old column's slot retires and row r's
   entries leave U's later columns. The row eta that eliminates them has
   multipliers m_p = -u_rr y_p, u_rr being the old diagonal, since
   U^T y = e_r gives sum_i m_i u_ip = u_rp on every later column p. The
   spike through that eta becomes the last slot, on row r. By the
   determinant, its diagonal is alpha_r u_rr; [false] when it is not to
   working accuracy, or is tiny next to the spike, and a refactorization
   is due. *)
let update f r alpha_r =
  let u = f.u and spk = f.spike and y = f.urow in
  let k0 = u.slot.(r) in
  let old_diag = if k0 >= 0 then u.diag.(k0) else 1. in
  let ks = u.rows.(r) in
  for t = 0 to u.rlen.(r) - 1 do
    let k = ks.(t) in
    if u.spos.(k) >= 0 then begin
      let e = ref u.beg.(k) in
      while !e < u.fin.(k) && u.idx.(!e) <> r do
        incr e
      done;
      if !e < u.fin.(k) then begin
        let last = u.fin.(k) - 1 in
        u.idx.(!e) <- u.idx.(last);
        u.value.(!e) <- u.value.(last);
        u.fin.(k) <- last;
        u.nnz <- u.nnz - 1
      end
    end
  done;
  u.rlen.(r) <- 0;
  let d = ref spk.v.(r) and entries = ref 0 in
  eta_open f.r r 1.;
  for t = 0 to y.len - 1 do
    let p = y.pat.(t) in
    let mp = -.old_diag *. y.v.(p) in
    if p <> r && Float.abs mp > drop_tol then begin
      d := !d -. (mp *. spk.v.(p));
      eta_add f.r p mp;
      incr entries
    end
  done;
  (* an empty row eta is the identity: left open, the next one reuses it *)
  if !entries > 0 then eta_close f.r;
  if k0 >= 0 then begin
    u.nnz <- u.nnz - (u.fin.(k0) - u.beg.(k0));
    u.spos.(k0) <- -1
  end;
  let d = !d and big = ref 0. in
  upper_open u r d;
  for t = 0 to spk.len - 1 do
    let i = spk.pat.(t) in
    let v = spk.v.(i) in
    big := Float.max !big (Float.abs v);
    if i <> r && Float.abs v > drop_tol then upper_add u i v
  done;
  upper_close u;
  Float.abs d > eps *. !big
  && Float.abs (d -. (alpha_r *. old_diag)) <= update_tol *. Float.abs d

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
  stat : int array; (* m: [infeasibility] of each basic position's value *)
  mutable infeasible : int; (* basic positions with [stat] <> 0 *)
}

let[@inline] infeasibility st j =
  let v = st.x.(j) and lo = st.lo.(j) and up = st.up.(j) in
  if v < lo -. (feas_tol *. (1. +. Float.abs lo)) then -1
  else if v > up +. (feas_tol *. (1. +. Float.abs up)) then 1
  else 0

(* Re-read basic position [r]'s bound status after its value changed. *)
let[@inline] restat st r =
  let s = infeasibility st st.head.(r) in
  st.infeasible <- st.infeasible + Bool.to_int (s <> 0) - Bool.to_int (st.stat.(r) <> 0);
  st.stat.(r) <- s

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
  let y = st.rho and cb = st.f.urow in
  for r = 0 to st.m - 1 do
    let c = c_basic r in
    if c <> 0. then sv_set cb r c
  done;
  upper_solve_t st.f.u cb;
  btran_lower st.f cb y;
  sv_clear cb;
  for j = 0 to st.n - 1 do
    if st.pos.(j) < 0 then begin
      let s = ref (c_nonbasic j) in
      for t = st.cstart.(j) to st.cstart.(j + 1) - 1 do
        s := !s -. (y.!(st.cidx.!(t)) *. st.cval.!(t))
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
  etas_clear f.r;
  upper_clear f.u;
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
  (* a column with nothing usable left leaves its rows too *)
  let discard c =
    retire c;
    for t = 0 to clen.(c) - 1 do
      let i = crow.(c).(t) in
      rlen.(i) <- rlen.(i) - 1;
      if rlen.(i) = 1 then singles := i :: !singles
    done
  in
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
        discard c;
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
        if !big <= eps then discard !c
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
    upper_open f.u piv_row.(s) piv_val.(s);
    for t = cnt.(s) to cnt.(s + 1) - 1 do
      upper_add f.u urow.(t) uv.(t)
    done;
    upper_close f.u
  done

(* Crash: swap each basic fixed logical (an equality row) for a
   structural of its row before the first factorization. A fixed logical
   can only leave the basis through a degenerate pivot, so every swap
   saves one simplex iteration; SB-LP has hundreds of equality rows, and
   with its zero right-hand sides the crashed basis is still feasible. The
   new column may touch no row crashed before it, so the basis stays
   triangular and nonsingular; among a row's candidates the sparsest
   column wins, first index on ties (a row lists its columns ascending).
   If the crashed basis is infeasible, phase 1 repairs it. *)
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
    st.pos.!(j) < 0 && if dj < 0. then st.x.!(j) < st.up.!(j) else st.x.!(j) > st.lo.!(j)
  in
  let best = ref (-1) and best_v = ref eps in
  (try
     for j = 0 to st.n + st.m - 1 do
       let dj = st.d.!(j) in
       if Float.abs dj > !best_v && eligible j dj then begin
         best := j;
         if bland then raise Exit;
         best_v := Float.abs dj
       end
     done
   with Exit -> ());
  !best

(* The column form's shape and data, checked once per solve: the simplex
   indexes its arrays without bounds checks. *)
let check_columns c =
  let fail what = invalid_arg ("Lp.solve_columns: " ^ what) in
  let n = c.ncols and m = c.nrows in
  if n < 0 || m < 0 then fail "negative size";
  if Array.length c.cstart <> n + 1 || c.cstart.(0) <> 0 then fail "cstart";
  if Array.length c.lb <> n || Array.length c.ub <> n || Array.length c.cost <> n then
    fail "column arrays";
  if Array.length c.rel <> m || Array.length c.rhs <> m then fail "row arrays";
  let nnz = c.cstart.(n) in
  if nnz > Array.length c.cidx || nnz > Array.length c.cval then fail "cidx/cval too short";
  for j = 0 to n - 1 do
    let lo = c.lb.(j) and up = c.ub.(j) in
    if Float.is_nan lo || Float.is_nan up || lo = infinity || up = neg_infinity then
      fail "bad bound";
    if not (Float.is_finite c.cost.(j)) then fail "non-finite cost";
    if c.cstart.(j + 1) < c.cstart.(j) then fail "cstart";
    let last = ref (-1) in
    for t = c.cstart.(j) to c.cstart.(j + 1) - 1 do
      let i = c.cidx.(t) in
      if i <= !last || i >= m then fail "rows not ascending or out of range";
      if not (Float.is_finite c.cval.(t)) then fail "non-finite coefficient";
      last := i
    done
  done;
  Array.iter (fun b -> if Float.is_nan b then fail "NaN right-hand side") c.rhs

let solve_columns c =
  check_columns c;
  let n = c.ncols and m = c.nrows in
  let cstart = c.cstart and cidx = c.cidx and cval = c.cval in
  let lo = Array.make (n + m) 0. and up = Array.make (n + m) 0. in
  Array.blit c.lb 0 lo 0 n;
  Array.blit c.ub 0 up 0 n;
  let contradictory = ref false in
  for i = 0 to m - 1 do
    let b = c.rhs.(i) in
    (match c.rel.(i) with
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
    (* Rows by CSR, one transpose of the columns: each row lists its
       columns ascending. *)
    let nnz = cstart.(n) in
    let rstart = Array.make (m + 1) 0 in
    for t = 0 to nnz - 1 do
      rstart.(cidx.(t) + 1) <- rstart.(cidx.(t) + 1) + 1
    done;
    for i = 0 to m - 1 do
      rstart.(i + 1) <- rstart.(i + 1) + rstart.(i)
    done;
    let ridx = Array.make nnz 0 and rval = Array.make nnz 0. in
    let fill = Array.sub rstart 0 m in
    for j = 0 to n - 1 do
      for t = cstart.(j) to cstart.(j + 1) - 1 do
        let i = cidx.(t) in
        ridx.(fill.(i)) <- j;
        rval.(fill.(i)) <- cval.(t);
        fill.(i) <- fill.(i) + 1
      done
    done;
    let sign = match c.sense with Minimize -> 1. | Maximize -> -1. in
    let cost = Array.make (n + m) 0. in
    for j = 0 to n - 1 do
      if c.cost.(j) <> 0. then cost.(j) <- sign *. c.cost.(j)
    done;
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
        f =
          {
            l = etas_create m;
            r = etas_create m;
            u = upper_create m;
            spike = sv_create m;
            urow = sv_create m;
          };
        col = sv_create m;
        rho = Array.make m 0.;
        stat = Array.make m 0;
        infeasible = 0;
      }
    in
    crash st;
    (* Bland's rule takes over after this many degenerate pivots in a row:
       twice the rows plus the columns, logicals included *)
    let bland_after = 2 * (m + (n + m)) in
    let streak = ref 0 in
    let updates = ref 0 and iterations = ref 0 and refactorizations = ref 0 in
    (* [fresh]: x_B and (in phase 2) d were recomputed in full since
       the last pivot, so a verdict taken now is not an artefact of drift. *)
    let fresh = ref true in
    let d_valid = ref false in
    let recompute () =
      compute_primal st;
      st.infeasible <- 0;
      for r = 0 to m - 1 do
        st.stat.(r) <- 0;
        restat st r
      done;
      d_valid := false;
      fresh := true
    in
    (* Refactor when an update fails its stability test, once U and the
       row etas hold twice as many nonzeros as the fresh factors plus one
       per row, or after [max_updates] pivots. *)
    let base_nnz = ref 0 and unstable = ref false in
    let refresh () =
      incr refactorizations;
      refactor st;
      base_nnz := etas_nnz st.f.l + st.f.u.nnz;
      updates := 0;
      unstable := false;
      recompute ()
    in
    refresh ();
    let result = ref None in
    while !result = None do
      if
        !unstable || !updates >= max_updates
        || st.f.u.nnz + etas_nnz st.f.r >= 2 * (!base_nnz + m)
      then refresh ();
      let phase1 = st.infeasible > 0 in
      if phase1 then begin
        compute_duals st (fun r -> float_of_int st.stat.(r)) (fun _ -> 0.);
        d_valid := false
      end
      else if not !d_valid then begin
        compute_duals st (fun r -> st.cost.(st.head.(r))) (fun j -> st.cost.(j));
        d_valid := true
      end;
      let q = choose_entering st ~bland:(!streak > bland_after) in
      if q < 0 then begin
        if not !fresh then recompute ()
        else if phase1 then result := Some Infeasible
        else begin
          let obj = ref 0. in
          for j = 0 to n - 1 do
            if cost.(j) <> 0. then obj := !obj +. (cost.(j) *. x.(j))
          done;
          result :=
            Some
              (Optimal
                 {
                   values = Array.sub x 0 n;
                   obj_value = sign *. !obj;
                   iterations = !iterations;
                   refactorizations = !refactorizations;
                 })
        end
      end
      else begin
        let dir = if st.d.(q) < 0. then 1. else -1. in
        let col = st.col and spike = st.f.spike in
        if q < n then
          for t = cstart.(q) to cstart.(q + 1) - 1 do
            sv_set col cidx.(t) cval.(t)
          done
        else sv_set col (q - n) 1.;
        ftran_lower st.f col;
        for k = 0 to col.len - 1 do
          let i = col.pat.(k) in
          sv_set spike i col.v.(i)
        done;
        upper_solve st.f.u col;
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
            let status = st.stat.(r) in
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
            recompute ()
          end
          else if phase1 then failwith "Lp.solve: numerical failure in phase 1"
          else result := Some Unbounded
        end
        else begin
          let flip = room <= !best in
          let t = if flip then room else !best in
          incr iterations;
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
            (* y = U^-T e_r, for the update and the pivot row *)
            let y = st.f.urow in
            sv_set y r 1.;
            upper_solve_t st.f.u y;
            if !d_valid then begin
              (* d_j -= theta * (B^-1 a_j)_r, the pivot row through
                 rho = B^-T e_r, whose entries at rounding level
                 ([drop_tol]) are taken as zero *)
              let d = st.d and rho = st.rho in
              let theta = d.(q) /. alpha.(r) in
              btran_lower st.f y rho;
              for i = 0 to m - 1 do
                let ri = rho.!(i) in
                if Float.abs ri > drop_tol then begin
                  let f = theta *. ri in
                  for t = rstart.!(i) to rstart.!(i + 1) - 1 do
                    let j = ridx.!(t) in
                    d.!(j) <- d.!(j) -. (f *. rval.!(t))
                  done;
                  d.(n + i) <- d.(n + i) -. f
                end
              done;
              d.(q) <- 0.;
              d.(b) <- -.theta
            end;
            if not (update st.f r alpha.(r)) then unstable := true;
            st.head.(r) <- q;
            st.pos.(q) <- r;
            st.pos.(b) <- -1;
            incr updates
          end;
          (* every basic value that moved is in the column's pattern,
             the pivot row included *)
          for k = 0 to col.len - 1 do
            restat st col.pat.(k)
          done;
          fresh := false
        end;
        sv_clear col;
        sv_clear spike;
        sv_clear st.f.urow
      end
    done;
    Option.get !result
  end

let solve p = solve_columns (to_columns p)
