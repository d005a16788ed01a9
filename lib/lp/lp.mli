(** Linear-programming modelling API and solver.

    This module replaces the CPLEX dependency of the paper's prototype
    (Section 4.5). It provides a small modelling layer (variables, linear
    expressions, constraints, objective) and solves problems exactly with a
    sparse bounded revised simplex method. Mixed-integer problems are
    solved by branch-and-bound in {!Mip}.

    The simplex has one input, the column form ({!columns}): each column's
    rows ascending, with row relations, right-hand sides, column bounds
    and an objective vector. {!solve} packs a modelled problem into it
    ({!to_columns}: the rows' terms scattered to their columns, repeats
    summed); SB-LP writes it directly. Set-up derives the row form by one
    transpose, so every row also lists its columns ascending, and
    allocates the state and factor arrays; the column arrays are read in
    place.

    The basis is kept as a sparse LU factorization (Markowitz pivoting)
    whose U takes a Forrest-Tomlin update at each basis change: the
    leaving column drops out of U, the entering column's spike (its FTRAN
    through L and the earlier updates) becomes U's last column, and one
    row eta eliminates the leaving row's entries to the right of its old
    pivot. The basis is refactored when an updated diagonal fails a
    stability test (it must equal the pivot times the old diagonal to
    working accuracy, and not be tiny next to the spike), once U and the
    row etas hold twice the nonzeros of the fresh factors plus one per
    row, or after 512 updates. Every variable and row bound is native:
    row [i] gets a logical variable, and the start basis is all-logical,
    with equality rows crashed to structurals. A basis that violates a
    bound is repaired by phase 1 iterations that minimize the sum of
    infeasibilities. Pricing is Dantzig's rule, switching to Bland's rule
    after a long degenerate streak; ratio-test ties go to the smallest
    basic index.

    It is exact, dependency-free and fast on the instance sizes of the
    reproduction (SB-LP on the 25-site backbone with 12 chains: ~950 rows,
    ~7,700 columns, ~68 k nonzeros, built and solved in about 17 ms with
    two or three factorizations), but it is not a CPLEX-scale solver: it
    has no devex pricing, presolve or warm start, and the 200-chain
    [bench scale] LP (~13,600 rows, ~13 k iterations) takes about 10 s. *)

type problem
type var

val create : ?name:string -> unit -> problem
(** A fresh, empty problem. *)

val add_var : problem -> ?lb:float -> ?ub:float -> ?integer:bool -> string -> var
(** [add_var p name] adds a decision variable.
    - [lb] defaults to [0.]; it may be any finite value or
      [neg_infinity] (free variable).
    - [ub] defaults to [infinity].
    - [integer] (default [false]) marks the variable integral; plain
      {!solve} ignores integrality (LP relaxation), {!Mip.solve} enforces it.
    Raises [Invalid_argument] if a bound is NaN, [lb = infinity],
    [ub = neg_infinity] or [lb > ub]. *)

val var_name : var -> string

type expr = (float * var) list
(** A linear expression: sum of [coefficient * variable] terms. Repeated
    variables are allowed and their coefficients are summed. *)

type relation = Le | Ge | Eq

val add_constraint : problem -> ?name:string -> expr -> relation -> float -> unit
(** [add_constraint p e rel rhs] adds the constraint [e rel rhs]. [name] is
    accepted for readability of calling code and not stored. An infinite
    [rhs] is allowed: on the slack side ([Le infinity], [Ge neg_infinity])
    the row never binds, on the other (or with [Eq]) it can never hold and
    {!solve} reports [Infeasible]. Raises [Invalid_argument], leaving [p]
    unchanged, if a coefficient is NaN or infinite or [rhs] is NaN. *)

type sense = Minimize | Maximize

val set_objective : problem -> sense -> expr -> unit
(** Raises [Invalid_argument] if a coefficient is NaN or infinite. *)

val num_vars : problem -> int
val num_constraints : problem -> int

val objective_sense : problem -> sense

type solution

type outcome =
  | Optimal of solution
  | Infeasible
  | Unbounded

val solve : problem -> outcome
(** Solve the LP relaxation. [Infeasible] takes precedence over
    [Unbounded]. When the optimum is not unique, which optimal vertex is
    returned is deterministic but otherwise unspecified. *)

val value : solution -> var -> float
(** Value of a variable in an optimal solution. *)

val objective_value : solution -> float

val iterations : solution -> int
(** Simplex iterations of the solve: basis changes and bound flips. *)

val refactorizations : solution -> int
(** LU factorizations of the basis during the solve, the first included. *)

val pp_outcome : Format.formatter -> outcome -> unit

(** {2 Column form}

    The one input of the simplex. {!solve} packs a modelled problem into
    it with {!to_columns}; a generator that knows its matrix column by
    column (SB-LP in [Lp_routing]) fills it directly and skips the
    modelling layer. *)

type columns = {
  ncols : int;
  nrows : int;
  cstart : int array;
      (** [ncols + 1] offsets: column [j]'s entries are [cidx]/[cval] over
          [cstart.(j)] .. [cstart.(j+1) - 1]. *)
  cidx : int array;
      (** Rows of each column, strictly ascending (no repeats). [cidx] and
          [cval] may be longer than [cstart.(ncols)]; the tail is unread. *)
  cval : float array;  (** Finite coefficients; explicit zeros are kept. *)
  lb : float array;  (** [ncols] column bounds, as {!add_var} takes them. *)
  ub : float array;
  rel : relation array;  (** [nrows] row relations. *)
  rhs : float array;  (** [nrows] right-hand sides, as {!add_constraint} takes them. *)
  sense : sense;
  cost : float array;  (** [ncols] objective coefficients, in [sense]. *)
}

val solve_columns : columns -> outcome
(** Solve the LP given by columns, as {!solve} does: the simplex derives
    the row form with one transpose and reads the arrays in place,
    without copying or retaining them. A column with [lb > ub] makes the
    problem [Infeasible]. Raises [Invalid_argument] if the arrays do not
    have the shape above, a column's rows are not strictly ascending or
    out of range, or a bound, coefficient or right-hand side is one that
    {!add_var}, {!add_constraint} or {!set_objective} would reject. *)

val to_columns : problem -> columns
(** [p] in column form, column [j] being the variable created [j]-th.
    A variable repeated within a row or the objective is summed in the
    order its terms were added. [solve p] is [solve_columns (to_columns p)]. *)

val column_value : solution -> int -> float
(** [column_value sol j] is the value of column [j]; for a problem built
    with the modelling API, [value sol v = column_value sol (var_index v)]. *)

val var_index : var -> int
(** The column of [v] in {!to_columns}: its creation order, from 0. *)

(**/**)

(* Internal accessors used by Mip. *)
val var_is_integer : problem -> var -> bool
val all_vars : problem -> var list
