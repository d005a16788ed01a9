(* sbbench: the repository benchmark.

     sbbench run --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke]
     sbbench all [--seed N] [--runs K] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
     sbbench compare A B [--bench BENCHMARK.json]

   One process runs one workload, on one core: every shard has one lane
   and no worker pool is started. A run repeats whole passes (set-up plus
   the workload's timed body) for [--seconds], reports the end-to-end
   metrics over all of them, and exits non-zero when a correctness check
   fails. [--trace 1] runs one untraced pass and one traced pass instead,
   writes the spans under .sbbench/ and reports the per-layer metrics. *)

module Sc = Sb_adapt.Scenario
module Loop = Sb_adapt.Loop
module W = Sb_net.Workload

type workload = {
  name : string;
  setup_only : seed:int -> smoke:bool -> float;  (** one set-up, timed *)
  pass : ?tr:Trace.t -> seed:int -> smoke:bool -> unit -> Report.pass;
  checks : seed:int -> (string * bool) list;
      (** equivalence checks at smoke scale, run once per run *)
}

(* The scenario shape (backbone, chains, demand process) is fixed by this
   seed; the run's [--seed] draws the concrete inputs. *)
let scenario_seed = 7

let dp name ~entry ~ticks =
  let cfg smoke =
    if smoke then Sc.smoke_config else { Sc.default_config with seed = scenario_seed; ticks }
  in
  {
    name;
    setup_only = (fun ~seed ~smoke -> Dp.setup_only (cfg smoke) ~entry ~input_seed:seed);
    pass = (fun ?tr ~seed ~smoke () -> Dp.pass ?tr (cfg smoke) ~entry ~input_seed:seed);
    checks =
      (fun ~seed ->
        [
          ( "dp pass matches Scenario.run_one at smoke_config",
            Dp.check_against_scenario { Sc.smoke_config with seed } ~entry );
        ]);
  }

let ctrl name ~scenario ~params =
  let params ~seed = params { Loop.default_params with seed } in
  {
    name;
    setup_only = (fun ~seed ~smoke -> Ctrl.setup_only (scenario smoke) (params ~seed));
    pass = (fun ?tr ~seed ~smoke () -> Ctrl.pass ?tr (scenario smoke) (params ~seed));
    checks =
      (fun ~seed ->
        [
          ( "traced copy reproduces Loop.run at smoke scale",
            Ctrl.check_copy (scenario true) (params ~seed) );
        ]);
  }

(* Closed loop over a diurnal day of [period] epochs on backbone25. *)
let drift_scenario ~smoke () =
  let base = if smoke then Sc.smoke_config else Sc.default_config in
  let cfg = { base with seed = scenario_seed } in
  let epochs = if smoke then 10 else 50 and period = 25 in
  let model = Sc.backbone25 cfg in
  let w = W.diurnal ~seed:cfg.seed ~ticks:epochs ~keys:cfg.num_chains ~period () in
  {
    Loop.sc_model = model;
    sc_epochs = epochs;
    sc_epoch_len = cfg.epoch_len;
    sc_demand = (fun ~epoch ~chain -> W.demand w ~tick:epoch ~key:chain);
    sc_failures = [];
  }

let place_scenario ~smoke () =
  let cfg =
    if smoke then { Sc.smoke_config with seed = scenario_seed; ticks = 16 }
    else { Sc.default_config with seed = scenario_seed; ticks = 200 }
  in
  fst (Sc.placement_scenario cfg)

let te name =
  let cfg smoke =
    if smoke then { Te.chains = 4; epochs = 2; scenario_seed }
    else { Te.chains = 12; epochs = 6; scenario_seed }
  in
  {
    name;
    setup_only = (fun ~seed:_ ~smoke -> Te.setup_only (cfg smoke));
    pass = (fun ?tr ~seed ~smoke () -> Te.pass ?tr (cfg smoke) ~input_seed:seed);
    checks = (fun ~seed:_ -> []);
  }

let workloads =
  [
    dp "dp_steady" ~entry:"diurnal_drift" ~ticks:16;
    dp "dp_churn" ~entry:"ddos" ~ticks:8;
    ctrl "ctrl_drift" ~scenario:(fun smoke -> drift_scenario ~smoke) ~params:Fun.id;
    ctrl "ctrl_place"
      ~scenario:(fun smoke -> place_scenario ~smoke)
      ~params:(fun p -> { p with Loop.placement = Some Sb_adapt.Place.default_params });
    te "te_lp";
  ]

let find_workload name =
  match List.find_opt (fun w -> w.name = name) workloads with
  | Some w -> w
  | None ->
    Printf.eprintf "sbbench: unknown workload %S (one of: %s)\n" name
      (String.concat ", " (List.map (fun w -> w.name) workloads));
    exit 2

(* ------------------------------ run ------------------------------- *)

let finish ~checks ~attempted ~failed values =
  List.iter (fun (n, ok) -> Printf.printf "check\t%s\t%s\n" (if ok then "ok" else "FAIL") n) checks;
  let correct = List.for_all snd checks in
  Printf.printf "ops\t%d\nops_failed\t%d\n" attempted failed;
  Report.print_json ~correct ~attempted ~failed values;
  if not correct then exit 1

let run_untraced w ~seed ~seconds ~smoke =
  let t_start = Trace.now_ns () in
  (* Passes run back to back until the next one, if it takes as long as the
     last, would end more than half a pass past [seconds], so a run lasts
     [seconds] on average. The heap peak is the first pass's: nothing runs
     before it, so the reading covers that pass alone and does not depend
     on how many passes fit. The correctness checks run last for the same
     reason. Compacting between passes gives each later one a settled
     heap. Set-up is cheap next to a pass, so each pass is followed by
     ten extra set-ups: taken on a settled process, they keep start-up
     effects out of [setup_s]. *)
  let passes = ref [] and extra = ref [] and last = ref 0. in
  let elapsed () = Trace.secs (Trace.now_ns () - t_start) in
  while !passes = [] || ((not smoke) && elapsed () +. (!last /. 2.) < seconds) do
    let t0 = Trace.now_ns () in
    passes := w.pass ~seed ~smoke () :: !passes;
    Gc.compact ();
    for _ = 1 to 10 do
      extra := w.setup_only ~seed ~smoke :: !extra
    done;
    last := Trace.secs (Trace.now_ns () - t0)
  done;
  let checks = w.checks ~seed in
  let passes = List.rev !passes in
  let first = List.hd passes in
  let all f = List.concat_map f passes in
  let sum f = List.fold_left (fun a p -> a + f p) 0 passes in
  let setup = all (fun p -> p.Report.setup_s) @ !extra in
  let steps = all (fun p -> p.Report.steps) in
  let times = List.map snd steps in
  (* medians over steps, so that a stall on a shared machine moves them
     less than it would move a mean *)
  let values =
    [
      ("setup_s", Sb_util.Stats.median setup);
      ("work_per_s", Sb_util.Stats.median (List.map (fun (w, s) -> float_of_int w /. s) steps));
      ("heap_peak_mb", first.Report.heap_peak_mb);
      ( "satisfied_frac",
        List.find_map
          (fun (n, v, _) -> if n = "satisfied_frac" then Some v else None)
          first.Report.exact
        |> Option.value ~default:0. );
    ]
  in
  Printf.printf "passes\t%d\nsteps\t%d\nsetup_samples_s\t%s\n" (List.length passes)
    (List.length steps)
    (String.concat "," (List.map (Printf.sprintf "%.6f") setup));
  List.iter
    (fun (d : Report.def) ->
      Report.print_metric ~kind:d.kind d.name (List.assoc d.name values) d.unit)
    Report.end_to_end;
  List.iter
    (fun p ->
      Report.print_metric ~kind:Measured (Printf.sprintf "step_ms_p%g" p)
        (1000. *. Report.percentile p times) "ms")
    [ 50.; 90. ];
  List.iter
    (fun (n, v, u) -> if n <> "satisfied_frac" then Report.print_metric ~kind:Exact n v u)
    first.Report.exact;
  let checks =
    checks
    @ List.concat_map (fun p -> p.Report.checks) passes
    @ [ ("every pass gives the same deterministic outputs",
         List.for_all (fun p -> p.Report.exact = first.Report.exact) passes) ]
  in
  finish ~checks
    ~attempted:(max 1 (sum (fun p -> p.Report.ops)))
    ~failed:(sum (fun p -> p.Report.failed))
    (List.map (fun (d : Report.def) -> (d.name, List.assoc d.name values, d.unit)) Report.end_to_end)

let run_traced w ~seed ~smoke ~file =
  let checks = w.checks ~seed in
  let untraced = w.pass ~seed ~smoke () in
  let tr = Trace.create () in
  let traced = w.pass ~tr ~seed ~smoke () in
  let rows = Trace.self_times tr in
  let wall = Trace.total_s tr (Trace.name tr "run") in
  let unattributed =
    match List.find_opt (fun (n, _, _) -> n = "run") rows with Some (_, s, _) -> s | None -> 0.
  in
  Printf.printf "layer\tself_s\tshare\tspans\n";
  List.iter
    (fun (n, s, c) ->
      if n <> "run" && c > 0 then Printf.printf "layer\t%s\t%.6f\t%.4f\t%d\n" n s (s /. wall) c)
    (List.sort (fun (_, a, _) (_, b, _) -> Float.compare b a) rows);
  Printf.printf "layer\t(unattributed)\t%.6f\t%.4f\t-\n" unattributed (unattributed /. wall);
  let self name =
    match List.find_opt (fun (n, _, _) -> n ^ ".s" = name) rows with
    | Some (_, s, _) -> s
    | None -> 0.
  in
  let value (d : Report.def) =
    match d.name with
    | "trace.wall.s" -> wall
    | "trace.unattributed.s" -> unattributed
    | "trace.overhead.s" -> traced.Report.body_s -. untraced.Report.body_s
    | n -> (
      match List.assoc_opt n traced.Report.layers with
      | Some v -> v
      | None -> (
        match List.find_opt (fun (k, _, _) -> k = n) traced.Report.exact with
        | Some (_, v, _) -> v
        | None -> if d.unit = "s" then self n else 0.))
  in
  let values = List.map (fun (d : Report.def) -> (d, value d)) Report.per_layer in
  List.iter (fun ((d : Report.def), v) -> Report.print_metric ~kind:d.kind d.name v d.unit) values;
  Trace.write tr file;
  let checks =
    checks @ untraced.Report.checks @ traced.Report.checks
    @ [
        (* for the ctrl workloads: the traced copy reproduces Loop.run *)
        ("traced pass reproduces the untraced pass's exact outputs",
         traced.Report.exact = untraced.Report.exact);
        ("layer rows sum to within 5% of the traced wall", unattributed <= 0.05 *. wall);
      ]
  in
  finish ~checks ~attempted:(max 1 traced.Report.ops) ~failed:traced.Report.failed
    (List.map (fun ((d : Report.def), v) -> (d.name, v, d.unit)) values)

(* ------------------------------ CLI ------------------------------- *)

let default_seconds = 20.

type opts = {
  mutable workload : string option;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable smoke : bool;
  mutable runs : int;
  mutable out : string option;
  mutable bench : string;
  mutable rest : string list;
}

let usage () =
  prerr_endline
    "usage: sbbench run --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n\
    \       sbbench all [--seed N] [--runs K] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]\n\
    \       sbbench compare A B [--bench BENCHMARK.json]";
  exit 2

let parse args =
  let o =
    {
      workload = None;
      seed = scenario_seed;
      seconds = default_seconds;
      trace = false;
      smoke = false;
      runs = 1;
      out = None;
      bench = "BENCHMARK.json";
      rest = [];
    }
  in
  let int s = match int_of_string_opt s with Some i -> i | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: r -> o.workload <- Some w; go r
    | "--seed" :: s :: r -> o.seed <- int s; go r
    | "--seconds" :: s :: r ->
      (match float_of_string_opt s with Some f -> o.seconds <- f | None -> usage ());
      go r
    | "--trace" :: ("0" | "1" as t) :: r -> o.trace <- t = "1"; go r
    | "--smoke" :: r -> o.smoke <- true; go r
    | "--runs" :: k :: r -> o.runs <- int k; go r
    | "--out" :: d :: r -> o.out <- Some d; go r
    | "--bench" :: f :: r -> o.bench <- f; go r
    | a :: _ when String.length a > 1 && a.[0] = '-' -> usage ()
    | a :: r -> o.rest <- o.rest @ [ a ]; go r
  in
  go args;
  o

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let cmd_run o =
  let name = match (o.workload, o.rest) with Some w, [] -> w | _ -> usage () in
  let w = find_workload name in
  Printf.printf "run\t%s\t%d\t%d\n%!" name o.seed (Bool.to_int o.trace);
  if o.trace then begin
    mkdir_p ".sbbench";
    run_traced w ~seed:o.seed ~smoke:o.smoke
      ~file:(Printf.sprintf ".sbbench/trace-%s-seed%d.tsv" name o.seed)
  end
  else run_untraced w ~seed:o.seed ~seconds:o.seconds ~smoke:o.smoke

(* The BENCHMARK.json command, which [all] starts every run with, so that its
   runs start exactly as that file says runs start. *)
let bench_command bench =
  match Json.member "command" (Json.parse (In_channel.with_open_bin bench In_channel.input_all)) with
  | Some (Json.Arr (_ :: _ as l)) ->
    List.map (function Json.Str s -> s | _ -> failwith (bench ^ ": command is not strings")) l
  | _ -> failwith (bench ^ ": no command")

(* Each workload in its own child process, one after another, so one
   workload's heap and caches never leak into the next one's numbers. Run
   from the directory BENCHMARK.json is in. *)
let cmd_all o =
  if o.rest <> [] || o.workload <> None then usage ();
  let command = bench_command o.bench in
  let failures = ref 0 in
  Option.iter
    (fun d ->
      mkdir_p d;
      Out_channel.with_open_text (Filename.concat d "machine.txt") (fun oc ->
          Printf.fprintf oc "nproc %d\nocaml %s\nword_size %d\n"
            (Domain.recommended_domain_count ())
            Sys.ocaml_version Sys.word_size))
    o.out;
  List.iter
    (fun w ->
      for k = 0 to o.runs - 1 do
        let seed = o.seed + k in
        let args =
          command
          @ [ "--workload"; w.name; "--seed"; string_of_int seed; "--seconds";
              Printf.sprintf "%g" o.seconds; "--trace"; (if o.trace then "1" else "0") ]
          @ if o.smoke then [ "--smoke" ] else []
        in
        let stdout_fd, close =
          match o.out with
          | None -> (Unix.stdout, fun () -> ())
          | Some d ->
            let file =
              Filename.concat d
                (Printf.sprintf "%s-seed%d%s.txt" w.name seed (if o.trace then "-trace" else ""))
            in
            let fd = Unix.openfile file [ Unix.O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
            (fd, fun () -> Unix.close fd)
        in
        let t0 = Trace.now_ns () in
        let pid =
          Unix.create_process (List.hd args) (Array.of_list args) Unix.stdin stdout_fd Unix.stderr
        in
        let _, status = Unix.waitpid [] pid in
        close ();
        let ok = status = Unix.WEXITED 0 in
        if not ok then incr failures;
        Printf.eprintf "sbbench all: %s seed %d %s in %.1f s\n%!" w.name seed
          (if ok then "ok" else "FAILED")
          (Trace.secs (Trace.now_ns () - t0))
      done)
    workloads;
  if !failures > 0 then exit 1

let () =
  match Array.to_list Sys.argv with
  | _ :: "run" :: args -> cmd_run (parse args)
  | _ :: "all" :: args -> cmd_all (parse args)
  | _ :: "compare" :: args -> (
    let o = parse args in
    match o.rest with [ a; b ] -> exit (Compare.run ~bench:o.bench a b) | _ -> usage ())
  | _ -> usage ()
