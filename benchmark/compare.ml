(* [sbbench compare A B]: two result sets (directories of [sbbench run]
   outputs, as [sbbench all --out] writes them), compared per workload and
   metric.

   - An exact metric must read the same on both sides for every
     (workload, seed) both sides ran; any drift fails.
   - A measured end-to-end metric fails when B's median is worse than A's
     by more than its BENCHMARK.json bound. When either side's quartile
     spread exceeds the bound the change cannot be resolved, and the
     metric is reported as unresolved, unless every run of B is better
     than every run of A. *)

type run = {
  workload : string;
  seed : int;
  values : (string * (float * Report.kind)) list;
}

(* One untraced run per file; traced runs and other files are skipped. *)
let read_run file =
  let lines = String.split_on_char '\n' (In_channel.with_open_bin file In_channel.input_all) in
  let fields l = String.split_on_char '\t' l in
  match List.find_opt (fun l -> String.starts_with ~prefix:"run\t" l) lines with
  | Some header -> (
    match fields header with
    | [ _; workload; seed; "0" ] ->
      let values =
        List.filter_map
          (fun l ->
            match fields l with
            | [ "metric"; name; v; _unit; kind ] ->
              let kind = if kind = "exact" then Report.Exact else Report.Measured in
              Option.map (fun v -> (name, (v, kind))) (float_of_string_opt v)
            | _ -> None)
          lines
      in
      Some { workload; seed = int_of_string seed; values }
    | _ -> None)
  | None -> None

let read_set dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter (fun f -> Filename.check_suffix f ".txt")
  |> List.filter_map (fun f -> read_run (Filename.concat dir f))

let quartiles xs = (Report.percentile 25. xs, Report.percentile 50. xs, Report.percentile 75. xs)

(* The end-to-end bounds, after checking that both metric lists of
   BENCHMARK.json name the metrics, with the units, that a run prints. *)
let bounds bench =
  let json = Json.parse (In_channel.with_open_bin bench In_channel.input_all) in
  let entries key =
    match Json.member key json with
    | Some (Json.Arr l) ->
      List.filter_map
        (fun m ->
          match (Json.member "name" m, Json.member "unit" m) with
          | Some (Json.Str n), Some (Json.Str u) -> Some (n, u, Json.member "bound" m)
          | _ -> None)
        l
    | _ -> []
  in
  let agree key (defs : Report.def list) =
    let names l = List.sort compare l in
    if
      names (List.map (fun (n, u, _) -> (n, u)) (entries key))
      <> names (List.map (fun (d : Report.def) -> (d.Report.name, d.Report.unit)) defs)
    then failwith (Printf.sprintf "%s: %s differs from the metrics a run prints" bench key)
  in
  agree "end_to_end" Report.end_to_end;
  agree "per_layer" Report.per_layer;
  List.filter_map
    (function n, _, Some (Json.Num b) -> Some (n, b) | _ -> None)
    (entries "end_to_end")

let run ~bench a b =
  let bounds = bounds bench in
  let sa = read_set a and sb = read_set b in
  let workloads = List.sort_uniq compare (List.map (fun r -> r.workload) (sa @ sb)) in
  let failed = ref 0 in
  Printf.printf "%-11s %-18s %-7s %12s %12s %12s | %12s %12s %12s  %s\n" "workload" "metric" "kind"
    "A q1" "A median" "A q3" "B q1" "B median" "B q3" "verdict";
  List.iter
    (fun w ->
      let ra = List.filter (fun r -> r.workload = w) sa
      and rb = List.filter (fun r -> r.workload = w) sb in
      let names =
        List.sort_uniq compare (List.concat_map (fun r -> List.map fst r.values) (ra @ rb))
      in
      List.iter
        (fun name ->
          let vals rs = List.filter_map (fun r -> Option.map fst (List.assoc_opt name r.values)) rs in
          let xa = vals ra and xb = vals rb in
          let kind =
            match List.find_map (fun r -> List.assoc_opt name r.values) (ra @ rb) with
            | Some (_, k) -> k
            | None -> Report.Measured
          in
          if xa <> [] && xb <> [] then begin
            let a1, am, a3 = quartiles xa and b1, bm, b3 = quartiles xb in
            let verdict =
              match kind with
              | Report.Exact ->
                let drift =
                  List.exists
                    (fun r ->
                      match
                        ( List.assoc_opt name r.values,
                          List.find_opt (fun r' -> r'.seed = r.seed) rb )
                      with
                      | Some (v, _), Some r' -> (
                        match List.assoc_opt name r'.values with
                        | Some (v', _) -> Float.compare v v' <> 0
                        | None -> false)
                      | _ -> false)
                    ra
                in
                if drift then "FAIL drift" else "same"
              | Report.Measured -> (
                match List.assoc_opt name bounds with
                | None -> "-"
                | Some bound ->
                  let higher =
                    (List.find (fun (d : Report.def) -> d.Report.name = name) Report.end_to_end)
                      .Report.better = Report.Higher
                  in
                  (* relative worsening of B's median over A's *)
                  let worse = if higher then (am -. bm) /. am else (bm -. am) /. am in
                  let spread = Float.max ((a3 -. a1) /. am) ((b3 -. b1) /. bm) in
                  let all_better =
                    List.for_all
                      (fun y -> List.for_all (fun x -> if higher then y > x else y < x) xa)
                      xb
                  in
                  let detail = Printf.sprintf "%+.1f%%, spread %.1f%%" (-100. *. worse) (100. *. spread) in
                  if all_better then "better (" ^ detail ^ ")"
                  else if spread > bound then "unresolved (" ^ detail ^ ")"
                  else if worse > bound then "FAIL worse (" ^ detail ^ ")"
                  else "ok (" ^ detail ^ ")")
            in
            if String.starts_with ~prefix:"FAIL" verdict then incr failed;
            Printf.printf "%-11s %-18s %-7s %12.6g %12.6g %12.6g | %12.6g %12.6g %12.6g  %s\n" w name
              (Report.kind_name kind) a1 am a3 b1 bm b3 verdict
          end)
        names)
    workloads;
  Printf.printf "%d runs in A, %d in B: %s\n" (List.length sa) (List.length sb)
    (if !failed = 0 then "no regression" else Printf.sprintf "%d failing metrics" !failed);
  if !failed = 0 then 0 else 1
