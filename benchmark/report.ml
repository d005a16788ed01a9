(* Metric definitions, per-pass results and the printed report.

   Every run prints one tab-separated [metric] line per value (end to
   end, per layer and the deterministic details), then, as its last line,
   the JSON object the BENCHMARK.json contract asks for. [compare] reads
   the [metric] lines back. *)

type better = Lower | Higher

(* [Exact] values are pure functions of (workload, seed): two runs must
   agree bit for bit. [Measured] values come from a clock or the GC. *)
type kind = Measured | Exact

type def = { name : string; unit : string; better : better; kind : kind }

let def ?(better = Lower) ?(kind = Measured) name unit = { name; unit; better; kind }

(* Keep these two lists and BENCHMARK.json in step: [compare] refuses a
   BENCHMARK.json whose metric names or units differ from them. *)
let end_to_end =
  [
    def "setup_s" "s";
    def ~better:Higher "work_per_s" "1/s";
    def "heap_peak_mb" "MB";
    def ~better:Higher ~kind:Exact "satisfied_frac" "ratio";
  ]

let per_layer =
  let s n = def (n ^ ".s") "s" and c n = def ~kind:Exact n "count" in
  [
    s "traffic_gen";
    s "shard.drive";
    c "shard.drive.pkts";
    s "shard.drive_new";
    c "shard.drive_new.pkts";
    s "shard.expire";
    c "shard.expire.evicted";
    s "flow_table.scan";
    c "flow_table.entries_peak";
    def ~kind:Exact "flow_table.load_peak" "ratio";
    c "flow_table.max_probe_peak";
    s "system.probe";
    c "system.probe.pkts";
    s "system.actuate";
    c "engine.events";
    s "engine.other";
    s "telemetry.aggregator";
    s "model.derive";
    s "place.plan";
    c "place.actions";
    s "dp_routing.resolve";
    c "dp_routing.considered";
    c "dp_routing.over_threshold";
    c "dp_routing.rerouted";
    s "dp_routing.solve";
    s "score.alpha";
    s "e2e.evaluate";
    c "bus.published";
    def ~kind:Exact "bus.wan_bytes" "bytes";
    def ~kind:Exact "bus.telemetry.bytes" "bytes";
    def ~kind:Exact "bus.votes.bytes" "bytes";
    def ~kind:Exact "bus.ctl.bytes" "bytes";
    def ~kind:Exact "bus.route.bytes" "bytes";
    def ~kind:Exact "bus_p99_ms" "sim_ms";
    def ~kind:Exact "wan_kb_per_epoch" "KB";
    c "plane.mutations";
    c "compile.nodes";
    s "lp_routing.solve";
    def ~better:Higher ~kind:Exact "lp.alpha" "x";
    def ~better:Higher ~kind:Exact "dp.alpha" "x";
    def "gc.minor_words_per_pkt" "words/pkt";
    def "gc.minor_words_per_epoch" "words/epoch";
    def "gc.major_collections" "count";
    s "ctrl.callback";
    s "trace.wall";
    s "trace.unattributed";
    def "trace.overhead.s" "s";
  ]

(* What one pass of a workload hands back: a pass builds the workload's
   state from scratch (set-up), then runs its timed body once. *)
type pass = {
  setup_s : float list;  (** set-up samples taken for this pass *)
  steps : (int * float) list;
      (** per step (a tick, an epoch or an LP solve): the work it completed
          (packets, epochs or solves) and its wall time *)
  body_s : float;  (** wall time of the whole body, input generation included *)
  heap_peak_mb : float;
      (** the process's major-heap peak when the body ends, read before the
          pass computes its own outputs *)
  ops : int;
  failed : int;
  exact : (string * float * string) list;
      (** deterministic outputs (name, value, unit); must match across passes *)
  checks : (string * bool) list;
  layers : (string * float) list;  (** per-layer values; traced passes only *)
}

let empty_pass =
  {
    setup_s = [];
    steps = [];
    body_s = 0.;
    heap_peak_mb = 0.;
    ops = 0;
    failed = 0;
    exact = [];
    checks = [];
    layers = [];
  }

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

let kind_name = function Measured -> "measured" | Exact -> "exact"

let print_metric ~kind name value unit =
  Printf.printf "metric\t%s\t%.17g\t%s\t%s\n" name value unit (kind_name kind)

(* JSON numbers: full precision, and never nan/inf (JSON has neither). *)
let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_json ~correct ~attempted ~failed values =
  let body =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
         values)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

(* Linear-interpolation percentile over samples, [p] in [0, 100]. *)
let percentile p xs = match xs with [] -> 0. | xs -> Sb_util.Stats.percentile p xs
