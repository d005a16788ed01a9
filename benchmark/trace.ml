(* Span recorder for the traced run: every span is a row of preallocated
   int arrays (name id, start, stop, parent, step), so recording one is a
   clock read and a few array stores. Spans nest through an explicit
   stack of open spans; a span's parent is whatever span was open when it
   started. *)

type t = {
  mutable names : string array;
  name_ids : (string, int) Hashtbl.t;
  mutable name_of : int array;
  mutable start_ns : int array;
  mutable stop_ns : int array;
  mutable parent : int array;
  mutable step : int array;
  mutable len : int;
  mutable top : int;  (** innermost open span, -1 when none *)
}

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs ns = float_of_int ns *. 1e-9

(* [enter] doubles the arrays when they fill up. *)
let create () =
  let capacity = 1 lsl 16 in
  {
    names = [||];
    name_ids = Hashtbl.create 32;
    name_of = Array.make capacity 0;
    start_ns = Array.make capacity 0;
    stop_ns = Array.make capacity 0;
    parent = Array.make capacity (-1);
    step = Array.make capacity 0;
    len = 0;
    top = -1;
  }

(* Intern a span name once, outside the hot loop. *)
let name t s =
  match Hashtbl.find_opt t.name_ids s with
  | Some id -> id
  | None ->
    let id = Array.length t.names in
    t.names <- Array.append t.names [| s |];
    Hashtbl.add t.name_ids s id;
    id

let grow t =
  let cap = 2 * Array.length t.name_of in
  let ext a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.name_of <- ext t.name_of 0;
  t.start_ns <- ext t.start_ns 0;
  t.stop_ns <- ext t.stop_ns 0;
  t.parent <- ext t.parent (-1);
  t.step <- ext t.step 0

let enter t id ~step =
  if t.len = Array.length t.name_of then grow t;
  let i = t.len in
  t.len <- i + 1;
  t.name_of.(i) <- id;
  t.parent.(i) <- t.top;
  t.step.(i) <- step;
  t.top <- i;
  t.start_ns.(i) <- now_ns ();
  i

let leave t i =
  t.stop_ns.(i) <- now_ns ();
  t.top <- t.parent.(i)

(* Relabel an open span: the engine observer opens an [engine.other] span
   at every event, and a benchmark callback that turns out to be that event
   claims it under its own name. *)
let rename t i id = t.name_of.(i) <- id

let span t id ~step f =
  let i = enter t id ~step in
  match f () with
  | v ->
    leave t i;
    v
  | exception e ->
    leave t i;
    raise e

(* Self time per span name: each span's duration minus the time its
   direct children cover, summed by name. Returned in first-seen order. *)
let self_times t =
  let child = Array.make t.len 0 in
  for i = 0 to t.len - 1 do
    let p = t.parent.(i) in
    if p >= 0 then child.(p) <- child.(p) + (t.stop_ns.(i) - t.start_ns.(i))
  done;
  let self = Array.make (Array.length t.names) 0 in
  let count = Array.make (Array.length t.names) 0 in
  for i = 0 to t.len - 1 do
    let n = t.name_of.(i) in
    self.(n) <- self.(n) + (t.stop_ns.(i) - t.start_ns.(i) - child.(i));
    count.(n) <- count.(n) + 1
  done;
  Array.to_list
    (Array.mapi (fun n name -> (name, float_of_int self.(n) *. 1e-9, count.(n))) t.names)

let total_s t id =
  let s = ref 0 in
  for i = 0 to t.len - 1 do
    if t.name_of.(i) = id then s := !s + (t.stop_ns.(i) - t.start_ns.(i))
  done;
  float_of_int !s *. 1e-9

(* One tab-separated line per span, start/stop in ns relative to the first
   span: index, name, start, stop, parent index, step. *)
let write t path =
  let oc = open_out path in
  let base = if t.len > 0 then t.start_ns.(0) else 0 in
  output_string oc "# span\tname\tstart_ns\tstop_ns\tparent\tstep\n";
  for i = 0 to t.len - 1 do
    Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\n" i t.names.(t.name_of.(i))
      (t.start_ns.(i) - base)
      (t.stop_ns.(i) - base)
      t.parent.(i) t.step.(i)
  done;
  close_out oc
