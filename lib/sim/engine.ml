type event = {
  time : float;
  seq : int; (* tie-breaker: FIFO among same-time events *)
  id : int;
  action : unit -> unit;
}

(* Binary min-heap ordered by (time, seq). *)
module Heap = struct
  type t = { mutable a : event array; mutable size : int }

  let dummy =
    { time = 0.; seq = 0; id = 0; action = (fun () -> ()) }

  let create () = { a = Array.make 64 dummy; size = 0 }

  let lt e1 e2 = e1.time < e2.time || (e1.time = e2.time && e1.seq < e2.seq)

  let swap h i j =
    let tmp = h.a.(i) in
    h.a.(i) <- h.a.(j);
    h.a.(j) <- tmp

  let rec sift_up h i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if lt h.a.(i) h.a.(parent) then begin
        swap h i parent;
        sift_up h parent
      end
    end

  let rec sift_down h i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = ref i in
    if l < h.size && lt h.a.(l) h.a.(!smallest) then smallest := l;
    if r < h.size && lt h.a.(r) h.a.(!smallest) then smallest := r;
    if !smallest <> i then begin
      swap h i !smallest;
      sift_down h !smallest
    end

  let push h e =
    if h.size = Array.length h.a then begin
      let bigger = Array.make (2 * h.size) dummy in
      Array.blit h.a 0 bigger 0 h.size;
      h.a <- bigger
    end;
    h.a.(h.size) <- e;
    h.size <- h.size + 1;
    sift_up h (h.size - 1)

  let peek h = if h.size = 0 then None else Some h.a.(0)

  let pop h =
    match peek h with
    | None -> None
    | Some e ->
      h.size <- h.size - 1;
      h.a.(0) <- h.a.(h.size);
      h.a.(h.size) <- dummy;
      if h.size > 0 then sift_down h 0;
      Some e
end

type t = {
  heap : Heap.t;
  cancelled : (int, unit) Hashtbl.t;
  mutable clock : float;
  mutable next_seq : int;
  mutable next_id : int;
  mutable live : int; (* scheduled and not cancelled/fired *)
  mutable observers : (float -> unit) list; (* registration order *)
}

type event_id = int

let create () =
  {
    heap = Heap.create ();
    cancelled = Hashtbl.create 64;
    clock = 0.;
    next_seq = 0;
    next_id = 0;
    live = 0;
    observers = [];
  }

let on_fire t f = t.observers <- t.observers @ [ f ]

let now t = t.clock

let schedule_at t ~time action =
  if Float.is_nan time then invalid_arg "Engine.schedule_at: NaN time";
  if time < t.clock then invalid_arg "Engine.schedule_at: time in the past";
  let id = t.next_id in
  t.next_id <- id + 1;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  Heap.push t.heap { time; seq; id; action };
  t.live <- t.live + 1;
  id

let schedule t ~delay action =
  if Float.is_nan delay then invalid_arg "Engine.schedule: NaN delay";
  if delay < 0. then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~time:(t.clock +. delay) action

let cancel t id =
  if not (Hashtbl.mem t.cancelled id) then begin
    Hashtbl.replace t.cancelled id ();
    t.live <- t.live - 1
  end

let fire t e =
  if Hashtbl.mem t.cancelled e.id then Hashtbl.remove t.cancelled e.id
  else begin
    t.live <- t.live - 1;
    t.clock <- e.time;
    List.iter (fun f -> f e.time) t.observers;
    e.action ()
  end

let step t =
  match Heap.pop t.heap with
  | None -> false
  | Some e ->
    fire t e;
    true

let run t =
  let rec loop () = if step t then loop () in
  loop ()

let run_until t horizon =
  if Float.is_nan horizon then invalid_arg "Engine.run_until: NaN horizon";
  if horizon < t.clock then invalid_arg "Engine.run_until: horizon in the past";
  let rec loop () =
    match Heap.peek t.heap with
    | Some e when e.time <= horizon ->
      (match Heap.pop t.heap with
      | Some e -> fire t e
      | None -> assert false);
      loop ()
    | Some _ | None -> ()
  in
  loop ();
  t.clock <- horizon

let pending t = t.live
