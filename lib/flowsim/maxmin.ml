(* Flows and resources live in growable arrays; flow i's resources are
   [res.(first.(i)) .. res.(first.(i + 1) - 1)], sorted and distinct, so
   the flow -> resource incidence is already CSR. *)
type t = {
  mutable caps : float array;
  mutable nres : int;
  mutable demands : float array;
  mutable first : int array;
  mutable res : int array;
  mutable nflows : int;
}

let create () =
  { caps = [||]; nres = 0; demands = [||]; first = [| 0 |]; res = [||]; nflows = 0 }

(* [a] itself if it has a slot at index [n], else a copy at least twice as
   long. *)
let ensure a n fill =
  if n < Array.length a then a
  else begin
    let b = Array.make (max (n + 1) (2 * Array.length a)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let add_resource t ~capacity =
  if Float.is_nan capacity then invalid_arg "Maxmin.add_resource: NaN capacity";
  if capacity <= 0. then invalid_arg "Maxmin.add_resource: non-positive capacity";
  let id = t.nres in
  t.caps <- ensure t.caps id 0.;
  t.caps.(id) <- capacity;
  t.nres <- id + 1;
  id

let add_flow t ?(demand = infinity) resources =
  if Float.is_nan demand || demand < 0. then
    invalid_arg "Maxmin.add_flow: negative or NaN demand";
  List.iter
    (fun r -> if r < 0 || r >= t.nres then invalid_arg "Maxmin.add_flow: unknown resource")
    resources;
  let id = t.nflows in
  t.demands <- ensure t.demands id 0.;
  t.demands.(id) <- demand;
  t.first <- ensure t.first (id + 1) 0;
  let j =
    List.fold_left
      (fun j r ->
        t.res <- ensure t.res j 0;
        t.res.(j) <- r;
        j + 1)
      t.first.(id)
      (List.sort_uniq compare resources)
  in
  t.first.(id + 1) <- j;
  t.nflows <- id + 1;
  id

(* Progressive filling. Every unfrozen flow has grown by the same
   increments from 0, so one shared [level] is each unfrozen flow's rate,
   bit for bit; a flow's rate is the level at which it froze. *)
let solve t =
  let n = t.nflows and nres = t.nres in
  let first = t.first and res = t.res and demands = t.demands in
  (* [k.(r)]: unfrozen flows through r. Resource -> flow incidence as the
     CSR transpose: r's flows are [members.(rfirst.(r) .. rfirst.(r + 1) - 1)]. *)
  let k = Array.make nres 0 in
  for j = 0 to first.(n) - 1 do
    k.(res.(j)) <- k.(res.(j)) + 1
  done;
  let rfirst = Array.make (nres + 1) 0 in
  for r = 0 to nres - 1 do
    rfirst.(r + 1) <- rfirst.(r) + k.(r)
  done;
  let fill = Array.sub rfirst 0 nres in
  let members = Array.make first.(n) 0 in
  for i = 0 to n - 1 do
    for j = first.(i) to first.(i + 1) - 1 do
      let r = res.(j) in
      members.(fill.(r)) <- i;
      fill.(r) <- fill.(r) + 1
    done
  done;
  let remaining = Array.sub t.caps 0 nres in
  let rates = Array.make n 0. in
  let frozen = Array.make n false in
  let unfrozen = ref n in
  let level = ref 0. in
  let freeze i =
    if not frozen.(i) then begin
      frozen.(i) <- true;
      rates.(i) <- !level;
      decr unfrozen;
      for j = first.(i) to first.(i + 1) - 1 do
        k.(res.(j)) <- k.(res.(j)) - 1
      done
    end
  in
  (* Flows by demand; no unfrozen flow lies before [cursor]. fl(d - level)
     is monotone in d, so the smallest unfrozen demand gives the smallest
     headroom, and [level >= d - 1e-12] holds for a prefix. *)
  let order = Array.init n Fun.id in
  Array.stable_sort (fun a b -> Float.compare demands.(a) demands.(b)) order;
  let cursor = ref 0 in
  (* Resources that had unfrozen flows at the start of the round. *)
  let live = Array.init nres Fun.id in
  let nlive = ref nres in
  let continue = ref true in
  while !continue do
    while !cursor < n && frozen.(order.(!cursor)) do
      incr cursor
    done;
    (* Smallest increment that saturates a resource or meets a demand. *)
    let best = ref infinity in
    let m = ref 0 in
    for x = 0 to !nlive - 1 do
      let r = live.(x) in
      if k.(r) > 0 then begin
        live.(!m) <- r;
        incr m;
        best := Float.min !best (remaining.(r) /. float_of_int k.(r))
      end
    done;
    nlive := !m;
    if !cursor < n then best := Float.min !best (demands.(order.(!cursor)) -. !level);
    if !best = infinity || !best < 0. then
      (* Unconstrained flows remain (no capped resource, no demand). *)
      continue := false
    else begin
      let inc = !best in
      (* Grow all unfrozen flows by [inc]; charge each resource once per
         unfrozen flow through it, as repeated subtraction. *)
      level := !level +. inc;
      for x = 0 to !nlive - 1 do
        let r = live.(x) in
        let rem = ref remaining.(r) in
        for _ = 1 to k.(r) do
          rem := !rem -. inc
        done;
        remaining.(r) <- !rem
      done;
      (* Freeze flows at their demand or on a saturated resource. *)
      while
        !cursor < n
        &&
        let i = order.(!cursor) in
        frozen.(i) || !level >= demands.(i) -. 1e-12
      do
        freeze order.(!cursor);
        incr cursor
      done;
      for x = 0 to !nlive - 1 do
        let r = live.(x) in
        if k.(r) > 0 && remaining.(r) <= 1e-9 then
          for j = rfirst.(r) to rfirst.(r + 1) - 1 do
            freeze members.(j)
          done
      done;
      if !unfrozen = 0 then continue := false
    end
  done;
  for i = 0 to n - 1 do
    if not frozen.(i) then rates.(i) <- !level
  done;
  rates

let rate _t rates i = rates.(i)
let total_rate rates = Array.fold_left ( +. ) 0. rates

(* One pass in flow-id order: each resource's load is summed in the same
   order as a per-resource scan over the flows. *)
let utilizations t rates =
  let load = Array.make t.nres 0. in
  for i = 0 to t.nflows - 1 do
    for j = t.first.(i) to t.first.(i + 1) - 1 do
      let r = t.res.(j) in
      load.(r) <- load.(r) +. rates.(i)
    done
  done;
  Array.mapi (fun r l -> l /. t.caps.(r)) load

let resource_utilization t rates r = (utilizations t rates).(r)
