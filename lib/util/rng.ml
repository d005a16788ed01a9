(* The SplitMix64 state lives unboxed in 8 bytes, read and written
   through the 64-bit bytes primitives: a [mutable int64] field would box
   a fresh int64 on every draw. *)
type t = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  set_state t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

let copy = Bytes.copy

(* SplitMix64 finalizer: Stafford's mix13 variant. *)
let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Inlined into every draw below, so the state and the output stay
   unboxed from load to use. *)
let[@inline] next t =
  let s = Int64.add (get_state t 0) golden_gamma in
  set_state t 0 s;
  mix64 s

let bits64 t = next t

(* 53 random bits scaled to [0, 1). *)
let[@inline] unit_float t =
  Int64.to_float (Int64.shift_right_logical (next t) 11) /. 9007199254740992.0

let split ?stream t =
  match stream with
  | None -> of_state (next t)
  | Some i ->
    if i < 0 then invalid_arg "Rng.split: stream must be non-negative";
    (* Stream i's state is the mix of the parent state displaced by
       (i + 1) gammas — for i = 0 that is exactly the parent's next
       output, so [split ~stream:0 t] equals [split t] taken at the same
       point (minus the parent advance). The double mixing on the child's
       first draw (mix64 of a mix64 image plus gamma) keeps child outputs
       off the parent's own output sequence. *)
    of_state (mix64 (Int64.add (get_state t 0) (Int64.mul (Int64.of_int (i + 1)) golden_gamma)))

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Mask to OCaml's native non-negative int range before reducing. *)
  let r = Int64.to_int (next t) land max_int in
  r mod bound

let float t bound = unit_float t *. bound

let bool t = Int64.compare (Int64.logand (next t) 1L) 0L <> 0

let exponential t rate =
  if rate <= 0. then invalid_arg "Rng.exponential: rate must be positive";
  let u = 1. -. float t 1.0 in
  -.log u /. rate

let uniform_in t lo hi = lo +. float t (hi -. lo)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choice t a =
  if Array.length a = 0 then invalid_arg "Rng.choice: empty array";
  a.(int t (Array.length a))

let sample_without_replacement t k n =
  if k > n then invalid_arg "Rng.sample_without_replacement: k > n";
  let a = Array.init n (fun i -> i) in
  shuffle t a;
  Array.to_list (Array.sub a 0 k)

let weighted_index_cum t cum ~off ~len =
  (* Must stay draw-for-draw and result-for-result identical to
     [weighted_index] over the raw weights: same exception (checked before
     the state advances), one [float t total] draw, and the same chosen
     index. [weighted_index] returns the first i with target < w_0+...+w_i
     accumulated left to right, or n-1 unconditionally; as the cumulative
     sums are non-decreasing, the binary search for the smallest such i
     (capped at len-1) lands on the very same index. The total is read
     from [cum] and the draw inlined, so no float crosses a call and the
     draw allocates nothing. *)
  let total = if len > 0 then cum.(off + len - 1) else 0. in
  if total <= 0. then invalid_arg "Rng.weighted_index: zero total weight";
  let target = unit_float t *. total in
  let lo = ref 0 and hi = ref (len - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if target < cum.(off + mid) then hi := mid else lo := mid + 1
  done;
  !lo

let weighted_index t weights =
  let total =
    Array.fold_left
      (fun acc w ->
        if w < 0. then invalid_arg "Rng.weighted_index: negative weight";
        acc +. w)
      0. weights
  in
  if total <= 0. then invalid_arg "Rng.weighted_index: zero total weight";
  let target = float t total in
  let n = Array.length weights in
  let rec go i acc =
    if i = n - 1 then i
    else
      let acc = acc +. weights.(i) in
      if target < acc then i else go (i + 1) acc
  in
  go 0 0.
