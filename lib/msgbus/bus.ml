type 'a sub = { s_site : int; s_time : float; s_callback : 'a -> unit }

(* A site's egress proxy. [finishes] holds the serialization-finish
   times of the copies it has accepted, oldest first (each copy starts
   once the previous one is done, so they never decrease). A copy counts
   against the buffer until its finish time is strictly in the past; the
   queue depth at [now] is what remains after popping the entries
   [< now], with no engine event per copy. *)
type proxy = {
  mutable busy_until : float;
  finishes : float Queue.t;
}

type fault_decision = Deliver | Drop | Delay of float

type 'a t = {
  eng : Sb_sim.Engine.t;
  mode : mode;
  delay : int -> int -> float;
  egress_rate : float;
  bandwidth : float option;
  size_fn : ('a -> int) option;
  topic_key : string -> string;
  buffer : int;
  proxies : proxy array;
  subs : (string, 'a sub list ref) Hashtbl.t;
  retained : (string, 'a * int) Hashtbl.t; (* payload, publisher site *)
  mutable published : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable fault_dropped : int;
  mutable wan_messages : int;
  mutable next_msg : int; (* publish ordinal for the fault hook; never reset *)
  mutable wan_hook :
    (msg:int -> topic:string -> src:int -> dst:int -> fault_decision) option;
  pair_last : (int * int, float) Hashtbl.t;
  (* Last scheduled arrival per (src, dst) proxy pair. The proxies of a
     site pair share one TCP connection, so deliveries between a pair are
     FIFO: an arrival never lands before an earlier message of the same
     pair — a fault-injected Delay pushes everything behind it back too. *)
  (* Bounded latency reservoir (Algorithm R with a hash of the sample
     ordinal as the "random" index, so the retained sample is a
     deterministic function of the delivery sequence): the first
     [reservoir_capacity] latencies are kept verbatim, after which each new
     sample evicts a pseudo-uniform slot with probability cap/n. Memory
     stays O(capacity) however long the simulation runs. *)
  lat_reservoir : float array;
  mutable lat_count : int; (* latencies observed since the last reset *)
  (* Bytes-on-wire accounting (live only when [size_fn] is set): payload
     sizes per publish, per WAN copy, and per topic class — the
     [topic_key] collapses per-chain topic names into a bounded family
     set so the table stays O(families) at million-chain scale. The size
     reservoir mirrors the latency reservoir's Algorithm-R discipline. *)
  mutable published_bytes : int;
  mutable wan_bytes : int;
  topic_acc : (string, (int * int) ref) Hashtbl.t; (* class -> publishes, bytes *)
  size_reservoir : int array;
  mutable size_count : int;
}

and mode = Switchboard | Full_mesh | Route_reflector of int
(* Route_reflector r: every update is sent to the reflector at site [r],
   which floods one copy to every other site, interested or not — the
   iBGP-style dissemination Section 6 argues against. *)

type stats = {
  published : int;
  delivered : int;
  dropped : int;
  fault_dropped : int;
  wan_messages : int;
  latencies : float list;
  latency_count : int;
  published_bytes : int;
  wan_bytes : int;
  topic_bytes : (string * int * int) list;
  sizes : int list;
  size_count : int;
}

let local_delay = 0.0005

let reservoir_capacity = 16_384

(* Multiply-xorshift finalizer over the native int (a 62-bit-safe
   Fibonacci-hashing multiplier): a deterministic stand-in for the uniform
   draw of reservoir sampling. *)
let mix_ordinal n =
  let h = n * 0x2545F4914F6CDD1D in
  let h = (h lxor (h lsr 29)) * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 32)) land max_int

let create eng ~mode ~num_sites ~delay ?(egress_rate = 20_000.) ?bandwidth
    ?size_fn ?(topic_key = fun t -> t) ?(buffer = 64) () =
  {
    eng;
    mode;
    delay;
    egress_rate;
    bandwidth;
    size_fn;
    topic_key;
    buffer;
    proxies = Array.init num_sites (fun _ -> { busy_until = 0.; finishes = Queue.create () });
    subs = Hashtbl.create 64;
    retained = Hashtbl.create 64;
    published = 0;
    delivered = 0;
    dropped = 0;
    fault_dropped = 0;
    wan_messages = 0;
    next_msg = 0;
    wan_hook = None;
    pair_last = Hashtbl.create 64;
    lat_reservoir = Array.make reservoir_capacity 0.;
    lat_count = 0;
    published_bytes = 0;
    wan_bytes = 0;
    topic_acc = Hashtbl.create 32;
    size_reservoir = Array.make reservoir_capacity 0;
    size_count = 0;
  }

let set_wan_hook t hook = t.wan_hook <- Some hook
let clear_wan_hook t = t.wan_hook <- None

let record_latency t lat =
  let n = t.lat_count in
  t.lat_count <- n + 1;
  if n < reservoir_capacity then t.lat_reservoir.(n) <- lat
  else begin
    let j = mix_ordinal (n + 1) mod (n + 1) in
    if j < reservoir_capacity then t.lat_reservoir.(j) <- lat
  end

let record_size (t : _ t) size =
  let n = t.size_count in
  t.size_count <- n + 1;
  if n < reservoir_capacity then t.size_reservoir.(n) <- size
  else begin
    let j = mix_ordinal (n + 1) mod (n + 1) in
    if j < reservoir_capacity then t.size_reservoir.(j) <- size
  end

let account_publish (t : _ t) ~topic size =
  t.published_bytes <- t.published_bytes + size;
  record_size t size;
  let key = t.topic_key topic in
  match Hashtbl.find_opt t.topic_acc key with
  | Some r ->
    let n, b = !r in
    r := (n + 1, b + size)
  | None -> Hashtbl.replace t.topic_acc key (ref (1, size))

(* [subs] holds only topics with at least one subscription, so publishing
   to a topic nobody listens to (a chain's route feed) costs no table
   entry. *)
let subscriptions t topic =
  match Hashtbl.find_opt t.subs topic with Some r -> !r | None -> []

(* Serialize one message onto [src]'s egress; [deliver] fires after queueing
   plus the wide-area delay. Buffer overflow drops the message. [msg] is the
   publish ordinal (one per [publish] call, shared by all of its wide-area
   copies) handed to the fault hook. *)
let send_wan (t : _ t) ~topic ~msg ~size ~src ~dst deliver =
  let decision =
    match t.wan_hook with
    | None -> Deliver
    | Some hook -> hook ~msg ~topic ~src ~dst
  in
  match decision with
  | Drop -> t.fault_dropped <- t.fault_dropped + 1
  | (Deliver | Delay _) as d ->
    let proxy = t.proxies.(src) in
    let now = Sb_sim.Engine.now t.eng in
    while (not (Queue.is_empty proxy.finishes)) && Queue.peek proxy.finishes < now do
      ignore (Queue.pop proxy.finishes)
    done;
    if Queue.length proxy.finishes >= t.buffer then t.dropped <- t.dropped + 1
    else begin
      let start = Float.max now proxy.busy_until in
      let ser =
        match t.bandwidth with
        | Some bw when size > 0 -> float_of_int size /. bw
        | _ -> 1. /. t.egress_rate
      in
      let finish = start +. ser in
      proxy.busy_until <- finish;
      Queue.push finish proxy.finishes;
      t.wan_messages <- t.wan_messages + 1;
      t.wan_bytes <- t.wan_bytes + size;
      let extra = match d with Delay e -> Float.max 0. e | _ -> 0. in
      let arrival = finish +. t.delay src dst +. extra in
      (* Per-pair FIFO (shared TCP connection): never land before an
         earlier message of the same pair. Without a fault hook the
         arrival sequence is already monotone per pair, so this is a
         no-op on the fault-free path. *)
      let arrival =
        match Hashtbl.find_opt t.pair_last (src, dst) with
        | Some last -> Float.max arrival last
        | None -> arrival
      in
      Hashtbl.replace t.pair_last (src, dst) arrival;
      ignore (Sb_sim.Engine.schedule_at t.eng ~time:arrival deliver)
    end

(* A subscription from site S is visible to a publish from site P at time t
   once its filter has had time to reach P's proxy. *)
let visible t ~publisher ~time (s : 'a sub) =
  if s.s_site = publisher then time >= s.s_time
  else time >= s.s_time +. t.delay s.s_site publisher

let deliver_one (t : _ t) ~publish_time ~count_latency (s : 'a sub) payload =
  t.delivered <- t.delivered + 1;
  if count_latency then record_latency t (Sb_sim.Engine.now t.eng -. publish_time);
  s.s_callback payload

let subscribe (t : _ t) ~site ~topic callback =
  let now = Sb_sim.Engine.now t.eng in
  let s = { s_site = site; s_time = now; s_callback = callback } in
  (match Hashtbl.find_opt t.subs topic with
  | Some r -> r := s :: !r
  | None -> Hashtbl.replace t.subs topic (ref [ s ]));
  (* Replay the retained payload once the filter reaches the publisher's
     proxy and the payload ships back. *)
  match Hashtbl.find_opt t.retained topic with
  | None -> ()
  | Some (payload, publisher) ->
    let rtt = if publisher = site then local_delay else 2. *. t.delay site publisher in
    ignore
      (Sb_sim.Engine.schedule t.eng ~delay:rtt (fun () ->
           t.delivered <- t.delivered + 1;
           callback payload))

let publish (t : _ t) ~site ~topic payload =
  let now = Sb_sim.Engine.now t.eng in
  t.published <- t.published + 1;
  t.next_msg <- t.next_msg + 1;
  let msg = t.next_msg in
  let size = match t.size_fn with None -> 0 | Some f -> f payload in
  if t.size_fn <> None then account_publish t ~topic size;
  let all_subs = subscriptions t topic in
  let subs = List.filter (visible t ~publisher:site ~time:now) all_subs in
  (* A subscriber whose filter is still in flight towards this proxy gets
     the payload once the filter lands (the proxy holds it for the pending
     filter, retained topic or not), so publishes in that window are not
     lost. *)
  List.iter
    (fun s ->
      if s.s_time <= now && not (visible t ~publisher:site ~time:now s) then begin
        let install = s.s_time +. t.delay s.s_site site in
        let arrival = install +. t.delay site s.s_site in
        ignore
          (Sb_sim.Engine.schedule_at t.eng ~time:(Float.max arrival now) (fun () ->
               t.delivered <- t.delivered + 1;
               s.s_callback payload))
      end)
    all_subs;
  match t.mode with
  | Full_mesh ->
    (* One copy per subscriber. *)
    List.iter
      (fun s ->
        if s.s_site = site then
          ignore
            (Sb_sim.Engine.schedule t.eng ~delay:local_delay (fun () ->
                 deliver_one t ~publish_time:now ~count_latency:true s payload))
        else
          send_wan t ~topic ~msg ~size ~src:site ~dst:s.s_site (fun () ->
              deliver_one t ~publish_time:now ~count_latency:true s payload))
      subs
  | Route_reflector reflector ->
    (* One copy to the reflector, which floods every site. Sites without
       subscribers still receive (and queue) the update. *)
    let nsites = Array.length t.proxies in
    let flood () =
      for dst = 0 to nsites - 1 do
        if dst <> reflector then begin
          let local_subs = List.filter (fun s -> s.s_site = dst) subs in
          let fan_out () =
            List.iter
              (fun s -> deliver_one t ~publish_time:now ~count_latency:true s payload)
              local_subs
          in
          send_wan t ~topic ~msg ~size ~src:reflector ~dst fan_out
        end
      done;
      (* Subscribers at the reflector site itself. *)
      List.iter
        (fun s ->
          if s.s_site = reflector then
            deliver_one t ~publish_time:now ~count_latency:true s payload)
        subs
    in
    if site = reflector then
      ignore (Sb_sim.Engine.schedule t.eng ~delay:local_delay flood)
    else send_wan t ~topic ~msg ~size ~src:site ~dst:reflector flood
  | Switchboard ->
    (* One copy per subscribing site; the remote proxy fans out locally. *)
    let sites = List.sort_uniq compare (List.map (fun s -> s.s_site) subs) in
    List.iter
      (fun dst ->
        let local_subs = List.filter (fun s -> s.s_site = dst) subs in
        let fan_out () =
          List.iter
            (fun s -> deliver_one t ~publish_time:now ~count_latency:true s payload)
            local_subs
        in
        if dst = site then
          ignore (Sb_sim.Engine.schedule t.eng ~delay:local_delay fan_out)
        else send_wan t ~topic ~msg ~size ~src:site ~dst fan_out)
      sites

let publish_retained t ~site ~topic payload =
  Hashtbl.replace t.retained topic (payload, site);
  publish t ~site ~topic payload

let stats (t : _ t) =
  let kept = min t.lat_count reservoir_capacity in
  (* Newest first while the reservoir is not full, matching the historical
     cons-list order; beyond capacity slot order is arbitrary anyway. *)
  let latencies = ref [] in
  for i = 0 to kept - 1 do
    latencies := t.lat_reservoir.(i) :: !latencies
  done;
  let skept = min t.size_count reservoir_capacity in
  let sizes = ref [] in
  for i = 0 to skept - 1 do
    sizes := t.size_reservoir.(i) :: !sizes
  done;
  {
    published = t.published;
    delivered = t.delivered;
    dropped = t.dropped;
    fault_dropped = t.fault_dropped;
    wan_messages = t.wan_messages;
    latencies = !latencies;
    latency_count = t.lat_count;
    published_bytes = t.published_bytes;
    wan_bytes = t.wan_bytes;
    topic_bytes =
      Hashtbl.fold (fun k r acc -> (k, fst !r, snd !r) :: acc) t.topic_acc []
      |> List.sort compare;
    sizes = !sizes;
    size_count = t.size_count;
  }

let reset_stats (t : _ t) =
  t.published <- 0;
  t.delivered <- 0;
  t.dropped <- 0;
  t.fault_dropped <- 0;
  t.wan_messages <- 0;
  t.lat_count <- 0;
  t.published_bytes <- 0;
  t.wan_bytes <- 0;
  Hashtbl.reset t.topic_acc;
  t.size_count <- 0

let subscriber_sites t ~topic =
  List.sort_uniq compare (List.map (fun s -> s.s_site) (subscriptions t topic))

let subscribed_topics t = Hashtbl.length t.subs
let retained_topics t = Hashtbl.length t.retained
