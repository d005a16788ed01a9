type 'hop rule = ('hop * float) list

let pick rng rule =
  if rule = [] then invalid_arg "Balancer.pick: empty rule";
  let weights = Array.of_list (List.map snd rule) in
  let hops = Array.of_list (List.map fst rule) in
  hops.(Sb_util.Rng.weighted_index rng weights)

let cumulative weights =
  (* Left-to-right [+.] in the same order as [Rng.weighted_index]'s
     accumulation, so the packed draw reproduces [pick] bit for bit. *)
  let n = Array.length weights in
  let cum = Array.make (max n 1) 0. in
  let acc = ref 0. in
  let has_neg = ref false in
  for i = 0 to n - 1 do
    if weights.(i) < 0. then has_neg := true;
    acc := !acc +. weights.(i);
    cum.(i) <- !acc
  done;
  (cum, !has_neg)

let normalize rule =
  let rule = List.filter (fun (_, w) -> w > 0.) rule in
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0. rule in
  if total <= 0. then [] else List.map (fun (h, w) -> (h, w /. total)) rule

let compose ~site_fraction ~per_site =
  List.concat_map
    (fun (site, frac) ->
      if frac <= 0. then []
      else
        List.map (fun (hop, w) -> (hop, frac *. w)) (normalize (per_site site)))
    site_fraction
