module Engine = Sb_sim.Engine
module Bus = Sb_msgbus.Bus
module System = Sb_ctrl.System
module Types = Sb_ctrl.Types

module Exporter = struct
  (* Per chain, the cumulative counters at the previous export: the
     baseline the next window's deltas are taken against. *)
  type baseline = { base_p : int array; base_b : int array }

  type t = {
    system : System.t;
    site : int;
    topic : string;
    period : float;
    down_links : unit -> int list;
    prev : (int, baseline) Hashtbl.t;
    mutable epoch : int;
    mutable running : bool;
    mutable exported : int;
  }

  let baseline t chain num_stages =
    match Hashtbl.find_opt t.prev chain with
    | Some b when Array.length b.base_p = num_stages -> b
    | _ ->
      let b = { base_p = Array.make num_stages 0; base_b = Array.make num_stages 0 } in
      Hashtbl.replace t.prev chain b;
      b

  (* The chain's window entry: the site's counters are read straight into
     the arrays the batch publishes, then turned into deltas against the
     baseline, which takes the new counts. *)
  let measure t (chain, _egress, num_stages) =
    let ct_pkts = Array.make num_stages 0 and ct_bytes = Array.make num_stages 0 in
    if
      System.site_chain_measurements_into t.system ~site:t.site ~chain ~pkts:ct_pkts
        ~bytes:ct_bytes
      < 0
    then None
    else begin
      let b = baseline t chain num_stages in
      let delta cur base =
        Array.iteri
          (fun i c ->
            cur.(i) <- c - base.(i);
            base.(i) <- c)
          cur
      in
      delta ct_pkts b.base_p;
      delta ct_bytes b.base_b;
      Some { Types.ct_chain = chain; ct_pkts; ct_bytes }
    end

  let rec tick t =
    if t.running then begin
      let chains =
        Array.of_list
          (List.filter_map (measure t) (System.site_known_chains t.system ~site:t.site))
      in
      (* A site that knows no chain has nothing to report; otherwise every
         known chain is an entry, zero windows included. *)
      if Array.length chains > 0 then begin
        Bus.publish (System.bus t.system) ~site:t.site ~topic:t.topic
          (Types.Site_telemetry
             {
               site = t.site;
               epoch = t.epoch;
               down_links = t.down_links ();
               table = System.site_flow_table_stats t.system ~site:t.site;
               chains;
             });
        t.exported <- t.exported + Array.length chains
      end;
      t.epoch <- t.epoch + 1;
      ignore (Engine.schedule (System.engine t.system) ~delay:t.period (fun () -> tick t))
    end

  let start ~system ~site ~period ?(down_links = fun () -> []) () =
    let t =
      {
        system;
        site;
        topic = Types.site_telemetry_topic ~site;
        period;
        down_links;
        prev = Hashtbl.create 16;
        epoch = 0;
        running = true;
        exported = 0;
      }
    in
    ignore (Engine.schedule (System.engine system) ~delay:period (fun () -> tick t));
    t

  let stop t = t.running <- false
  let exported t = t.exported
end

module Control = struct
  (* Control-plane cost snapshot: what the adaptation loop itself spends,
     as opposed to what the data plane carries. Bus counters come from the
     size-priced bus (every System bus prices payloads with
     [Types.msg_size] and classes topics with [Types.topic_class]); data
     plane counters come from the shard's mutation journal and rule
     arena. *)
  type report = {
    bus_published : int;
    bus_wan_messages : int;
    bus_published_bytes : int;
    bus_wan_bytes : int;  (** bytes that crossed the wide area *)
    bus_topic_bytes : (string * int * int) list;
        (** per topic class: (class, publishes, bytes) *)
    bus_size_p50 : int;
    bus_size_p99 : int;
    dp_mutations : int;  (** rule-install journal length (lane 0) *)
    dp_slots_live : int;
    dp_words_used : int;
    dp_words_garbage : int;
    dp_compactions : int;
    churn_scale_outs : int;  (** deployments added by elastic placement *)
    churn_removed : int;  (** deployments retracted after a drain *)
    churn_drains_completed : int;
    churn_drains_aborted : int;
    churn_draining : int;
    churn_drain_p50 : float;  (** median completed-drain duration (s), 0 if none *)
    churn_drain_max : float;
  }

  let percentile sorted p =
    let n = Array.length sorted in
    if n = 0 then 0
    else sorted.(min (n - 1) (int_of_float (p *. float_of_int (n - 1) +. 0.5)))

  let snapshot system =
    let bs = Bus.stats (System.bus system) in
    let shard = System.shard system in
    let arena = Sb_dataplane.Shard.arena_stats shard in
    let sizes = Array.of_list bs.Bus.sizes in
    Array.sort compare sizes;
    let ch = System.deployment_churn system in
    let durs = Array.of_list ch.System.ch_drain_durations in
    Array.sort compare durs;
    let drain_p50 =
      let n = Array.length durs in
      if n = 0 then 0. else durs.(n / 2)
    in
    let drain_max = Array.fold_left Float.max 0. durs in
    {
      bus_published = bs.Bus.published;
      bus_wan_messages = bs.Bus.wan_messages;
      bus_published_bytes = bs.Bus.published_bytes;
      bus_wan_bytes = bs.Bus.wan_bytes;
      bus_topic_bytes = bs.Bus.topic_bytes;
      bus_size_p50 = percentile sizes 0.5;
      bus_size_p99 = percentile sizes 0.99;
      dp_mutations = Sb_dataplane.Shard.mutations shard;
      dp_slots_live = arena.Sb_dataplane.Plane.slots_live;
      dp_words_used = arena.Sb_dataplane.Plane.words_used;
      dp_words_garbage = arena.Sb_dataplane.Plane.words_garbage;
      dp_compactions = arena.Sb_dataplane.Plane.compactions;
      churn_scale_outs = ch.System.ch_scale_outs;
      churn_removed = ch.System.ch_removed;
      churn_drains_completed = ch.System.ch_drains_completed;
      churn_drains_aborted = ch.System.ch_drains_aborted;
      churn_draining = ch.System.ch_draining;
      churn_drain_p50 = drain_p50;
      churn_drain_max = drain_max;
    }

  let pp fmt r =
    Format.fprintf fmt
      "@[<v>bus: %d published (%d B), %d wan msgs (%d B), size p50=%d p99=%d@,"
      r.bus_published r.bus_published_bytes r.bus_wan_messages r.bus_wan_bytes
      r.bus_size_p50 r.bus_size_p99;
    List.iter
      (fun (cls, n, b) -> Format.fprintf fmt "  %-28s %6d msgs %10d B@," cls n b)
      r.bus_topic_bytes;
    Format.fprintf fmt
      "dp: %d mutations, arena %d live slots (%d words, %d garbage, %d compactions)@,"
      r.dp_mutations r.dp_slots_live r.dp_words_used r.dp_words_garbage
      r.dp_compactions;
    Format.fprintf fmt
      "churn: %d scale-outs, %d removed (%d drains done, %d aborted, %d draining), \
       drain p50=%.2fs max=%.2fs@]"
      r.churn_scale_outs r.churn_removed r.churn_drains_completed
      r.churn_drains_aborted r.churn_draining r.churn_drain_p50 r.churn_drain_max
end

module Aggregator = struct
  type sample = {
    s_epoch : int;
    s_counts : Types.chain_telemetry;
    s_down : int list;
    s_table : int * int * int;
  }

  type t = {
    chains : int list;
    num_sites : int;
    staleness : int;
    cells : (int, sample option array) Hashtbl.t;
    mutable reports : int;
    mutable last_epoch : int;
  }

  (* A batch is exactly its entries applied one after another: each
     watched chain's entry becomes that (chain, site) cell's sample unless
     the cell already holds a newer one, and carries the batch's
     site-level fields along. *)
  let ingest t = function
    | Types.Site_telemetry { site; epoch; down_links; table; chains } ->
      if site >= 0 && site < t.num_sites then
        Array.iter
          (fun (e : Types.chain_telemetry) ->
            match Hashtbl.find_opt t.cells e.ct_chain with
            | None -> () (* a chain this aggregator was not asked to watch *)
            | Some row ->
              t.reports <- t.reports + 1;
              if epoch > t.last_epoch then t.last_epoch <- epoch;
              let newer =
                match row.(site) with None -> true | Some s -> epoch >= s.s_epoch
              in
              if newer then
                row.(site) <-
                  Some { s_epoch = epoch; s_counts = e; s_down = down_links; s_table = table })
          chains
    | _ -> ()

  let create ~system ~site ~chains ~num_sites ?(staleness = 3) () =
    let t =
      {
        chains;
        num_sites;
        staleness;
        cells = Hashtbl.create (max 1 (List.length chains));
        reports = 0;
        last_epoch = -1;
      }
    in
    List.iter (fun chain -> Hashtbl.replace t.cells chain (Array.make num_sites None)) chains;
    for s = 0 to num_sites - 1 do
      Bus.subscribe (System.bus system) ~site ~topic:(Types.site_telemetry_topic ~site:s)
        (ingest t)
    done;
    t

  let fresh t ~epoch s = s.s_epoch > epoch - t.staleness && s.s_epoch <= epoch

  (* Fold over the freshest per-site samples of one chain, in site order —
     deterministic regardless of report arrival interleaving. *)
  let fold_fresh t ~epoch ~chain f init =
    match Hashtbl.find_opt t.cells chain with
    | None -> init
    | Some row ->
      Array.fold_left
        (fun acc cell ->
          match cell with Some s when fresh t ~epoch s -> f acc s | _ -> acc)
        init row

  let chain_packets t ~epoch ~chain =
    fold_fresh t ~epoch ~chain
      (fun acc s ->
        let pk = s.s_counts.Types.ct_pkts in
        let p = if Array.length pk > 0 then pk.(0) else 0 in
        match acc with None -> Some p | Some a -> Some (a + p))
      None

  let chain_stages t ~epoch ~chain =
    let width =
      fold_fresh t ~epoch ~chain
        (fun w s -> max w (Array.length s.s_counts.Types.ct_pkts))
        0
    in
    let pk = Array.make width 0 and by = Array.make width 0 in
    let add sum = Array.iteri (fun i v -> sum.(i) <- sum.(i) + v) in
    fold_fresh t ~epoch ~chain
      (fun () s ->
        add pk s.s_counts.Types.ct_pkts;
        add by s.s_counts.Types.ct_bytes)
      ();
    Array.init width (fun i -> (pk.(i), by.(i)))
  (* Every chain's report from a site carries the same site-level table
     snapshot, so pick one fresh sample per site (the freshest wins) and
     sum entries/capacity across sites; probe lengths max. *)
  let table_occupancy t ~epoch =
    let per_site = Array.make t.num_sites None in
    List.iter
      (fun chain ->
        match Hashtbl.find_opt t.cells chain with
        | None -> ()
        | Some row ->
          Array.iteri
            (fun site cell ->
              match cell with
              | Some s when fresh t ~epoch s -> (
                match per_site.(site) with
                | Some prev when prev.s_epoch >= s.s_epoch -> ()
                | _ -> per_site.(site) <- Some s)
              | _ -> ())
            row)
      t.chains;
    Array.fold_left
      (fun (c, k, m) cell ->
        match cell with
        | Some { s_table = c', k', m'; _ } -> (c + c', k + k', max m m')
        | None -> (c, k, m))
      (0, 0, 0) per_site

  let down_links t ~epoch =
    List.fold_left
      (fun acc chain ->
        fold_fresh t ~epoch ~chain
          (fun acc s ->
            List.fold_left
              (fun acc l -> if List.mem l acc then acc else l :: acc)
              acc s.s_down)
          acc)
      [] t.chains
    |> List.sort compare

  let reports t = t.reports
  let last_epoch t = t.last_epoch
end
