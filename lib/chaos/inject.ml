module Engine = Sb_sim.Engine
module Bus = Sb_msgbus.Bus
module System = Sb_ctrl.System
module Shard = Sb_dataplane.Shard
module Rng = Sb_util.Rng

(* Topics whose loss the control plane is engineered to absorb: 2PC
   prepares/decisions and votes/acks are retransmitted by the coordinator
   until answered, and telemetry reports are stale-tolerant by design
   (the aggregator holds the previous estimate). Everything else on the
   bus — retained route/weight dissemination, chain requests — is
   published once and must not be silently dropped; faults reach it only
   as delay. *)
let loss_tolerant topic =
  let has_prefix p = String.length topic >= String.length p
                     && String.sub topic 0 (String.length p) = p in
  has_prefix "/ctl/" || has_prefix "/gsb/votes/" || has_prefix "/telemetry/"
  || has_prefix "/advert/"

let is_telemetry topic =
  String.length topic >= 11 && String.sub topic 0 11 = "/telemetry/"

let arm ~sys ?store ?observe ~rng (sched : Schedule.t) =
  let eng = System.engine sys in
  let bus = System.bus sys in
  (* Forwarder deaths go through the shard so every lane sees them. *)
  let shard = System.shard sys in
  let t0 = Engine.now eng in
  (* Process deaths: deterministic timed events. *)
  List.iter
    (fun fault ->
      let start, stop = Schedule.window fault in
      match fault with
      | Schedule.Site_outage { site; _ } ->
        let fwds () = System.site_forwarders sys site in
        ignore
          (Engine.schedule_at eng ~time:(t0 +. start) (fun () ->
               List.iter (Shard.fail_forwarder shard) (fwds ())));
        ignore
          (Engine.schedule_at eng ~time:(t0 +. stop) (fun () ->
               List.iter (Shard.revive_forwarder shard) (fwds ())))
      | Schedule.Forwarder_crash { site; _ } ->
        ignore
          (Engine.schedule_at eng ~time:(t0 +. start) (fun () ->
               Shard.fail_forwarder shard (System.site_forwarder sys site)));
        ignore
          (Engine.schedule_at eng ~time:(t0 +. stop) (fun () ->
               Shard.revive_forwarder shard (System.site_forwarder sys site)))
      | Schedule.Gsb_failover _ ->
        ignore
          (Engine.schedule_at eng ~time:(t0 +. start) (fun () ->
               System.set_gsb_down sys true));
        ignore
          (Engine.schedule_at eng ~time:(t0 +. stop) (fun () ->
               System.set_gsb_down sys false;
               match store with
               | Some st -> System.recover_from_store sys st ~on_done:(fun _ -> ())
               | None -> ()))
      | Schedule.Link_flap _ | Schedule.Bus_loss _ | Schedule.Bus_delay _
      | Schedule.Telemetry_drop _ -> ())
    sched.Schedule.faults;
  (* Network pathologies: one wide-area hook consulted per message copy.
     RNG draws happen only inside an active window, in engine event
     order, so replays are bit-identical and shrinking a window leaves
     draws outside it untouched. *)
  Bus.set_wan_hook bus (fun ~msg ~topic ~src ~dst ->
      (match observe with Some f -> f ~msg ~topic ~src ~dst | None -> ());
      let now = Engine.now eng -. t0 in
      let active start stop = now >= start && now < stop in
      let drop = ref false in
      let extra = ref 0. in
      List.iter
        (fun fault ->
          if not !drop then
            match fault with
            | Schedule.Link_flap { a; b; start; stop }
              when active start stop && ((src = a && dst = b) || (src = b && dst = a)) ->
              (* Held back by TCP until the link is back; the bus's
                 per-pair FIFO keeps later messages behind this one. *)
              extra := !extra +. (stop -. now) +. 0.01
            | Schedule.Site_outage { site; start; stop }
              when active start stop && (src = site || dst = site) ->
              extra := !extra +. (stop -. now) +. 0.01
            | Schedule.Bus_loss { start; stop; prob }
              when active start stop && loss_tolerant topic ->
              if Rng.float rng 1.0 < prob then drop := true
            | Schedule.Bus_delay { start; stop; prob; max_extra }
              when active start stop ->
              if Rng.float rng 1.0 < prob then
                extra := !extra +. Rng.float rng max_extra
            | Schedule.Telemetry_drop { start; stop; prob }
              when active start stop && is_telemetry topic ->
              if Rng.float rng 1.0 < prob then drop := true
            | _ -> ())
        sched.Schedule.faults;
      if !drop then Bus.Drop
      else if !extra > 0. then Bus.Delay !extra
      else Bus.Deliver)
