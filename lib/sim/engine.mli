(** Discrete-event simulation engine.

    A single-threaded event loop over a virtual clock. Events scheduled for
    the same instant fire in FIFO order of scheduling, which makes every
    simulation deterministic. This engine is the substrate on which the
    global message bus (Section 6), the control plane (Sections 3 and 7.1),
    and the dynamic-routing experiments run. *)

type t
(** A simulation instance with its own clock and pending-event queue. *)

type event_id
(** Handle for cancelling a scheduled event. *)

val create : unit -> t
(** A fresh simulation at time 0. *)

val now : t -> float
(** Current virtual time, in seconds. *)

val schedule : t -> delay:float -> (unit -> unit) -> event_id
(** [schedule t ~delay f] runs [f] at [now t +. delay]. [delay] must be
    non-negative and not NaN; raises [Invalid_argument] otherwise. *)

val schedule_at : t -> time:float -> (unit -> unit) -> event_id
(** [schedule_at t ~time f] runs [f] at absolute [time >= now t]. Raises
    [Invalid_argument] for a time in the past or a NaN time. *)

val cancel : t -> event_id -> unit
(** Cancel a pending event; cancelling a fired or already-cancelled event is
    a no-op. *)

val run : t -> unit
(** Process events until the queue is empty. *)

val step : t -> bool
(** Fire the earliest pending event (a cancelled event counts as a step
    that runs nothing). Returns [false] when the queue is empty. Lets a
    driver interleave its own logic with the event loop — [sb_chaos] uses
    it to enforce an event budget on machine-generated fault schedules. *)

val on_fire : t -> (float -> unit) -> unit
(** Register an observer called with the virtual timestamp of every
    non-cancelled event just before its action runs, in registration
    order. Observation only — used by [sb_chaos] for replayable event
    tracing and budget accounting. Observers cannot be removed. *)

val run_until : t -> float -> unit
(** [run_until t horizon] processes events with timestamp [<= horizon], then
    advances the clock to [horizon]. Events scheduled beyond the horizon
    remain pending. Raises [Invalid_argument] for a horizon in the past or
    a NaN horizon. *)

val pending : t -> int
(** Number of scheduled, uncancelled events. *)
