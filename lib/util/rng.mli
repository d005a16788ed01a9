(** Deterministic, splittable pseudo-random number generator.

    All stochastic components of Switchboard take an explicit generator so
    that every simulation, test, and benchmark is reproducible from a seed.
    The implementation is SplitMix64, which has good statistical quality and
    supports cheap splitting into independent streams. *)

type t

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed. *)

val split : ?stream:int -> t -> t
(** [split t] derives an independent generator; [t] advances.

    [split ~stream:i t] derives the [i]th of a family of independent
    generators from [t]'s {e current} state without advancing [t]: it is a
    pure function of (state, [i]), so for a fixed seed the per-stream
    generators are reproducible regardless of how many other streams were
    derived, in which order — the contract the sharded dataplane's
    per-lane balancer draws rely on ("same (seed, lane) → same draws for
    any domain count"). [split ~stream:0 t] produces the same generator a
    plain [split t] would at that point. Raises [Invalid_argument] on a
    negative [i]. *)

val copy : t -> t
(** [copy t] snapshots the generator state. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Raises [Invalid_argument] if
    [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val exponential : t -> float -> float
(** [exponential t rate] samples Exp(rate); mean [1. /. rate]. *)

val uniform_in : t -> float -> float -> float
(** [uniform_in t lo hi] is uniform in [\[lo, hi)]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val choice : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val sample_without_replacement : t -> int -> int -> int list
(** [sample_without_replacement t k n] draws [k] distinct ints from
    [\[0, n)]. Raises [Invalid_argument] if [k > n]. *)

val weighted_index : t -> float array -> int
(** [weighted_index t weights] samples an index with probability
    proportional to its (non-negative) weight. Raises [Invalid_argument]
    if all weights are zero or any is negative. *)

val weighted_index_cum : t -> float array -> off:int -> len:int -> int
(** [weighted_index_cum t cum ~off ~len] is {!weighted_index} over
    weights whose left-to-right cumulative sums were precomputed into
    [cum.(off) .. cum.(off + len - 1)], so the total weight is
    [cum.(off + len - 1)]: one O(log len) draw, bit-identical in both
    RNG-state advance and chosen index (callers must reject negative
    weights beforehand, as [weighted_index] does during its
    accumulation), and allocation-free. Raises [Invalid_argument] on
    [len = 0] or a non-positive total. *)
