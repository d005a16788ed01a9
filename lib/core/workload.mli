(** Synthetic tier-1 evaluation scenario (Section 7.3 simulation setup).

    Builds a {!Model.t} following the paper's recipe: cloud sites of
    homogeneous capacity colocated with backbone nodes; a VNF catalog where
    each VNF is deployed at a random [coverage] fraction of sites, with a
    site's capacity divided equally among the VNFs present there; chains
    with random ingress/egress, 3-5 VNFs in a globally consistent order,
    and traffic proportional to the gravity-model mass of the ingress node;
    and Switchboard-to-background traffic in a 4:1 ratio, with background
    traffic spread over links by shortest-path routing of a second gravity
    matrix. *)

type params = {
  num_vnfs : int;  (** catalog size (paper: 100) *)
  coverage : float;  (** fraction of sites hosting each VNF, in (0, 1] *)
  cpu_per_unit : float;  (** CPU/byte of every VNF (paper sweeps this) *)
  num_chains : int;  (** paper: 10 000; scaled down for the LP *)
  min_chain_len : int;  (** paper: 3 *)
  max_chain_len : int;  (** paper: 5 *)
  site_capacity : float;  (** homogeneous site compute capacity *)
  total_traffic : float;  (** total Switchboard demand *)
  background_ratio : float;  (** background / Switchboard traffic (paper: 1/4) *)
  reverse_fraction : float;  (** v_cz as a fraction of w_cz *)
  beta : float;  (** MLU limit *)
}

val default : params
(** 12 VNFs, coverage 0.5, CPU/unit 1.0, 24 chains, lengths 3-5, site
    capacity 100, total traffic 30, background ratio 0.25, reverse fraction
    0.5, beta 1.0 — sized so the SB-LP simplex solves in well under a second and unit
    demand is feasible (so the min-latency LP has a solution). *)

val synthesize : rng:Sb_util.Rng.t -> Sb_net.Topology.t -> params -> Model.t
(** Raises [Invalid_argument] on out-of-range parameters. *)
