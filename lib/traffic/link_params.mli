(** Per-(flow, link) derived parameters (paper Section 3.1, Figure 4).

    Given a flow and one link of its route, this module derives the values
    the analysis consumes: the transmission time C_i^k of every GMF frame,
    the Ethernet-frame count of every GMF frame, CSUM/NSUM over the cycle,
    and the {!Gmf.Demand} tables behind MX/MXS (link time) and NX/NXS
    (frame counts). *)

type t = private {
  flow : Flow.t;
  link : Network.Link.t;
  c : Gmf_util.Timeunit.ns array;  (** C_i^k, per GMF frame. *)
  eth_frames : int array;  (** Ethernet frames per GMF frame. *)
  time_demand : Gmf.Demand.t;
      (** Demand tables with per-frame cost C_i^k — evaluate with
          [Gmf.Demand.bound ~capped:true] to get MX (eq 11). *)
  count_demand : Gmf.Demand.t;
      (** Demand tables with per-frame cost = Ethernet-frame count —
          evaluate with [Gmf.Demand.bound ~capped:false] to get NX
          (eq 13). *)
}

val make : flow:Flow.t -> link:Network.Link.t -> t
(** Derives all per-frame values and builds both demand tables.  The link
    need not be on the flow's route (the first-hop analysis of an
    IP-router source uses the incoming link of the router, which the
    operator models explicitly).  A {!Scenario} calls it once per (flow
    record, link rate) and derives its other hops at that rate with
    {!relink}. *)

val fits : t -> Flow.t -> bool
(** [fits p flow]: [p] serves [flow] on [p]'s link.  Everything but
    [link] depends on the flow's spec and encapsulation alone, so params
    built for one record fit the record itself and every record carrying
    the same spec (physically) and an equal encapsulation — a flow
    rerouted, re-prioritized or remarked keeps them. *)

val relink : t -> flow:Flow.t -> link:Network.Link.t -> t
(** [relink p ~flow ~link] equals [make ~flow ~link] and shares [p]'s
    per-frame arrays and demand tables: the GMF request-bound functions
    depend only on the frame costs and separations, here the spec, the
    encapsulation and the link rate.  Raises [Invalid_argument] unless
    [fits p flow] and [link] has [p]'s link rate. *)

val csum : t -> Gmf_util.Timeunit.ns
(** CSUM (eq 4): total link time of one cycle. *)

val nsum : t -> int
(** NSUM (eq 5): total Ethernet frames of one cycle.  Computed as the paper
    does, as [sum_k ceil(C_i^k / MFT)]; {!Ethernet.Fragment.fragment_count}
    yields the same value (tested). *)

val mft : t -> Gmf_util.Timeunit.ns
(** The link's Maximum-Frame-Transmission-Time (eq 1). *)

val utilization : t -> float
(** CSUM / TSUM of this flow on this link (a term of eq 20). *)

val pp : Format.formatter -> t -> unit
