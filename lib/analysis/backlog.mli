(** Buffer-requirement bounds — a corollary of the response-time analysis
    that a switch designer needs for memory sizing (the paper's Figure 5
    queues are implicitly assumed unbounded; this module tells you how much
    memory makes that assumption safe).

    For the egress priority queue of link (N, d): every Ethernet frame of
    flow j resides in the queue at most W_j, flow j's egress-stage response
    bound there (residence ends no later than reception at d).  Frames of
    flow j present simultaneously are therefore bounded by the arrivals in
    a window of length W_j + extra_j, i.e. NX_j (eq 13).  Summing over the
    flows of the link bounds the queue occupancy at any instant.  The
    ingress NIC FIFO of a switch is bounded the same way using the
    ingress-stage response times.

    Bounds are computed from a completed holistic report, so they inherit
    its fixed-point jitters.  They are upper bounds on the simulator's
    observed occupancy (tested in [test/test_backlog.ml], exercised by
    experiment E11). *)

type queue_bound = {
  node : Network.Node.id;  (** The switch owning the queue. *)
  peer : Network.Node.id;
      (** Link peer: destination for egress queues, predecessor for ingress
          FIFOs. *)
  frames : int;  (** Maximum simultaneous Ethernet frames. *)
  bits : int;
      (** Conservative memory bound: [frames] maximal Ethernet frames. *)
}

val egress_bounds :
  Ctx.t -> Holistic.report -> (queue_bound list, string) result
(** One bound per egress priority queue used by some flow.  [Error] if the
    report is not from a schedulable analysis (bounds need valid response
    times). *)

val ingress_bounds :
  Ctx.t -> Holistic.report -> (queue_bound list, string) result
(** One bound per switch ingress FIFO used by some flow. *)
