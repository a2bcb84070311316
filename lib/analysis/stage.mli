(** Identity of one resource along a flow's pipeline (paper Section 3,
    Figure 6).

    A hop through a switch contributes up to three stages; a frame's
    end-to-end response time is the sum over the stages of its route:

    - [First_link (s, d)]: the source node's output queue plus the first
      link, analyzed under any work-conserving discipline (Section 3.2);
    - [Ingress n]: NIC FIFO to priority queue inside switch [n]
      (Section 3.3);
    - [Egress (n, d)]: priority queue of switch [n] towards [d], including
      the transmission on link [(n, d)] (Section 3.4). *)

type t = Gmf_precheck.Stage_key.t =
  | First_link of Network.Node.id * Network.Node.id
  | Ingress of Network.Node.id
  | Egress of Network.Node.id * Network.Node.id

val equal : t -> t -> bool
val compare : t -> t -> int

val stages_of_route : Network.Route.t -> t list
(** The stage sequence of a route, in traversal order: first link, then for
    every intermediate switch an ingress stage and an egress stage. *)

val pp : Format.formatter -> t -> unit
(** e.g. ["first(0->4)"], ["in(4)"], ["out(4->6)"]. *)
