(** Declarative fault model for software-switched networks.

    The paper's analysis assumes the topology it admitted against stays
    up; this module names the ways it does not.  A {!schedule} is a plain
    value consumed by three independent clients:

    - {!Sim.Netsim} injects it into a simulation run (downed links stop
      transmitting, stalled switches pause their stride rotation, frames
      are lost at random),
    - {!Survive} enumerates failure cases statically and re-analyzes each,
    - [Gmf_admctl] sessions replay [fail link]/[restore link] trace
      events.

    Links are identified by their directed [(src, dst)] node pair — the
    key {!Network.Topology} itself uses; {!duplex_down}/{!duplex_up} cover
    the common both-directions case. *)

type link_id = Network.Node.id * Network.Node.id
(** A directed link, as (source node, destination node). *)

type event =
  | Link_down of link_id * Gmf_util.Timeunit.ns
      (** The link stops transmitting at the given time. *)
  | Link_up of link_id * Gmf_util.Timeunit.ns
      (** The link resumes.  Without a matching [Link_up], a downed link
          stays down for the rest of the run. *)
  | Switch_stall of Network.Node.id * Gmf_util.Timeunit.ns * Gmf_util.Timeunit.ns
      (** [Switch_stall (node, at, duration)]: every processor of the
          switch pauses its CIRC(N) task rotation during
          [\[at, at + duration)] — added stride-service latency, e.g. a
          management-plane hiccup on the software switch's CPU. *)
  | Frame_loss of float
      (** Each delivered Ethernet frame is dropped independently with
          this probability, for the whole run.  Several [Frame_loss]
          events combine by taking the maximum. *)

type policy =
  | Hold  (** Frames queued behind a downed link wait for [Link_up]. *)
  | Drop  (** Frames queued behind (or arriving at) a downed link are
              discarded and counted as fault drops. *)

type schedule = {
  events : event list;
  policy : policy;  (** What happens to frames caught behind a downed
                        link. *)
}

val empty : schedule
(** No events, [Hold] policy — simulating with [empty] is exactly the
    fault-free run. *)

val is_empty : schedule -> bool

val make : ?policy:policy -> event list -> schedule
(** [make events] is a schedule with the given events ([Hold] policy by
    default).  Raises [Invalid_argument] on a negative time or duration,
    or a frame-loss probability outside [\[0, 1\]]. *)

val duplex_down : a:Network.Node.id -> b:Network.Node.id -> at:Gmf_util.Timeunit.ns -> event list
(** Both directions of a duplex link going down. *)

val duplex_up : a:Network.Node.id -> b:Network.Node.id -> at:Gmf_util.Timeunit.ns -> event list

val loss_probability : schedule -> float
(** The largest [Frame_loss] probability, [0.] when none. *)

val validate : Network.Topology.t -> schedule -> (unit, string) result
(** Checks every named link and switch exists in the topology (and that
    stalled nodes are switches).  The simulator refuses invalid
    schedules. *)

(** {1 Fault windows}

    The time spans during which a component was (or may still be)
    perturbed — used to {e taint} simulated journeys so sim-vs-analysis
    cross-checks only assert bounds on journeys the faults could not have
    touched. *)

type component =
  | C_link of link_id
  | C_switch of Network.Node.id

type window = {
  w_component : component;
  w_from : Gmf_util.Timeunit.ns;
  w_until : Gmf_util.Timeunit.ns option;
      (** [None]: the component never recovered. *)
}

val windows : schedule -> window list
(** One window per [Link_down]..[Link_up] pair (or open-ended when the
    link never comes back) and per [Switch_stall].  [Frame_loss] has no
    window — a positive loss probability taints {e every} journey, see
    {!taints}. *)

val taints :
  schedule ->
  route:Network.Route.t ->
  from:Gmf_util.Timeunit.ns ->
  until:Gmf_util.Timeunit.ns ->
  bool
(** Whether a packet that lived during [\[from, until\]] on [route] may
    have been perturbed by the schedule.  Deliberately conservative:

    - any positive {!loss_probability} taints everything;
    - a link window touches every route visiting {e either} endpoint of
      the link (backlog behind a dead port delays the whole interface,
      not just the flows crossing that direction);
    - a switch window touches every route visiting the node;
    - a {e closed} window is extended by its own duration as a settle
      margin — frames held during the outage drain as a burst after
      recovery and can perturb innocent flows for a while.  Open-ended
      windows taint until the end of the run. *)
