(** Admission with rerouting: when a candidate flow is rejected on its
    default route, try alternative routes before giving up.

    The paper fixes every route a priori; combined with
    {!Network.Pathfind} this module gives the operator the obvious
    next move — the admission gain is measured by experiment E14. *)

type decision = {
  admitted : bool;
  route : Network.Route.t option;
      (** The route that was accepted (possibly the candidate's own);
          [None] when every alternative failed. *)
  attempts : int;  (** Number of routes tried. *)
  report : Holistic.report;
      (** Analysis of the accepted configuration, or of the last attempt
          when rejected. *)
}

val with_route : Traffic.Flow.t -> Network.Route.t -> Traffic.Flow.t
(** The same flow (id, name, spec, encapsulation, default priority) on a
    different route.  Per-hop 802.1p remarks are dropped deliberately:
    they name hops of the old route. *)

val admit :
  ?config:Config.t ->
  Traffic.Scenario.t ->
  candidate:Traffic.Flow.t ->
  decision
(** [admit scenario ~candidate] first tries the candidate's own route, then
    the other routes among the first 4 of [Network.Pathfind.k_shortest]
    (hop count, then node sequence; at most
    {!Network.Pathfind.max_hops} links).  The scenario itself is never
    modified.

    Candidate routes are analyzed in order through {!Case.analyze} (and
    its shared memo); the first schedulable one is accepted, and
    [attempts] counts the routes analyzed up to it. *)

val admit_greedily :
  ?config:Config.t ->
  topo:Network.Topology.t ->
  Traffic.Flow.t list ->
  Traffic.Flow.t list * Traffic.Flow.t list
(** Greedy admission with rerouting; returns (admitted — with their final,
    possibly rerouted, routes — and rejected).  Comparable to
    [Admission.admit_greedily], which never reroutes. *)
