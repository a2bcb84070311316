(** The interference graph over a scenario's flows.

    Two flows interact — directly or through jitter propagation — only if
    their routes share a node: every interference set the analysis reads
    ([flows_on], [hep]) is drawn from the flows crossing one node, and
    jitter only travels along a flow's own route.  Flows in different
    connected components of this graph therefore have completely
    independent fixed points, which is what lets the holistic analysis be
    sharded per component (see [Analysis.Sharded]) and what the closure
    machinery in [Analysis.Delta] exploits edit by edit. *)

type component = {
  cid : int;  (** 0-based, ordered by smallest member flow id. *)
  flow_ids : Traffic.Flow.id list;  (** Ascending. *)
}

type stats = {
  flows : int;
  edges : int;  (** Distinct flow pairs sharing at least one route node. *)
  components : int;
  largest : int;  (** Flow count of the biggest component; 0 when empty. *)
  singletons : int;  (** Components of exactly one flow. *)
  density : float;
      (** [edges / (flows choose 2)]; 0 for fewer than two flows. *)
}

type t

val build : Traffic.Scenario.t -> t

val groups : Traffic.Flow.t list -> Traffic.Flow.t list list
(** The connected components of the node-sharing graph over a bare flow
    list, as lists of the given records: groups in order of their first
    member, members in list order.  Records are not merged by id, so the
    list may hold two versions of one flow.  [Analysis.Delta] computes
    a base's components with it, once per base. *)

val components : t -> component list

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit
