(** The interference index over a list of flows: one union-find over
    route nodes.

    Two flows interact — directly or through jitter propagation — only if
    their routes share a node: every interference set the analysis reads
    ([flows_on], [hep]) is drawn from the flows crossing one node, and
    jitter only travels along a flow's own route.  Flows in different
    connected components of this graph therefore have completely
    independent fixed points.  This index is the one partition every
    caller reads: {!Precheck} tests each component's members,
    [Analysis.Sharded] fixpoints the undecided ones, and [Analysis.Delta]
    closes an edit over a base's components through {!node_component}.

    No caller needs the graph's edges to partition it; the flow-pair
    count lives in {!edges}, which only the printers call. *)

type component = {
  cid : int;  (** 0-based, in order of the first member. *)
  members : Traffic.Flow.t list;  (** The given records, in the given order. *)
}

type stats = {
  flows : int;
  components : int;
  largest : int;  (** Flow count of the biggest component; 0 when empty. *)
  singletons : int;  (** Components of exactly one flow. *)
}

type t

val build : Traffic.Flow.t list -> t
(** The node-sharing components of the given records: two records share
    a component when a chain of records links them, each sharing a route
    node with the next.  Records are not merged by id, so the list may
    hold two versions of one flow.  Linear in the total route length
    plus the largest node id. *)

val components : t -> component list
(** By [cid]. *)

val node_component : t -> Network.Node.id -> component option
(** The component whose routes hold the node; [None] when no route of
    the index does. *)

val stats : t -> stats

val edges : component list -> int
(** Distinct record pairs sharing at least one route node, summed over
    the components: no pair crosses two of them.  The only pair
    enumeration over flows; the printers of a precheck report and
    [gmfnet profile] call it. *)

val density : stats -> edges:int -> float
(** [edges / (flows choose 2)]; 0 for fewer than two flows. *)

val pp_stats : edges:int -> Format.formatter -> stats -> unit
