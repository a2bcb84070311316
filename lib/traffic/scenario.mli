(** A complete analyzable/simulatable setting: topology + switch cost models
    + flow set.

    This is the unit the analysis, the simulator, the admission controller
    and the experiments all operate on. *)

type t

val make :
  ?switches:(Network.Node.id * Click.Switch_model.t) list ->
  topo:Network.Topology.t ->
  flows:Flow.t list ->
  unit ->
  t
(** [make ?switches ~topo ~flows ()] validates and builds a scenario.

    Every switch node that appears as an intermediate of some route needs a
    {!Click.Switch_model}; nodes not listed in [switches] get a default
    model with [ninterfaces = degree of the node] and the paper's measured
    CROUTE/CSEND.

    Raises [Invalid_argument] on duplicate flow ids, a [switches] entry for
    a non-switch node, or a model whose interface count is below the node's
    degree. *)

val topo : t -> Network.Topology.t

val flows : t -> Flow.t list
(** All flows, in id order. *)

val flow : t -> Flow.id -> Flow.t
(** Raises [Invalid_argument] on an unknown id. *)

val flow_count : t -> int

val switch_model : t -> Network.Node.id -> Click.Switch_model.t
(** The cost model of a switch node.  Raises [Invalid_argument] when the
    node is not a switch. *)

val switch_nodes : t -> Network.Node.id list
(** Every switch node with a model (explicit or defaulted), ascending. *)

val circ : t -> Network.Node.id -> Gmf_util.Timeunit.ns
(** CIRC(N) of a switch node. *)

val flows_on : t -> src:Network.Node.id -> dst:Network.Node.id -> Flow.t list
(** flows(N1,N2): every flow whose route contains the hop [src -> dst]
    (paper Section 3). *)

val hep : t -> Flow.t -> node:Network.Node.id -> Flow.t list
(** hep(tau_i, N) of eq (2): flows other than [tau_i] leaving [node] on the
    same link as [tau_i] (i.e. towards succ(tau_i, node)) with priority
    higher than or equal to [tau_i]'s. *)

val lp : t -> Flow.t -> node:Network.Node.id -> Flow.t list
(** lp(tau_i, N) of eq (3): the remaining flows on that link — strictly
    lower priority. *)

val params : t -> Flow.t -> src:Network.Node.id -> dst:Network.Node.id ->
  Link_params.t
(** Cached per-(flow, link) derived parameters: built at the first call,
    or taken from the scenario this one derives from (see
    {!with_flows}).  A build relinks ({!Link_params.relink}) params the
    scenario already holds for a fitting record on a link of the same
    rate, so {!Link_params.make} runs once per (flow record, link rate)
    and a flow's hops at one rate share one set of demand tables. *)

val link_utilization : t -> src:Network.Node.id -> dst:Network.Node.id -> float
(** Sum over flows(src,dst) of CSUM/TSUM — the left side of eq (20). *)

(** {2 Derived scenarios}

    Every scenario built from another scenario's fabric goes through
    {!with_flows} or {!map_switches}.  The result keeps the source's
    topology and inherits:

    - its {e declared} switch models, the ones passed to [make ~switches];
      defaults are derived again, as {!make} does, for the other switches
      the new routes cross;
    - the source's {!params} of every (flow, hop) they fit
      ({!Link_params.fits}).  Params depend only on the spec, the
      encapsulation and the link, so those built for one record fit
      every record of the same id with the same spec (physically) and
      encapsulation: a rerouted or re-prioritized flow keeps them, and
      a new hop of its route relinks the ones of a hop at the same
      rate; a flow with a new spec gets fresh ones.  The copy costs
      O(new flows x hops).

    [hep]/[lp] sets depend on the whole flow set and are never
    inherited. *)

type params_pool
(** A table of {!params}, keyed by (flow id, hop), that the scenarios
    derived with it share: a (flow, hop) is built once for all of them
    and kept as long as the pool's owner keeps the pool, and a (flow
    record, link rate)'s demand tables once.  An entry serves only
    records it fits, so the scenarios may disagree on a record. *)

val params_pool : unit -> params_pool

val with_flows : ?pool:params_pool -> t -> Flow.t list -> t
(** [with_flows t flows] is the scenario of [flows] over [t]'s topology
    and declared switch models.  With [pool], the result keeps its
    params in [pool]: it takes fitting entries from there first, then
    from [t], and adds what it builds.  Each such build of a (flow, hop)
    record, relinked or made, bumps the [traffic.params_built] counter,
    registered at the first one.  Raises
    as {!make} does on duplicate flow ids. *)

val map_switches :
  t -> f:(Network.Node.id -> Click.Switch_model.t -> Click.Switch_model.t) -> t
(** [map_switches t ~f] keeps [t]'s flows and topology and gives every
    switch of {!switch_nodes} the model [f node (switch_model t node)];
    those models become the result's declared ones.  Raises as {!make}
    does when a model has fewer ports than its node has links. *)

val map_flows : t -> f:(Flow.t -> Flow.t) -> t
(** [map_flows t ~f] is [with_flows t (List.map f (flows t))]. *)

val pp : Format.formatter -> t -> unit
