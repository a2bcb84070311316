(** Shared state of one analysis run: the scenario, the configuration
    and the stage-graph nodes that hold the holistic jitter state.  The
    demand tables behind MX/NX live in the scenario's
    {!Traffic.Link_params}, built once per (flow record, link rate) and
    shared by the flow's hops at that rate, and the per-flow gate reads
    the scenario's load table ({!Traffic.Scenario.link_utilization}). *)

type t

val create : ?config:Config.t -> Traffic.Scenario.t -> t
(** [create ?config scenario] builds one node per (flow, stage of its
    route), kept per flow as an array in route order.  Each node starts
    with the flow's source jitters at its first-link stage and zero
    everywhere else — the starting point of the holistic iteration
    (Section 3.5). *)

val scenario : t -> Traffic.Scenario.t
val config : t -> Config.t

val reset_jitters : t -> unit
(** Restores the initial jitters (source jitters only).  The nodes stay;
    every cached stage evaluation is dropped with the old jitters. *)

val mx :
  t -> Traffic.Flow.t -> src:Network.Node.id -> dst:Network.Node.id ->
  dt:Gmf_util.Timeunit.ns -> Gmf_util.Timeunit.ns
(** MX(tau_j, N1, N2, dt) (eq 11): link-time demand bound of the flow on the
    link during an interval of length [dt].  Under [Config.Faithful] the
    per-window demand is clamped to [dt] as eq (10) writes it; under
    [Config.Repaired] the clamp is dropped (request-bound reading, repair
    R7) so zero-jitter interference is not lost. *)

val nx :
  t -> Traffic.Flow.t -> src:Network.Node.id -> dst:Network.Node.id ->
  dt:Gmf_util.Timeunit.ns -> int
(** NX(tau_j, N1, N2, dt) (eq 13): Ethernet-frame count bound. *)

val extra : t -> Traffic.Flow.t -> stage:Stage.t -> Gmf_util.Timeunit.ns
(** extra_j at a stage: the flow's maximum per-frame jitter there. *)

(** {2 Stage-graph nodes}

    One node per (flow, stage of its route), built by {!create} and kept
    for the life of the context; {!nodes} hands a flow's nodes out in
    route order, so a pipeline walk reaches each one without a lookup.
    A node owns the flow's per-frame generalized jitters at the stage
    and their maximum, {!extra}; it also holds the flow's MX/NX tables
    on the stage's link, the stage's {!Gmf_precheck.Stage_eq}
    description ({!describe}) and its {e reads}: the nodes of the
    stage's {!Gmf_precheck.Stage_eq.busy_set}, the flows the stage
    analysis charges.

    Nodes are found by flow id: a same-id record of another scenario
    reaches the node of this context's flow of that id.

    {b Reuse rule.}  {!write} sets one slot of the node and, only
    when the node's extra changes, advances a per-context clock and
    stamps the node with it.  {!recall} hands back a stage evaluation
    recorded by {!remember} as long as no node in its reads carries a
    newer stamp.  This is exact: a stage analysis reads the jitters only
    through the extras of its reads ({!charge} folds over exactly that
    array, and the stage's "others" set is the same array minus the node
    itself), and everything else it reads — scenario, configuration,
    demand tables, the node's flow and its stage description — is fixed
    for the life of the context.  So an evaluation
    whose reads are unchanged would recompute the same result, errors
    included.  {!reset_jitters} drops every recorded evaluation. *)

type node

val nodes : t -> Traffic.Flow.t -> node array
(** [nodes t flow] is the flow's nodes in route order, one per stage of
    {!Stage.stages_of_route}; the array is the context's own and must not
    be modified.  Raises [Invalid_argument] when the context has no flow
    of that id. *)

val node : t -> Traffic.Flow.t -> stage:Stage.t -> node
(** [node t flow ~stage] is the flow's node at [stage], a stage of its
    route (a scan of {!nodes}).  Raises [Invalid_argument] when the
    context has no such node. *)

val node_flow : node -> Traffic.Flow.t
(** The context's record of the node's flow. *)

val describe : t -> node -> frame:int -> Gmf_precheck.Stage_eq.t
(** [describe t node ~frame] is
    [Gmf_precheck.Stage_eq.make ~config scenario flow stage ~frame] for
    the node's flow and stage under the context's configuration.  What
    the frames share is looked up once per node, at the first call.
    Raises [Invalid_argument] if [frame] is out of range. *)

val charge :
  t -> node -> others:bool ->
  (node -> Gmf_util.Timeunit.ns -> Gmf_util.Timeunit.ns) ->
  Gmf_util.Timeunit.ns -> Gmf_util.Timeunit.ns
(** [charge t self ~others f dt] sums [f j dt] over the reads [j] of
    [self] in order, skipping [self] itself when [others]; the sum
    saturates instead of wrapping.  The reads are resolved on the first
    call. *)

val mx_of : t -> node -> dt:Gmf_util.Timeunit.ns -> Gmf_util.Timeunit.ns
(** [mx_of t j ~dt] is [mx] of the node's flow over [dt + extra_j]: its
    link-time demand in a window of length [dt] (eqs 15, 17, 29, 31).  The
    sum saturates instead of wrapping. *)

val nx_of : node -> dt:Gmf_util.Timeunit.ns -> int
(** [nx_of j ~dt] is [nx] of the node's flow over [dt + extra_j]
    (eqs 22, 24, 29, 31). *)

val recall :
  t -> node -> frame:int ->
  (Result_types.stage_response, Result_types.failure) result option
(** The last evaluation of [frame] at the node recorded by {!remember},
    if none of the node's reads has changed its extra since. *)

val remember :
  t -> node -> frame:int ->
  (Result_types.stage_response, Result_types.failure) result -> unit
(** Records the evaluation of [frame] at the node against the current
    clock. *)

val write : t -> node -> frame:int -> Gmf_util.Timeunit.ns -> unit
(** Writes one jitter of the node and keeps its extra up to date,
    stamping the node when the extra changes.  Raises [Invalid_argument]
    on a negative value or a frame index out of range. *)

val set_jitter :
  t -> Traffic.Flow.t -> frame:int -> stage:Stage.t ->
  Gmf_util.Timeunit.ns -> unit
(** {!write} to the (flow, stage) node.  Raises [Invalid_argument] as
    {!write} does and on a stage that is not on the route of a flow of
    the context. *)

val get_jitter :
  t -> Traffic.Flow.t -> frame:int -> stage:Stage.t -> Gmf_util.Timeunit.ns

val writes : t -> int
(** How many {!write}s so far changed a value. *)

type copy
(** Every node's jitters as they stood at {!copy_jitters}. *)

val copy_jitters : t -> copy

val flow_deltas :
  t -> since:copy -> (Traffic.Flow.id * Gmf_util.Timeunit.ns) list
(** Per flow, the largest absolute change of one of its jitters since the
    copy was taken, sorted by flow id.  A flow is listed iff it holds a
    non-zero jitter in the copy or now (delta 0 when nothing moved). *)

val params :
  t -> Traffic.Flow.t -> src:Network.Node.id -> dst:Network.Node.id ->
  Traffic.Link_params.t
