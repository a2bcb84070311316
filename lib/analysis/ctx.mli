(** Shared state of one analysis run: the scenario, the configuration, the
    holistic jitter state, its stage-graph nodes and the per-flow lint
    gates.  The demand tables behind MX/NX live in the scenario's
    {!Traffic.Link_params}, built once per (flow, link). *)

type t

val create : ?config:Config.t -> Traffic.Scenario.t -> t
(** [create ?config scenario] initializes the context.  The jitter state
    starts with every flow's source jitter installed at its first-link stage
    and zero everywhere else — the starting point of the holistic iteration
    (Section 3.5). *)

val scenario : t -> Traffic.Scenario.t
val config : t -> Config.t
val jitters : t -> Jitter_state.t

val reset_jitters : t -> unit
(** Restores the initial jitter state (source jitters only) and drops
    every stage-graph node. *)

val snapshot : t -> Jitter_state.t
(** A deep copy of the current jitter state.  Taken after a converged
    {!Holistic} run it is the fixed point of the scenario — the seed an
    admission session hands back to {!restore} to warm-start the next
    decision. *)

val restore : t -> Jitter_state.t -> unit
(** [restore t state] replaces the context's jitters with a copy of
    [state] and (re-)installs every flow's source jitters on top, so a
    state captured on a {e smaller} flow set is completed with the first
    entries of any flow it has never seen.  The argument is not aliased;
    later mutations of the context leave it intact.  Every stage-graph
    node is dropped with the old state. *)

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

    One node per (flow, stage of its route), created on first use and kept
    until {!reset_jitters} or {!restore} replaces the jitter state.  A node
    holds the flow's MX/NX tables on the stage's link, its {!extra} there,
    and its {e reads}: the nodes of the stage's
    {!Gmf_precheck.Stage_eq.busy_set}, the flows the stage analysis
    charges.

    {b Reuse rule.}  {!set_jitter} refreshes the node's cached extra and,
    only when that extra changes, advances a per-context clock and stamps
    the node with it.  {!recall} hands back a stage evaluation recorded by
    {!remember} as long as no node in its reads carries a newer stamp.
    This is exact: a stage analysis reads the jitter state only through
    the extras of its reads ({!charge} folds over exactly that array, and
    the stage's "others" set is the same array minus the node itself), and
    everything else it reads — scenario, configuration, demand tables,
    the analyzed flow, which must be one of the context scenario's — is
    fixed for the life of the context.  So an evaluation whose reads
    are unchanged would recompute the same result, errors included.  The
    jitter state returned by {!jitters} must be treated as read-only:
    writes that bypass {!set_jitter} would escape the stamps. *)

type node

val node : t -> Traffic.Flow.t -> stage:Stage.t -> node
(** [node t flow ~stage] is the flow's node at [stage], a stage of its
    route. *)

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

val flow_gate : t -> Traffic.Flow.t -> Gmf_diag.t list
(** {!Gmf_lint.Rules.flow_gate} of the flow in this context's scenario,
    evaluated once per flow: it depends on the scenario only, so every
    holistic round after the first reuses it. *)

val set_jitter :
  t -> Traffic.Flow.t -> frame:int -> stage:Stage.t ->
  Gmf_util.Timeunit.ns -> unit
(** Writes one jitter and refreshes the (flow, stage) node's extra,
    stamping the node when the extra changes. *)

val get_jitter :
  t -> Traffic.Flow.t -> frame:int -> stage:Stage.t -> Gmf_util.Timeunit.ns

val params :
  t -> Traffic.Flow.t -> src:Network.Node.id -> dst:Network.Node.id ->
  Traffic.Link_params.t
