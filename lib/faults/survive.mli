(** Static k-failure survivability analysis.

    Enumerates every combination of at most [k] failed components — an
    undirected link (both directions die together) or a whole switch —
    and asks, per failure case: which admitted flows keep their route,
    which must be rerouted around the failure, and which must be shed
    for the rest to stay schedulable.

    Every case runs {!degrade} — the one reroute-and-shed loop, shared
    with the link-failure events of [Gmf_admctl.Session] — and evaluates
    each attempt incrementally against one fault-free base fixpoint
    ({!Analysis.Delta.analyze}, lint gate and precheck on): the attempt
    is an edit (the case's sheds and reroutes), only its interference
    closure is built and re-analyzed, and a degraded set that fails the
    errors-only lint gate
    ({!Gmf_lint.Lint.gate}; e.g. a reroute saturates a link, GMF201)
    sheds without burning fixpoint rounds.  A case costs O(closure)
    beyond a few O(flows) list passes (its fates, the merged report):
    the base's interference index ({!Gmf_precheck.Igraph.build}, read
    by the delta engine) and each reroute's record and link parameters
    are built once per sweep ({!sweep}), a case finds its hit flows by
    directed hop ({!Traffic.Scenario.flows_on}), and a degraded
    component that recurs across cases is prechecked once and
    fixpointed once (the base's two {!Gmf_precheck.Reuse} tables).
    Same-size failure sets walk in revolving-door Gray order; both
    tables hold every component the sweep met, so the order is kept
    because the goldens list cases in it, not for what adjacent cases
    share.  A
    base that does not converge certifies nothing: every attempt takes
    the delta engine's cold fallback (lint gate, then the
    precheck-guided {!Analysis.Sharded.analyze} of the whole degraded
    set), and only then is the report's [delta_totals] [None].

    Telemetry: each case bumps [survive.cases] and runs under a
    [survive.case] span; reroutes and sheds bump [faults.flows_rerouted]
    and [faults.flows_shed].  Delta statistics are additionally embedded
    in every case result (and summed in [report.delta_totals]): the
    report and its JSON sum these copies whether metrics are on or not. *)

type component =
  | Link of Network.Node.id * Network.Node.id
      (** Undirected: stored with the smaller id first; both directions
          fail together. *)
  | Switch of Network.Node.id
      (** The switch and every link touching it fail. *)

type fate =
  | Unaffected  (** The flow's route avoids the failed components. *)
  | Rerouted of Network.Route.t
      (** Moved to the given route, and the case is schedulable with it
          (unless the flow was later shed — shed wins). *)
  | Shed
      (** No alternate route exists, or shedding it was required to keep
          the rest schedulable. *)

type delta = {
  d_closure : int;
      (** Flows the incremental fixpoints actually re-ran over, summed
          across the case's settle attempts. *)
  d_skipped : int;  (** Flows certified untouched, summed likewise. *)
  d_saved : int;  (** Sum of per-attempt [rounds_saved] estimates. *)
  d_fallbacks : int;  (** Attempts that fell back to a cold analysis. *)
  d_warm : int;  (** Pure-growth attempts warm-seeded from the base. *)
}
(** Delta-engine statistics (see {!Analysis.Delta.stats}). *)

type case_result = {
  case : component list;  (** The failed components, 1 to [k] of them. *)
  fates : (Traffic.Flow.t * fate) list;  (** In scenario flow order. *)
  verdict : Analysis.Holistic.verdict;
      (** Of the surviving set, after any shedding. *)
  rounds : int;  (** Holistic rounds spent on this case, all attempts. *)
  delta : delta option;
      (** Per-case delta statistics; [None] only for a case the executor
          failed to evaluate. *)
}

type flow_verdict =
  | Survives  (** Keeps its own route in every failure case. *)
  | Survives_with_reroute  (** Rerouted somewhere, never shed. *)
  | Must_shed  (** Shed in at least one failure case. *)

type report = {
  k : int;
  base : Analysis.Holistic.report;  (** The fault-free analysis. *)
  cases : case_result list;
      (** Smallest failure sets first, then by component order. *)
  matrix : (Traffic.Flow.t * flow_verdict) list;
      (** Per-flow aggregate over all cases, in scenario flow order. *)
  shed_set : Traffic.Flow.t list;
      (** Flows shed in at least one case — what the operator stands to
          lose under any [<= k]-failure, with the greedy shed policy. *)
  delta_totals : delta option;
      (** Sum of every case's delta statistics; [None] when the
          fault-free base did not converge. *)
}

val shed_order : Traffic.Flow.t list -> Traffic.Flow.t list
(** The shed policy, shared with [Gmf_admctl]'s degraded mode: shed the
    lowest 802.1p priority first, ties broken towards the higher flow id
    (the most recently admitted flow goes first). *)

val components : Traffic.Scenario.t -> component list
(** The failure domain: every undirected link (in first-appearance
    order), then every switch node. *)

val failure_cases : k:int -> component list -> component list list
(** Every subset of 1..k components, smallest size first; within a size
    class the subsets walk in revolving-door Gray order (consecutive
    cases swap exactly one component), each subset listing its
    components in input order.  The size-1 class is the input list
    itself.  This is the exact case order {!run} evaluates and its
    reports (and their goldens) list; no cost depends on it. *)

type sweep
(** A sweep's scenario and the reroute records made so far — one
    record per (flow, route) for the whole sweep, so the link
    parameters it fits are built once too (they live in the sweep's
    {!Analysis.Delta.base} pool).  It belongs to the sweep and goes with
    it; a session's link failure is a sweep of one case. *)

val sweep : Traffic.Scenario.t -> sweep

type 'a degraded = {
  placed : (Traffic.Flow.t * fate) list;
      (** Every flow, in scenario order, before any greedy shed. *)
  victims : Traffic.Flow.t list;  (** Greedily shed, in shed order. *)
  survivors : Traffic.Flow.t list;  (** The last attempt's flow set. *)
  unpinned : Traffic.Flow.t list;  (** [survivors] not in [pinned]. *)
  report : Analysis.Holistic.report;  (** The last attempt's report. *)
  last : 'a;  (** The last attempt's payload. *)
  rounds_spent : int;  (** Holistic rounds summed over every attempt. *)
}

val degrade :
  pinned:Traffic.Flow.t list ->
  avoid_links:(Network.Node.id * Network.Node.id) list ->
  avoid_nodes:Network.Node.id list ->
  attempt:(Analysis.Delta.edit -> Analysis.Holistic.report * 'a) ->
  sweep ->
  'a degraded
(** [degrade ~pinned ~avoid_links ~avoid_nodes ~attempt sweep]: every
    flow of the sweep's scenario on a failed directed link (found by
    directed hop, {!Traffic.Scenario.flows_on}, not by scanning every
    route) moves to its first surviving route, avoiding [avoid_links]
    and [avoid_nodes], of at most {!Network.Pathfind.max_hops}
    (8) links, by hop count and then by node sequence
    ({!Network.Pathfind.first_route}), or is shed when none survives.
    Then, while [attempt]'s report on the survivors is not schedulable,
    the head of {!shed_order} among the survivors not in [pinned]
    (compared by id) is shed.  Each attempt gets the survivors as an
    edit of the scenario: the shed ids are [removed], the surviving
    reroutes are [put].  Bumps no counter.  A survive case pins nothing;
    a session link failure pins the flows the outage did not hit.

    Precondition: [avoid_links] holds every directed link into and out
    of each node of [avoid_nodes].  A route starts and ends at an
    endhost or router ({!Network.Route.make}), so every flow through a
    failed switch crosses one of its links and is found through them; a
    survive case's failed switch adds all its links, and a session
    passes [avoid_nodes = []]. *)

val run :
  ?config:Analysis.Config.t ->
  ?k:int ->
  ?domain:component list ->
  Traffic.Scenario.t ->
  report
(** [run scenario] analyzes every failure case of at most [k] (default 1)
    components with {!degrade}, in order, in process, each through
    {!Gmf_exec.run}.  A case whose evaluation raises is reported
    conservatively: analysis-failed verdict with an ["exec: ..."] reason
    and every flow shed.  Raises [Invalid_argument] when [k < 0].

    [domain] restricts the failure enumeration to the given components
    (default: every component of {!components}) — bench sweeps use it
    to bound k>=2 case counts.

    Every table the sweep fills belongs to its one {!Analysis.Delta}
    base, so nothing outlives the sweep. *)

val clear_memo : unit -> unit
(** Does nothing.  A stub kept only for the benchmark harness, which
    calls it before every timed op ([perfbench/common.ml]). *)

val admission_gate :
  ?config:Analysis.Config.t ->
  ?k:int ->
  candidate:Traffic.Flow.t ->
  Traffic.Scenario.t ->
  Gmf_diag.t list
(** Survivable-admission gate: runs {!run} on [scenario] (which must
    already include [candidate]) and returns a single [GMF017] error
    when [candidate]'s matrix verdict is {!Must_shed} — i.e. admitting
    it would leave it shed under some [<= k]-component failure — citing
    the first witnessing failure case.  Returns [[]] when the candidate
    survives every case (with or without reroute).  The
    [?survivable] mode of [Gmf_admctl.Session] runs it. *)

val component_name : Traffic.Scenario.t -> component -> string
(** e.g. ["link a<->b"], ["switch sw0"]. *)

val pp_report : Traffic.Scenario.t -> Format.formatter -> report -> unit
(** Human-readable: one line per case, then the per-flow matrix and the
    shed set, written case by case. *)

val pp_json : Traffic.Scenario.t -> Format.formatter -> report -> unit
(** Deterministic indented JSON (flows and components by name), suitable
    for golden files, written case by case: the rendering of a large
    sweep is never held in memory whole. *)
