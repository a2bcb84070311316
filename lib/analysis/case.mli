(** One analysis case = (flow set, topology, config), evaluated through
    {!Gmf_exec}.

    Sensitivity probes, rerouting candidates, rejection hints and the
    per-component fixpoints of {!Sharded} funnel their whole-scenario
    analyses through this module so that identical cases are computed
    once.  This module owns the process's one analysis memo,
    {!shared_memo}, keyed by {!digest}: each scenario is looked up
    first, only a miss is handed to {!Gmf_exec.run}, and a hit
    bumps [exec.memo_hits].  So a sensitivity probe revisiting a scale,
    a rerouting candidate tried twice, or a component that adjacent
    survive cases share reuses the earlier fixpoint.  A survive sweep
    empties the table when it starts
    ([Gmf_faults.Survive.clear_memo]), so the table holds at most the
    latest sweep's components plus what other drivers added since.
    Cases run in order, in process.

    An exception from the analysis degrades to an [Analysis_failed]
    report carrying an ["exec: ..."] reason, so drivers stay total and
    render rejections uniformly. *)

val digest : config:Config.t -> Traffic.Scenario.t -> string
(** Hex digest of the canonical serialization of (config, topology —
    nodes and links with rates and propagation delays —, switch models,
    and every flow's id, name, encapsulation, priority, route, remarks
    and frame specs).  Two scenarios with equal digests are analyzed
    identically.  Cached per (scenario value, config) via
    {!Traffic.Scenario.cached}: the serialization runs once, later memo
    probes are a table lookup. *)

val flow_digest : Traffic.Flow.t -> string
(** The canonical per-flow fragment of {!digest} (id, name,
    encapsulation, priority, route, remarks, frame specs).  Two flows
    with equal fragments are interchangeable for the analysis; an
    admission session drops an update that restates a flow with it. *)

val shared_memo : Holistic.report Gmf_exec.Memo.t
(** The process-wide report cache every entry point below shares.  A
    report of an exec error is never stored. *)

val report_of_error : Gmf_exec.error -> Holistic.report
(** The report of a case whose evaluation raised: an [Analysis_failed]
    verdict with one ["exec: ..."] failure of [flow_id = -1], zero
    rounds and no results. *)

val analyze_all :
  ?config:Config.t ->
  Traffic.Scenario.t list ->
  Holistic.report list
(** Analyze every scenario, in order, through the shared memo: a
    scenario whose digest is in the table (an earlier element of the
    same list included) is not analyzed again. *)

val analyze : ?config:Config.t -> Traffic.Scenario.t -> Holistic.report
(** Single-case convenience: memoized {!Holistic.analyze}, run in
    process. *)

val schedulable : ?config:Config.t -> Traffic.Scenario.t -> bool
(** [Holistic.is_schedulable (analyze scenario)]. *)
