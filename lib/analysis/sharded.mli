(** Precheck-guided holistic analysis: decide statically what can be
    decided, fixpoint the rest component by component.

    {!analyze} runs {!Gmf_precheck.Precheck.run} first (through the
    caller's {!Gmf_precheck.Reuse} table, when given one), then:

    - statically infeasible flows are rejected without any fixpoint (the
      certificate becomes the failure reason);
    - certified flows get synthetic results carrying their certified
      per-frame ceilings ([stages = []], no fixpoint either);
    - every remaining interference component is analyzed as an
      independent sub-scenario, one {!Gmf_exec.run} each, unless the
      caller's report table already holds its fixpoint.

    Because interference never crosses component boundaries (two flows
    interfere only where their routes share a node, which is exactly an
    {!Gmf_precheck.Igraph} edge), the union of the per-component fixed
    points {e is} the monolithic fixed point: fixpointing every
    component through {!sub_scenario} and combining the reports with
    {!Holistic.merge} equals [Holistic.analyze] structurally.  The
    property tests in test/test_precheck.ml build that union and enforce
    it; {!Delta}'s exactness rests on it.  The only caveat is an [Analysis_failed]
    monolithic run, which stops {e every} flow at the failing round,
    while a per-component run lets the other components converge — same
    verdict constructor, possibly more results and rounds.

    {!analyze} itself always skips the statically decided flows, so its
    report carries certificates and certified ceilings where the
    monolithic one carries fixpoint results: whether the set is
    schedulable agrees (the certificates are sound), the bounds and
    failure reasons need not. *)

val sub_scenario : Traffic.Scenario.t -> Traffic.Flow.t list -> Traffic.Scenario.t
(** [sub_scenario scenario flows] restricts the scenario to [flows],
    records of [scenario] in its flow order (an
    {!Gmf_precheck.Igraph.component}'s members), through
    {!Traffic.Scenario.with_flows}: the full topology, the declared
    switch models and the members' link tables carry over.  When [flows]
    is a union of complete interference components, analyzing the
    restriction is byte-equal to restricting the analysis (the sharding
    property above).  When [flows] holds every flow, [scenario] itself
    is returned, with its build caches.
    ({!Delta} builds its closure restriction the same way, from the
    base scenario and the edit.) *)

val analyze :
  ?config:Config.t ->
  ?table:Gmf_precheck.Precheck.outcome list Gmf_precheck.Reuse.t ->
  ?reports:Holistic.report Gmf_precheck.Reuse.t ->
  Traffic.Scenario.t ->
  Holistic.report * Gmf_precheck.Precheck.report
(** [analyze ?config ?table ?reports scenario] is the merged report and
    the precheck report it was guided by; the precheck report's
    components are the ones fixpointed or decided.  Bumps
    [precheck.components_run] and [precheck.fixpoints_skipped].  [table]
    goes to {!Gmf_precheck.Precheck.run}: components that meet its key
    ({!Gmf_precheck.Reuse}) are not tested again.  [reports] does the
    same for the fixpoints of undecided components: a fixpoint reads
    only what the key checks, and a run that raised is not kept.
    {!Delta} passes its base's two tables. *)
