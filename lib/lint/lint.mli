(** The lint pass: run every rule, record hit-rate metrics, classify.

    [run] is the entry point the CLI, [Analysis.Admission] and tests use.
    It never executes a fixpoint — every rule in {!Rules} is a pure
    traversal of the scenario/topology/config — so gating an analysis on
    it costs O(flows × route length).  A session passes [run] a
    {!Gmf_precheck.Reuse} table, so a flow that meets the table's key
    keeps its findings instead of running its rules again. *)

type report = {
  diagnostics : Gmf_diag.t list;  (** Sorted by code, then message. *)
}

val run :
  ?config:Analysis_config.t ->
  ?table:Gmf_diag.t list Gmf_precheck.Reuse.t ->
  Traffic.Scenario.t ->
  report
(** Run {!Rules.flow_rules} on every flow and {!Rules.fabric_rules} once
    ([config] defaults to {!Analysis_config.default}).  With [table], a
    flow that meets {!Gmf_precheck.Reuse}'s key under [[flow]] keeps the
    findings the table holds; the others run their rules in one
    {!Rules.flow_rules} batch and are added.  The report is the same as
    without [table].  Bumps the per-rule [lint.hits.<CODE>] counters,
    [lint.runs] and [lint.flows_reused] (the flows read from [table]) on
    {!Gmf_obs.Metrics.default} (visible under [gmfnet profile]) and
    traces a [lint.run] span on {!Gmf_obs.Tracer.default}. *)

val gate :
  ?config:Analysis_config.t ->
  ?names:Traffic.Flow.t list ->
  Traffic.Scenario.t ->
  Gmf_diag.t list
(** The error gate: exactly [errors (run ?config s)], the same
    diagnostics in the same order, from only the rules that can emit an
    error ({!Rules.gate_rules}).  Callers that need nothing but errors
    use it, chiefly [Analysis.Delta] on every survive case.  [names] is
    as in {!Rules.gate_rules}.  Bumps [lint.runs] and the
    [lint.hits.<CODE>] counters of the errors it returns, and traces a
    [lint.gate] span. *)

val errors : report -> Gmf_diag.t list
val warnings : report -> Gmf_diag.t list
val hints : report -> Gmf_diag.t list

val fatal : deny:Gmf_diag.severity -> report -> bool
(** [fatal ~deny report] is true when any diagnostic sits at or above
    the deny level — the CLI's [--deny] exit policy. *)

val pp_report : Format.formatter -> report -> unit
