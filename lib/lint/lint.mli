(** The lint pass: run every rule, record hit-rate metrics, classify.

    [run] is the entry point the CLI, [Analysis.Admission] and tests use.
    It never executes a fixpoint — every rule in {!Rules} is a pure
    traversal of the scenario/topology/config — so gating an analysis on
    it costs O(flows × route length). *)

type report = {
  diagnostics : Gmf_diag.t list;  (** Sorted by code, then message. *)
  by_flow : Gmf_diag.t list Gmf_precheck.Reuse.t;
      (** Each flow's {!Rules.flow_rules} findings, for the next [run]'s
          [?prev]. *)
}

val run :
  ?config:Analysis_config.t -> ?prev:report -> Traffic.Scenario.t -> report
(** Run {!Rules.flow_rules} on every flow and {!Rules.fabric_rules} once
    ([config] defaults to {!Analysis_config.default}).  With [prev], a
    flow whose findings carry over from [prev] ({!Gmf_precheck.Reuse.find})
    keeps them instead of running its rules again; the report is the
    same as without [prev].  Bumps the per-rule [lint.hits.<CODE>]
    counters, [lint.runs] and [lint.flows_reused] on
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
