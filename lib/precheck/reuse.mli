(** Per-flow results of lint's per-flow rules, kept so that the next
    lint pass over an edited scenario can carry them over instead of
    recomputing them ({!Gmf_lint.Lint.run}'s [?prev]; precheck keeps
    per-component verdicts in {!Precheck.Table} instead).

    A result stored for a flow is reused only when it would come out the
    same: the flow record is physically the one it was computed for
    ([==]), the topology is physically the same, the switch model of
    every switch on the flow's route is equal, and so is the analysis
    config.  Lint's per-flow rules are functions of exactly these (see
    [docs/ADMCTL.md]).

    A table never refers to the table it was built from, so keeping the
    last one costs one scenario's worth of results, not a history. *)

type 'a t

val make :
  config:Analysis_config.t ->
  Traffic.Scenario.t ->
  (Traffic.Flow.t * 'a) list ->
  'a t
(** The results of one pass over [scenario] under [config], one per
    flow.  Nothing is indexed until a later pass looks a flow up, so a
    pass nobody reuses pays only for the list. *)

val find :
  prev:'a t ->
  config:Analysis_config.t ->
  Traffic.Scenario.t ->
  Traffic.Flow.t ->
  'a option
(** [find ~prev ~config scenario flow] is the result [prev] holds for
    [flow] when it carries over to a pass over [scenario] under
    [config], else [None]. *)
