(** The rule catalog and the rule implementations of the lint pass.

    Codes are stable and grouped by family:
    - [GMF0xx] — structural problems in the scenario/topology (duplicate
      names, isolated nodes, unused links, detour routes) and the input
      codes raised by checked constructors ([GMF010]–[GMF013]);
    - [GMF1xx] — model preconditions of the paper (deadline vs. period,
      jitter assumptions, fragmentation, 802.1p collisions, CIRC
      feasibility);
    - [GMF2xx] — performance/utilization (necessary conditions eq (20) and
      eqs (34)–(35), impossible deadlines, config sanity). *)

type category = Structural | Model | Utilization

val category_to_string : category -> string

type rule = {
  code : string;
  category : category;
  default_severity : Gmf_diag.severity;
  title : string;
  reference : string;
      (** Paper equation / section or DESIGN.md repair backing the rule. *)
}

val catalog : rule list
(** Every code the tree can emit, ascending; includes the constructor
    codes [GMF010]–[GMF013] that are produced by [Traffic.Flow] rather
    than by the scenario rules ({!flow_rules}, {!fabric_rules}). *)

val find : string -> rule option

(** {2 The scenario rules}

    Every static rule is declared once, in one table that lists the
    codes it can emit.  It is in exactly one of the two groups below,
    and a whole pass is [sort (concat (flow_rules of every flow, in flow
    order) @ fabric_rules)].  {!gate_rules} selects from the same table
    the rules that can emit an error.  Pure: no fixpoint is executed, no
    metrics are recorded (that is {!Lint.run}'s and {!Lint.gate}'s job;
    [run] also reuses per-flow findings across passes). *)

val scenario_codes : string list
(** Every code the table's rules can emit, ascending: the catalog minus
    the constructor, admission and precheck codes GMF010–GMF019. *)

val gate_codes : string list
(** The codes of {!gate_rules}, ascending: the [Error] codes of the
    table's rules (GMF001, GMF201, GMF202, GMF203, GMF206). *)

val flow_rules :
  config:Analysis_config.t ->
  Traffic.Scenario.t ->
  Traffic.Flow.t list ->
  Gmf_diag.t list list
(** The findings on each of the given flows of the scenario, in order,
    of the rules that depend only on that flow record, the topology, the
    switch models on its route and the config: GMF002, GMF005, GMF007,
    GMF101, GMF102, GMF103 and GMF202.  GMF005 and GMF007 are answered
    for all the given flows at once, by one route search per destination
    ({!Network.Pathfind.summarize}); the scenario's other flows are not
    searched, so a caller that reuses most findings pays only for the
    rest. *)

val fabric_rules :
  config:Analysis_config.t -> Traffic.Scenario.t -> Gmf_diag.t list
(** The per-link and global rules, which read the whole flow set:
    GMF001, GMF003, GMF004, GMF006, GMF104, GMF105, GMF201, GMF203,
    GMF204, GMF205 and GMF206. *)

val gate_rules :
  config:Analysis_config.t ->
  ?names:Traffic.Flow.t list ->
  Traffic.Scenario.t ->
  Gmf_diag.t list
(** The errors of a whole pass, and only those: the rules that can emit
    an error, with their other findings (GMF204 hints, the GMF205
    warning) dropped, sorted as the whole pass sorts.  So
    [gate_rules ~config s] is [by_severity Error (sort (flow_rules ~config
    s (flows s) @ fabric_rules ~config s))], in the same order.

    [names] (default: the scenario's flows) are the flows whose names
    GMF001 compares, the one rule that reads across interference
    components.  A caller that gates a restriction of a larger scenario
    to complete components ({!Traffic.Scenario.with_flows}) passes the
    flows of the larger one that can clash: the component-local rules
    (GMF201, GMF202, GMF203, GMF206) then report exactly the larger
    scenario's errors that involve the restriction's flows, links and
    switches. *)

val sort : Gmf_diag.t list -> Gmf_diag.t list
(** Stable sort by code, then message. *)

val flow_gate : Traffic.Scenario.t -> Traffic.Flow.t -> Gmf_diag.t list
(** The cheap per-flow pre-pass used by [Analysis.Pipeline]: only the
    utilization impossibility rules ([GMF201], [GMF203]) restricted to
    the links the flow's route crosses — conditions under which the
    busy-period recurrences provably diverge, read off the scenario's
    load table.  Returns errors only. *)
