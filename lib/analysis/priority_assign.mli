(** 802.1p priority-assignment policies.

    The paper assumes every flow arrives with its priority chosen; in
    practice the operator must map flows onto the 2–8 classes their
    switches support (Section 1).  This module implements the standard
    policies and an exhaustive optimal search for small flow sets, so the
    policies can be compared (experiment E14).

    All policies only rewrite the [priority] field; routes, specs and ids
    are preserved.  Remarks are cleared (a policy assigns one class per
    flow). *)

type policy =
  | Deadline_monotonic
      (** Smaller minimum deadline -> higher class (the classical DM rule,
          optimal for preemptive single resources and a strong heuristic
          here). *)
  | Rate_monotonic
      (** Smaller minimum period -> higher class. *)
  | Lightest_first
      (** Lower bandwidth (CSUM/TSUM on the first link) -> higher class:
          protects thin interactive flows from bulk ones. *)
  | Uniform of int  (** Everyone in one class (no differentiation). *)

val assign :
  ?levels:int -> policy -> Traffic.Flow.t list -> Traffic.Flow.t list
(** [assign ~levels policy flows] maps flows onto [levels] classes (2..8,
    default 8) spread over the 802.1p range, ties broken by flow id.
    Raises [Invalid_argument] if [levels] is outside 1..8. *)

val best_exhaustive :
  ?config:Config.t ->
  ?levels:int ->
  Traffic.Scenario.t ->
  (Traffic.Flow.t list * Gmf_util.Timeunit.ns) option
(** Exhaustively searches class assignments of the scenario's flows,
    each analyzed over the scenario's fabric
    ({!Traffic.Scenario.with_flows}), for one that is schedulable,
    minimizing the largest worst-frame bound; [None] when no assignment
    is schedulable.  The returned flows carry the winning priorities.
    Raises [Invalid_argument] if [levels] is outside 1..8.

    The analysis reads priorities only through each flow's hep/lp sets,
    so it analyzes one assignment per priority order: the {e dense}
    one, whose levels are exactly [0..m-1] (a weak order of n flows into
    at most [levels] classes; 4,683 of the 262,144 assignments of six
    flows to 8 levels).  Assignments are visited lazily in enumeration
    order (flow 0 varies slowest, level 0 first), and ties on the
    minimal bound resolve to the earliest, so the winner is the one a
    search of all [levels]^n assignments returns.  An assignment whose
    analysis raises is skipped, exactly as an unschedulable one is. *)
