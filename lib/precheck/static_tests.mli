(** Closed-form static tests over one scenario — no fixpoint anywhere.

    This module is the single home of the per-stage inequalities the rest
    of the tree consults: the eq-(20) link and eqs-(34)/(35) ingress
    convergence conditions (consumed by [Gmf_lint.Rules] and
    [Analysis.Conditions]), the uncontended response floor behind GMF202,
    a {e necessary} per-frame demand floor (one application of the exact
    stage recurrences at the bottom jitter state — if it already exceeds
    the deadline, the holistic analysis must reject), and a {e sufficient}
    per-frame response ceiling in the spirit of Berten & Goossens'
    non-cyclic GMF test (a linear majorant of MX/NX makes every stage
    recurrence solvable in closed form; if the ceilings meet every
    deadline of every flow of an interference component, the fixed point
    must too).  The stage recurrences themselves are {!Stage_eq}'s: the
    floors apply it and the ceiling bounds it, adding only the majorants
    and the jitter caps.  The inequalities stay here; the sums of eqs (20)
    and (34)-(35) are {!Traffic.Scenario}'s load table, summed once. *)

(** {2 Stage utilizations (eqs 20, 34-35 and the egress analogue)} *)

type overload =
  | Link_overload of { src : Network.Node.id; dst : Network.Node.id }
  | Ingress_overload of { src : Network.Node.id; node : Network.Node.id }

val route_overloads :
  Traffic.Scenario.t -> Traffic.Flow.t -> (overload * float) list
(** The stages of the flow's route that violate a necessary condition,
    with their utilization: every hop whose eq-(20) link utilization is
    at least 1, in route order, then every intermediate switch whose
    eqs-(34)/(35) ingress utilization is at least 1, in route order: a
    few lookups in the load table.  The fixpoint's per-flow gate
    ([Gmf_lint.Rules.flow_gate]) and precheck's certificates read it. *)

val egress_utilization :
  Traffic.Scenario.t -> Traffic.Flow.t -> node:Network.Node.id -> float
(** Interfering utilization at the flow's egress queue of [node]:
    CSUM/TSUM summed over the flow and hep(flow, node). *)

val stage_utilization :
  Traffic.Scenario.t -> Traffic.Flow.t -> Stage_key.t -> float
(** Dispatch on the stage kind; the ingress link is taken from the flow's
    route. *)

(** {2 Necessary tests} *)

val min_response :
  Traffic.Scenario.t -> Traffic.Flow.t -> frame:int -> Gmf_util.Timeunit.ns
(** GJ + the {!Stage_eq.uncontended} floor of every stage of the route
    (GMF202). *)

val demand_floor :
  config:Analysis_config.t ->
  Traffic.Scenario.t ->
  Traffic.Flow.t ->
  (Gmf_util.Timeunit.ns * (Stage_key.t * Gmf_util.Timeunit.ns) list) array
(** [demand_floor ~config scenario flow] is, for every frame of the flow,
    a lower bound on the frame's end-to-end holistic bound, with the
    per-stage contributions.

    Sound by construction: jitters only grow from the bottom state (source
    jitters at first links), stage responses are monotone in the jitter
    state, and each stage's fixed point dominates one application of its
    {!Stage_eq} recurrence at [q = 0, l = 0] — so GJ plus those one-shot
    applications (variant-aware: the Repaired own-rotation charges, the
    uncapped MX of repair R7) bounds the real total from below.  If the
    floor exceeds the frame's deadline, the holistic analysis cannot
    admit the flow. *)

(** {2 Sufficient test} *)

type ceiling = {
  totals : float array;
      (** Per-frame end-to-end response upper bounds, in ns. *)
  binding_frame : int;  (** Frame with the least slack. *)
  binding_stage : Stage_key.t;
      (** Largest per-stage ceiling of the binding frame. *)
  slack : float;  (** min over frames of (deadline - total), in ns. *)
  max_util : float;
      (** Largest self-inclusive stage utilization encountered. *)
}

val response_ceiling :
  config:Analysis_config.t ->
  Traffic.Scenario.t ->
  Traffic.Flow.t ->
  (ceiling, string) result
(** Closed-form per-frame response ceilings for one flow, or the reason no
    ceiling exists ([Error] — an overloaded stage, or a busy-period /
    q-count / horizon guard that cannot be discharged statically).

    Derivation: MX_j(dt) <= CSUM_j * (1 + dt/TSUM_j) and
    NX_j(dt) <= NSUM_j * (1 + dt/TSUM_j) (the window cost of eqs (10)/(12)
    never exceeds the cycle total), and every interferer's jitter is capped
    by its largest source jitter (first links, where jitters are frozen) or
    its largest deadline (assume-guarantee: valid once {e every} flow of
    the interference component is certified — see [Precheck.run], which
    only grants [Schedulable] component-wide).  Each stage's window
    recurrence then has the linear majorant w <= base + A + U * w, the
    busy-period and q/l scans are dominated in closed form, and the stage
    ceiling is (base0 + A)/(1 - U) + carry-in slack + finish terms.

    The ceilings bound the holistic fixed point whenever they all meet the
    component's deadlines, because the state that assigns every flow its
    capped jitters is then invariant under the (monotone) round function,
    squeezing the least fixed point below it. *)

val certifies :
  Traffic.Flow.t -> ceiling -> bool
(** Every frame's ceiling (rounded up to whole ns) meets its deadline. *)
