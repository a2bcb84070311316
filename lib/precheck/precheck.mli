(** Static schedulability pre-analysis: certified three-valued verdicts
    per flow, before (and often instead of) the holistic fixpoint.

    The pass builds the interference index ({!Igraph}) over the
    scenario's flows, then runs the necessary and sufficient tests of
    {!Static_tests} on each component's member records:

    - a {e necessary} test that fails yields [Infeasible cert] — the
      holistic analysis provably rejects the flow (overloaded eq-(20)
      link or eqs-(34)/(35) ingress on its route, or a demand floor above
      a deadline);
    - the {e sufficient} one-shot ceiling, granted only when every flow
      of the interference component passes it, yields [Schedulable cert]
      with per-frame certified bounds — the holistic fixed point provably
      meets every deadline;
    - everything else is [Needs_fixpoint], naming the component to run
      (independently of all other components).

    A run given a {!Reuse} table tests only the components the table
    does not already hold under its key, and returns the same report.

    Verdict lattice and certificate format are documented in
    [docs/PRECHECK.md]. *)

type inequality =
  | Eq20_link_overload of { src : int; dst : int }
  | Eq34_35_ingress_overload of { src : int; node : int }
  | Demand_floor of { frame : int; stage : Stage_key.t }
  | One_shot_bound of { frame : int; stage : Stage_key.t }

type certificate = {
  inequality : inequality;
      (** Which inequality decided, and at which binding node/stage. *)
  value : float;  (** Left side (utilization, or a bound in ns). *)
  limit : float;  (** Right side (1, or the frame's deadline in ns). *)
  slack : float;  (** [limit - value]: negative iff violated. *)
}

type verdict =
  | Infeasible of certificate
  | Schedulable of certificate
  | Needs_fixpoint of { reason : string }

type flow_verdict = {
  flow_id : Traffic.Flow.id;
  flow_name : string;
  component : int;
  verdict : verdict;
  ceilings : Gmf_util.Timeunit.ns array option;
      (** Certified per-frame end-to-end bounds when [Schedulable]. *)
}

type report = {
  stats : Igraph.stats;
  components : Igraph.component list;
  verdicts : flow_verdict list;  (** In flow-id order. *)
}

type outcome = verdict * Gmf_util.Timeunit.ns array option
(** A flow's verdict and ceilings: what a {!Reuse} table keeps, one per
    member, for a component. *)

val run :
  ?config:Analysis_config.t ->
  ?table:outcome list Reuse.t ->
  Traffic.Scenario.t ->
  report
(** Runs the whole pass (no fixpoint; polynomial in flows x route length).
    With [table], a component whose members meet {!Reuse}'s key takes
    their outcomes from it, and a component that misses is tested and
    added under its member ids; the report is the same as without
    [table].  Bumps the [precheck.*] counters/gauges (among them
    [precheck.components_reused], the components read from [table]) and
    traces a [precheck.run] span. *)

val infeasible : report -> flow_verdict list
val certified : report -> flow_verdict list

val decided : report -> int
(** Flows not needing any fixpoint (infeasible + certified). *)

val verdict_of : report -> Traffic.Flow.id -> verdict
(** Raises [Invalid_argument] on an unknown flow id. *)

val undecided_components : report -> Igraph.component list
(** Components holding at least one [Needs_fixpoint] flow, by [cid]. *)

val default_max_component : int
(** Component-size bound above which GMF019 warns (64). *)

val diagnostics : ?max_component:int -> report -> Gmf_diag.t list
(** GMF018 errors for infeasible flows (certificate in the message) and
    GMF019 warnings for components larger than [max_component], sorted by
    code then message. *)

val pp_certificate : Format.formatter -> certificate -> unit
val pp_verdict : Format.formatter -> verdict -> unit

val pp : Format.formatter -> report -> unit
(** Component / verdict / certificate table (the [gmfnet precheck]
    rendering). *)

val to_json : report -> string
(** Deterministic JSON rendering (golden-diffed in CI).  This and {!pp}
    count the graph's edges ({!Igraph.edges}); {!run} does not. *)
