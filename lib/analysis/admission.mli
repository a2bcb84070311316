(** Admission control (paper Section 3.5, last paragraph).

    A network operator asked to carry a new flow re-runs the holistic
    analysis on the extended flow set and admits the flow only if every
    flow — old and new — still meets every deadline.  Rejection therefore
    protects the already-admitted flows. *)

type decision = {
  admitted : bool;
  report : Holistic.report;
      (** The analysis of the extended flow set (for an [admit] call) or of
          the scenario as-is (for [check]).  When the lint pre-pass found
          errors the verdict is [Analysis_failed] with one synthetic
          failure per lint error and [rounds = 0] — the holistic fixpoint
          was never entered. *)
  diagnostics : Gmf_diag.t list;
      (** Every diagnostic of the [Gmf_lint] pre-pass, errors and
          non-fatal warnings/hints alike. *)
}

val check : ?config:Config.t -> Traffic.Scenario.t -> decision
(** [check scenario] runs the [Gmf_lint] pre-pass, rejects immediately on
    any lint error (no fixpoint is executed), and otherwise verifies the
    scenario's flow set with the precheck-guided {!Sharded} analysis:
    statically decided flows skip the fixpoint, undecided interference
    components run independent fixpoints.  The precheck's own
    diagnostics (GMF018 certificates, GMF019 component-size warnings)
    are appended to the lint diagnostics. *)

val admit :
  ?config:Config.t ->
  Traffic.Scenario.t ->
  candidate:Traffic.Flow.t ->
  decision
(** [admit scenario ~candidate] tests the scenario with [candidate] added
    ({!Traffic.Scenario.with_flows}: same topology and declared switch
    models).  The scenario itself is not modified; the caller rebuilds it on
    acceptance.  A candidate whose id collides with an admitted flow is
    {e rejected} with a [GMF014] diagnostic ([rounds = 0], no fixpoint) —
    mirroring the lint pre-pass rather than raising. *)

val duplicate_id_diag :
  candidate:Traffic.Flow.t -> existing:Traffic.Flow.t -> Gmf_diag.t
(** The [GMF014] error of a candidate whose id is already admitted as
    [existing] — shared with [Gmf_admctl] so a session's duplicate
    rejection reads like {!admit}'s. *)

val rejected : Gmf_diag.t list -> Holistic.report
(** The report of a rejection that never entered the fixpoint: an
    [Analysis_failed] verdict with one synthetic failure per error, zero
    rounds and no results.  A failure names the flow (and frame) of a
    flow or frame subject, and carries [flow_id = -1] for any other
    subject.  The one builder of rejection reports: {!check},
    {!admit}, [Delta]'s lint gate and every [Gmf_admctl] session
    rejection use it, so they render alike. *)

val greedily :
  topo:Network.Topology.t ->
  try_add:
    (Traffic.Scenario.t ->
    Traffic.Flow.t ->
    (Traffic.Flow.t * Traffic.Scenario.t) option) ->
  Traffic.Flow.t list ->
  Traffic.Flow.t list * Traffic.Flow.t list
(** The loop of every [admit_greedily]: from the empty scenario over
    [topo], [try_add accepted candidate] returns the flow to admit and the
    scenario holding it, or [None] to reject.  Returns (admitted,
    rejected), each in candidate order. *)

val admit_greedily :
  ?config:Config.t ->
  topo:Network.Topology.t ->
  Traffic.Flow.t list ->
  Traffic.Flow.t list * Traffic.Flow.t list
(** [admit_greedily ~topo candidates] processes candidates in
    order, keeping each flow whose addition leaves the set schedulable.
    Returns (admitted, rejected).  This is the acceptance-ratio engine of
    experiment E4. *)
