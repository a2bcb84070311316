(** Sporadic-model baseline: the analysis the paper improves upon.

    Classical holistic schedulability analysis (Tindell & Clark, which the
    paper cites as the state of the art) characterizes each flow as a
    sporadic task: a {e single} worst-case packet re-released at the
    {e smallest} inter-arrival distance.  A GMF flow is collapsed to

    - payload = max_k S_i^k,
    - period = min_k T_i^k  (positive entries only — a GMF cycle may
      contain zero separations, which a sporadic model cannot express at
      all; those collapse to the smallest positive separation),
    - deadline = min_k D_i^k,
    - jitter = max_k GJ_i^k,

    and analyzed with exactly the same multihop pipeline.  The baseline is
    sound but pessimistic: experiment E4 measures how many fewer flows it
    admits than the GMF analysis. *)

val convert_spec : Gmf.Spec.t -> Gmf.Spec.t
(** The degenerate one-frame spec described above.
    Raises [Invalid_argument] if the spec has no positive period (cannot
    happen for specs accepted by [Gmf.Spec.make]). *)

val convert_flow : Traffic.Flow.t -> Traffic.Flow.t
(** Same flow with the converted spec. *)

val convert_scenario : Traffic.Scenario.t -> Traffic.Scenario.t
(** Every flow converted ({!Traffic.Scenario.map_flows}: same topology
    and declared switch models). *)

val analyze :
  ?config:Analysis.Config.t -> Traffic.Scenario.t -> Analysis.Holistic.report
(** Holistic analysis of the converted scenario. *)

val check : ?config:Analysis.Config.t -> Traffic.Scenario.t ->
  Analysis.Admission.decision
(** Admission check under the sporadic model. *)

val admit_greedily :
  ?config:Analysis.Config.t ->
  topo:Network.Topology.t ->
  Traffic.Flow.t list ->
  Traffic.Flow.t list * Traffic.Flow.t list
(** Greedy admission (as [Analysis.Admission.admit_greedily]) but deciding
    with the sporadic-model analysis.  Returns the {e original} flows
    partitioned into (admitted, rejected). *)
