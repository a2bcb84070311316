(** Nearest-feasible hints for a rejected flow.

    When a scenario is unschedulable, "no" is a poor answer for an
    operator: these probes find the smallest change {e to one flow} that
    admits the set, reusing the {!Analysis.Sensitivity} bisection (and its
    {!Analysis.Case} memo, so repeated probes are cheap). *)

type hint =
  | Payload_scale of float
      (** Scaling the flow's payloads by this factor (< 1) admits the set. *)
  | Priority of int
      (** Moving the flow to this 802.1p class admits the set. *)

val describe : hint -> string
(** One operator-facing sentence, e.g.
    ["scale the flow's payloads by 0.438"]. *)

val for_flow :
  ?config:Analysis.Config.t ->
  Traffic.Scenario.t ->
  flow_id:Traffic.Flow.id ->
  unit ->
  hint list
(** [for_flow scenario ~flow_id ()] probes payload scale (bisection over
    (0, 1], 1% resolution) and every other 802.1p class for the flow,
    returning every hint whose probe admits the scenario — empty when
    nothing short of removal helps.  Deterministic; runs a bounded number
    of holistic analyses (~10 for the bisection + at most 7 priority
    probes).  Raises [Invalid_argument] on an unknown id. *)
