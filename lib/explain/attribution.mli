(** Exact decomposition of every end-to-end response-time bound.

    Every stage bound of the analysis is [R = w - sep + tail], where the
    queuing window [w] converged on a recurrence that is a {e sum} of
    closed-form terms: the flow's own carried-in work, per-interferer MX
    (link time) and NX·CIRC (switch software) demands, plus constant
    transmission/blocking terms.  The terms are those of the stage's
    {!Gmf_precheck.Stage_eq} description, the one the fixpoint iterates;
    {!Analysis.Stage_common.analyze} records the winning busy-period
    shape [(q, l)] and its converged window as a witness in
    {!Analysis.Result_types.stage_response}, and this module evaluates
    the description's parts at that witness, so they sum to the stage
    response {e exactly} (property-tested), and the per-frame total
    equals source jitter + the sum of hop responses.

    Validity: the decomposition is exact when the report's jitter state is
    a fixed point ([Schedulable] or [Deadline_miss] verdicts) and the
    attribution is computed on the {e same} context, before further runs
    mutate its jitters.  [hop_residual] is the difference between the
    stage response and the summed parts — 0 at a fixed point, nonzero
    (rather than silently wrong) on a non-converged report. *)

(** One interfering flow's charge at one hop.  [if_link] is the MX link-time
    demand, [if_cpu] the NX·CIRC switch-software demand ([if_frames] is that
    NX count); each is 0 at stages where the recurrence has no such term. *)
type interferer = {
  if_id : Traffic.Flow.id;
  if_name : string;
  if_pattern : string;  (** Frame-pattern summary, e.g. ["3 frames / 99ms cycle"]. *)
  if_frames : int;
  if_link : Gmf_util.Timeunit.ns;
  if_cpu : Gmf_util.Timeunit.ns;
}

val if_total : interferer -> Gmf_util.Timeunit.ns
(** [if_link + if_cpu]: the interferer's total charge at the hop. *)

type hop = {
  hop_stage : Analysis.Stage.t;
  hop_response : Gmf_util.Timeunit.ns;  (** The stage bound being decomposed. *)
  hop_min_response : Gmf_util.Timeunit.ns;
      (** Uncontended floor ({!Gmf_precheck.Stage_eq.uncontended}). *)
  hop_transmission : Gmf_util.Timeunit.ns;
      (** Own frame's transmission + propagation (link stages; 0 at ingress). *)
  hop_software : Gmf_util.Timeunit.ns;
      (** Own switch-software rotations: the final CIRC dequeue at ingress,
          the flow's own rotation charge at egress (Repaired variant). *)
  hop_blocking : Gmf_util.Timeunit.ns;
      (** Lower-priority blocking — the MFT term of the egress recurrence. *)
  hop_own_carry : Gmf_util.Timeunit.ns;
      (** Own earlier frames' work carried into the busy period, minus the
          separation credit (q·TSUM + predecessor periods); may be
          negative — it is a net term, not a duration. *)
  hop_interference : interferer list;  (** Descending {!if_total}. *)
  hop_q : int;  (** Witness busy-period shape: whole own cycles. *)
  hop_l : int;  (** Witness: own predecessor frames (repair R8). *)
  hop_window : Gmf_util.Timeunit.ns;  (** Witness converged window w. *)
  hop_residual : Gmf_util.Timeunit.ns;
      (** [hop_response] − sum of all parts; 0 at a jitter fixed point. *)
}

type frame_attr = {
  fa_frame : int;
  fa_jitter : Gmf_util.Timeunit.ns;  (** Source release jitter GJ_i^k. *)
  fa_hops : hop list;  (** Route traversal order. *)
  fa_total : Gmf_util.Timeunit.ns;  (** = [fa_jitter] + Σ hop responses. *)
  fa_deadline : Gmf_util.Timeunit.ns;
}

type flow_attr = {
  af_flow : Traffic.Flow.t;
  af_frames : frame_attr list;  (** Frame 0 first. *)
}

type t = {
  verdict : Analysis.Holistic.verdict;
  rounds : int;
  flows : flow_attr list;
}

val slack : frame_attr -> Gmf_util.Timeunit.ns
(** [fa_deadline - fa_total]; negative on a miss. *)

val of_report :
  ?config:Analysis.Config.t ->
  Traffic.Scenario.t ->
  Analysis.Holistic.report ->
  t
(** [of_report scenario report] decomposes every bound of [report], an
    analysis of [scenario], against the jitters the report's own stage
    responses fix ({!Analysis.Pipeline.seed}) — e.g. an incremental run's
    merged report ({!Analysis.Delta.result}), whose own context covered
    only part of the flows.  For a converged report these are the jitters
    of its fixed point. *)

val analyze : ?config:Analysis.Config.t -> Traffic.Scenario.t -> t * Analysis.Holistic.report
(** One-shot convenience: run the holistic analysis and attribute it. *)

val frame_exact : frame_attr -> bool
(** True iff the frame's decomposition is exact: jitter + hop responses sum
    to the total and every hop residual is 0. *)

val worst_frame : flow_attr -> frame_attr
(** Smallest slack.  Raises [Invalid_argument] on an empty frame list. *)

val binding_hop : frame_attr -> hop option
(** The hop contributing the largest stage response. *)

val interferer_shares :
  frame_attr -> (Traffic.Flow.id * string * Gmf_util.Timeunit.ns) list
(** Each interfering flow's total charge summed across the frame's hops,
    descending. *)

val binding_interferer :
  frame_attr -> (Traffic.Flow.id * string * Gmf_util.Timeunit.ns) option
(** Head of {!interferer_shares}; [None] when the frame suffers no
    (nonzero) interference. *)

(** Compact record for session outcomes and one-line renderings: the
    scenario's worst (smallest-slack) frame and what binds it. *)
type summary = {
  s_flow_id : Traffic.Flow.id;
  s_flow : string;
  s_frame : int;
  s_total : Gmf_util.Timeunit.ns;
  s_deadline : Gmf_util.Timeunit.ns;
  s_slack : Gmf_util.Timeunit.ns;
  s_hop : string;  (** Binding hop, rendered ("out(4->6)"); "-" if none. *)
  s_interferer : (Traffic.Flow.id * string * Gmf_util.Timeunit.ns) option;
      (** Binding interferer of that frame with its total charge. *)
}

val summarize : t -> summary option
(** [None] when the attribution holds no flows (e.g. lint-rejected). *)
