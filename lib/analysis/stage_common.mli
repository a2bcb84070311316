(** Evaluates any stage of a flow's route: the busy-period → Q →
    per-instance-queuing-time → max-response scan that eqs (14)–(19),
    (21)–(26) and (28)–(33) all instantiate.  The equations themselves
    live in one place, {!Gmf_precheck.Stage_eq}; this module iterates
    them against the context's jitter state.

    On top of the paper's scan over cycle instances [q], the [Repaired]
    variant also scans the busy-period start position [l] = number of the
    analyzed flow's own frames released (at minimum separation) before the
    analyzed instance — repair R8, closing the own-flow carry-in soundness
    hole of the paper's equations (experiment E18).  Under [Faithful], [l]
    is always 0 as the paper writes it. *)

val analyze :
  Ctx.t ->
  Ctx.node ->
  frame:int ->
  (Result_types.stage_response, Result_types.failure) result
(** [analyze ctx node ~frame] takes the node's
    {!Gmf_precheck.Stage_eq.t} of [frame] ({!Ctx.describe}), then:

    + iterates the busy period from its seed to its length [t];
    + [Q = max 1 (ceil (t / TSUM_i))], capped by the configuration;
    + for every (q, l) pair, iterates the window from its base to [w(q,l)];
    + returns the largest response over (q, l), with the winning shape
      and its window as the witness.

    Any divergence is reported as a [failure] naming the stage.  Raises
    [Invalid_argument] if [frame] is out of range. *)
