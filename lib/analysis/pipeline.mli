(** End-to-end pipeline analysis of one flow (paper Figure 6).

    For every GMF frame [k] the stages of the route are analyzed in order,
    accumulating two sums initialized to the source jitter GJ_i^k:
    [RSUM] (the end-to-end response-time bound) and [JSUM] (the generalized
    jitter handed to the next stage).  Before each stage is analyzed, the
    frame's jitter at that stage is recorded in the context's jitter state
    so other flows see it in subsequent (or later-in-round) analyses — this
    is the coupling the holistic iteration (Section 3.5) closes.  A stage
    none of whose reads moved since it last analyzed the frame answers
    with that analysis ({!Ctx.recall}); only [stage.reused] tells the
    two apart.

    The paper's Figure 6 skips the first-hop analysis for a route whose
    second node is already the destination; we analyze it (repair R5).

    Under [Config.tight_jitter] the jitter handed forward grows only by the
    stage's response-time variability (R − R_min, with R_min the
    {!Gmf_precheck.Stage_eq.uncontended} floor) rather than the full R;
    the end-to-end bound itself still sums the full stage responses. *)

val analyze_frame :
  Ctx.t ->
  flow:Traffic.Flow.t ->
  frame:int ->
  (Result_types.frame_result, Result_types.failure) result
(** Bound for one GMF frame.  Raises [Invalid_argument] on a bad index. *)

val analyze_flow :
  Ctx.t ->
  flow:Traffic.Flow.t ->
  (Result_types.flow_result, Result_types.failure) result
(** Bounds for every frame of the flow (frame 0 first).  Stops at the first
    failing frame.  {!Holistic} runs the utilization gate, not this. *)

val seed : Ctx.t -> Result_types.flow_result list -> unit
(** [seed ctx results] resets the context's jitters ({!Ctx.reset_jitters})
    and then writes, for every frame of every result, the jitters the
    pipeline walk writes: JSUM replayed over the frame's recorded stage
    responses, with the same growth rule (tight jitter included).  The
    last round of a run writes exactly its results' stage responses, so
    seeding from the report of a converged run, or of one that stopped at
    the round cap, rebuilds the jitters the run left.  Flows without a
    result keep their source jitters.  Every result must be of a flow of
    the context's scenario. *)
