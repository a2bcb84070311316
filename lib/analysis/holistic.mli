(** Holistic fixed-point over mutually-interfering flows (paper Section 3.5,
    after Tindell & Clark).

    Only source jitters are known a priori.  Starting from zero jitter at
    every non-source stage, each round runs the pipeline analysis of every
    flow; the per-stage jitters computed in one round are the [extra] terms
    of the next.  Jitters grow monotonically, so the iteration either
    reaches a fixed point (the bounds are then valid) or keeps growing —
    divergence, reported as unschedulable (repair R6).

    A round without failures writes every (flow, frame, stage) jitter
    exactly once, since a route repeats no node.  So the round is quiet —
    the fixed point is reached — exactly when none of its writes changed
    a value ({!Ctx.writes} did not move); a round with failures ends the
    run before that test.

    Each flow meets the utilization gate ([Gmf_lint.Rules.flow_gate])
    once, before round 1: a flow that fails it is not analyzed, and
    round 1 lists its diagnostic among the failures, in flow order.

    Within a run a stage is re-evaluated only when its inputs moved: the
    context keeps one node per (flow, stage) with the last evaluation of
    each frame, and the pipeline reuses it while no flow the stage charges
    has changed its [extra] there since ({!Ctx.recall}).  A stage analysis
    reads the jitter state through those extras only, so the reused
    evaluation is the one a re-run would compute: every round's jitter
    state, the round count, the observer's deltas, the verdict and the
    bounds are those of re-running every stage.  Only the work counters
    ([fixpoint.calls], [stage.reused]) see the difference. *)

type verdict =
  | Schedulable
  | Deadline_miss of Result_types.failure list
      (** Fixed point reached but some frame's bound exceeds its deadline. *)
  | Analysis_failed of Result_types.failure list
      (** A stage diverged or a cap was hit. *)
  | No_fixed_point of int
      (** Jitters still changing after the configured number of rounds. *)

type report = {
  verdict : verdict;
  rounds : int;  (** Holistic rounds actually executed. *)
  results : Result_types.flow_result list;
      (** Per-flow bounds from the last completed round (valid only when
          [verdict = Schedulable] or [Deadline_miss _]). *)
}

(** {2 Convergence observation}

    One record per holistic round, handed to the installed observer right
    after the round's pipeline pass: which flows' jitter entries moved and
    by how much.  {!Gmf_explain.Convergence} builds its per-round telemetry
    on this. *)
type round_observation = {
  obs_round : int;  (** 1-based round number within one run. *)
  obs_flow_deltas : (Traffic.Flow.id * Gmf_util.Timeunit.ns) list;
      (** {!Ctx.flow_deltas} of the round: every flow holding a non-zero
          jitter before or after it, with its largest per-entry change
          (0 = stable). *)
  obs_max_delta : Gmf_util.Timeunit.ns;  (** Max over [obs_flow_deltas]. *)
}

val set_round_observer : (round_observation -> unit) option -> unit
(** Installs (or clears, with [None]) the process-wide per-round observer.
    Fires on every round of every run — including nested warm-started runs —
    regardless of the metrics registry's enabled flag.  Callers should
    restore the previous value when done ([Fun.protect]). *)

val run : Ctx.t -> report
(** [run ctx] executes the holistic iteration on the context's scenario,
    resetting the jitter state first. *)

val run_from : Ctx.t -> init:Result_types.flow_result list -> report
(** [run_from ctx ~init] warm-starts the iteration from the jitters the
    results [init] fix ({!Pipeline.seed}: JSUM replayed over each
    result's stage responses, source jitters for flows without a result)
    instead of the bottom state.

    Soundness: one holistic round is a monotone function [F] of the jitter
    state, and {!run} computes the least fixed point [lfp F] from the
    bottom state [b] (source jitters only).  For any [init] whose jitters
    [s] satisfy [b <= s <= lfp F], the squeeze [F^n b <= F^n s <= lfp F]
    shows the warm iteration converges to the {e same} fixed point —
    identical verdicts and bounds, in at most as many rounds.  The
    converged results of a {e subset} of the scenario's flows qualify:
    adding flows only adds interference, so the old fixed point sits
    below the new one.  Results from a {e larger} or parameter-changed
    flow set do not qualify — callers must drop the results of every flow
    whose fixed point may have shrunk or fall back to {!run}.  Seeding
    from the report of a converged run of the same scenario takes one
    round and returns an equal report. *)

val analyze : ?config:Config.t -> Traffic.Scenario.t -> report
(** One-shot convenience: build a context and {!run}. *)

val deadline_misses : Result_types.flow_result list -> Result_types.failure list
(** The per-frame deadline violations of a result set, in result order —
    exactly the list a [Deadline_miss] verdict carries. *)

val merge : Traffic.Flow.t list -> report list -> report
(** [merge flows parts] combines partial reports over disjoint flow sets
    (interference components, a delta closure and the results it left
    untouched, precheck certificates) into one report over [flows]:

    - results in [flows] order, each the very record of the part that
      holds it (a later part wins a duplicate id);
    - [rounds] the maximum over the parts;
    - the verdict: the parts' [Analysis_failed] failures, concatenated
      in part order and stable-sorted by flow position in [flows], ids
      not in [flows] (exec failures carry [-1]) last; failing that, the
      largest [No_fixed_point]; failing that, {!deadline_misses} over
      the merged results.  A part's [Schedulable] and [Deadline_miss]
      verdicts are not read, and an [Analysis_failed []] part adds no
      failure.

    {!Sharded} and {!Delta} build every merged report with it. *)

val is_schedulable : report -> bool

val converged : verdict -> bool
(** Whether the iteration reached a fixed point ([Schedulable] or
    [Deadline_miss]): only then are the bounds and the jitter state
    valid, e.g. as a warm-start or delta base. *)

val verdict_tag : verdict -> string
(** ["schedulable"], ["deadline-miss"], ["analysis-failed"],
    ["no-fixed-point"] — constructor only, stable for goldens and JSON. *)

val pp_verdict : Format.formatter -> verdict -> unit
val pp : Format.formatter -> report -> unit
