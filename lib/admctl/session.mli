(** Long-lived admission-control sessions with incremental holistic
    fixpoints (paper Section 3.5, run as a service).

    A session owns the currently-admitted flow set and its last
    committed report, kept together as one {!Analysis.Delta.base}; the
    report's stage responses fix the committed jitters, so no jitter
    state is kept beside it.  Every event that runs a
    fixpoint — admit, remove, update, each attempt of a link failure —
    hands its tentative flow set to {!Analysis.Delta.analyze} against
    that base: only the edit's interference closure is re-analyzed, and
    every flow outside it carries its committed bounds over unrecomputed.

    - {e admit}: a pure-growth edit.  Jitters grow monotonically when
      flows are added, so the committed fixed point sits below the new
      one and the closure, warm-started from the committed results of
      its flows ({!Analysis.Holistic.run_from}), converges to the
      {e same} verdict and bounds as a cold {!Analysis.Holistic.analyze},
      in at most as many rounds;
    - {e remove}/{e update}/{e fail}: shrinking or mixed edits, whose
      closure restarts from source jitters.

    An event counts [Warm] when committed state was actually reused
    (flows certified untouched, or a warm-seeded admit); an edit whose
    closure swallows the whole set restarts from source jitters and
    counts [Cold], as does the engine's cold fallback, which a
    non-converged committed report forces.  The cold cross-check is
    [shadow:true] (below): it re-runs {!Analysis.Holistic.analyze} on
    every fixpoint event and compares.

    Candidate flows are lint-gated ({!Gmf_lint}) before any fixpoint runs;
    a lint error rejects with [rounds = 0] exactly like
    [Analysis.Admission].  Rejected events leave the session untouched.
    The session keeps one {!Gmf_precheck.Reuse} table per gate, passes
    it to every run of that gate and trims it to that run's entries
    afterwards, so both gates recompute only the flows and interference
    components that miss the table's key (docs/ADMCTL.md, "Gate
    reuse").

    Telemetry: every event bumps [admctl.events], a per-kind span and an
    [admctl.latency_ns.<kind>] histogram sample on the default
    registry/tracer; warm starts bump [admctl.warm_hits], cold resets
    [admctl.cold_resets], and shadow mode accumulates
    [admctl.rounds_saved]. *)

type t

type event =
  | Admit of Traffic.Flow.t
      (** Reject on duplicate id ([GMF014]), lint error, or an
          unschedulable extended set; commit otherwise. *)
  | Remove of Traffic.Flow.id
      (** Reject on unknown id ([GMF015]); always commits otherwise (the
          flow departs regardless of the refreshed verdict). *)
  | Update of Traffic.Flow.t
      (** Replace the flow with the same id atomically; reject (keeping
          the old flow) on unknown id, lint error or an unschedulable
          result. *)
  | Query  (** Report the committed verdict; never runs a fixpoint. *)
  | Fail_link of Network.Node.id * Network.Node.id
      (** Both directions of the (undirected) pair go down.  Commits like
          a removal — the outage happened regardless of the verdict.
          The degraded set runs through {!Gmf_faults.Survive.degrade},
          the loop a survive case uses, with the unaffected flows
          pinned: flows routed over the pair move to their first route
          around {e every} currently-failed link, are shed when none
          exists, then are shed greedily in
          {!Gmf_faults.Survive.shed_order} until the degraded set is
          schedulable.  Each attempt is a lint check, then an
          {!Analysis.Delta} run against the committed pre-failure
          fixpoint: flows outside the affected set's interference
          closure keep their bounds.  Rejects ([GMF016], session
          untouched) an unknown or already-failed pair. *)
  | Restore_link of Network.Node.id * Network.Node.id
      (** Marks the pair up again so later events may route over it.
          Flows stay on their degraded routes (the committed fixpoint
          stays valid, no re-analysis); re-admit or update them to move
          back.  Rejects ([GMF016]) a pair that is not failed. *)

type start_kind =
  | Warm
      (** Committed state was reused: the fixpoint was seeded from the
          committed results, or the delta engine certified flows
          untouched and carried their bounds over. *)
  | Cold  (** Fixpoint from the all-zero state, as a batch run. *)
  | Skipped  (** No fixpoint ran (query, duplicate, lint rejection). *)

type shadow_result = {
  cold_rounds : int;  (** Rounds of the cold reference run. *)
  equivalent : bool;
      (** Whether warm and cold agreed on verdict and per-frame bounds
          (verdict constructor only for non-converged outcomes). *)
}

type degradation = {
  rerouted : Traffic.Flow.t list;
      (** Affected flows that survived on an alternate route (carrying
          their new routes), in the order they were rerouted. *)
  shed : Traffic.Flow.t list;
      (** Affected flows dropped from the admitted set: first those with
          no alternate route, then greedy sheds in policy order. *)
}

type outcome = {
  seq : int;  (** 1-based event number within the session. *)
  label : string;  (** e.g. ["admit voip0"], ["remove #3"]. *)
  accepted : bool;
  verdict : Analysis.Holistic.verdict;
  rounds : int;  (** Holistic rounds this event executed (0 if none). *)
  start : start_kind;
  flow_count : int;  (** Admitted flows {e after} the event. *)
  diagnostics : Gmf_diag.t list;  (** Lint pre-pass + session errors. *)
  shadow : shadow_result option;  (** Present in shadow sessions only. *)
  degradation : degradation option;
      (** Present on accepted [Fail_link]/[Restore_link] events only. *)
  explain : Gmf_explain.Attribution.summary option;
      (** Explain sessions only: the worst (smallest-slack) frame of this
          event's fixpoint run and what binds it, attributed on the live
          context before commit.  [None] when no fixpoint ran. *)
}

type summary = {
  events : int;
  admitted : int;  (** Events that were accepted. *)
  rejected : int;
  warm_hits : int;
  cold_resets : int;
  rounds_total : int;
  rounds_saved : int;
      (** Shadow sessions: sum over events of
          [max 0 (cold rounds - warm rounds)]; 0 otherwise. *)
  flow_count : int;
}

val create :
  ?config:Analysis.Config.t ->
  ?shadow:bool ->
  ?explain:bool ->
  ?survivable:int ->
  ?switches:(Network.Node.id * Click.Switch_model.t) list ->
  topo:Network.Topology.t ->
  unit ->
  t
(** An empty session over a fixed topology.  [shadow:true] additionally
    runs the cold analysis after every fixpoint event and records the
    comparison in {!outcome.shadow} (the session's own result stays
    authoritative).
    [explain:true] attributes every fixpoint run and attaches the
    worst-frame {!Gmf_explain.Attribution.summary} to the outcome.

    [survivable:k] arms the survivable-admission gate: an admit or
    update whose tentative set is schedulable is additionally swept with
    {!Gmf_faults.Survive.admission_gate} and rejected with a [GMF017]
    diagnostic when the candidate flow would be shed under some
    [<= k]-component failure.  Raises [Invalid_argument] when
    [k < 0]. *)

val apply : t -> event -> outcome
(** Process one event.  Never raises on user-level problems (duplicate or
    unknown ids, lint errors, unschedulable sets) — those reject with
    diagnostics.  [Invalid_argument] still escapes for caller bugs, e.g. a
    flow routed over a different topology. *)

val flows : t -> Traffic.Flow.t list
(** The admitted set, in id order. *)

val flow_count : t -> int

val report : t -> Analysis.Holistic.report
(** The last committed report (of the current admitted set). *)

val failed_links : t -> (Network.Node.id * Network.Node.id) list
(** Currently-failed undirected pairs (smaller id first), oldest first. *)

val precheck_entries : t -> int
(** Entries of the session's precheck table: one per interference
    component of the latest precheck run, whatever ran before it. *)

val summary : t -> summary

val fingerprint : t -> string
(** Hex digest of the observable session state: admitted flows (ids,
    names, priorities, routes, specs, remarks), failed link pairs, the
    committed verdict and the event counters.  Deterministic — two
    sessions that processed the same event sequence over the same
    topology fingerprint identically, whatever mix of warm starts,
    process restarts or journal replays produced them.  The committed
    bounds are deliberately excluded (how they were reached is an
    implementation detail warm/cold equivalence already guards). *)

val pp_start : Format.formatter -> start_kind -> unit
(** ["warm"], ["cold"], ["-"]. *)
