(** Incremental ("delta") re-analysis against a converged base fixpoint.

    Every what-if driver in the system — the k-failure survivability
    sweep, the admission session's admit/remove/update/fail events, the
    daemon workers behind them — evaluates scenarios that differ from an
    already-analyzed base by a handful of flows (a reroute, a shed, an
    update).  Each driver knows its {!edit}: the ids it drops and the
    records it adds or replaces.  This module re-runs the holistic
    fixpoint only over the edit's {e interference closure} and certifies
    every other flow as provably untouched:

    + {b Edit.}  The target is the base minus [removed] plus [put], over
      the base's topology and switch models by construction.  Every put
      record counts as changed; a caller that may put a record equal to
      the base's (a session update) leaves it out of [put].
    + {b Closure.}  Two flows interfere only where their routes share a
      node (exactly an {!Gmf_precheck.Igraph} edge), so the edit's blast
      radius is the node-sharing transitive closure of its seeds — the
      old and new versions of every edited flow — over the {e union} of
      base and target flow sets.  The base's interference index
      ({!Gmf_precheck.Igraph.build} over the base flows, the same
      union-find precheck and {!Sharded} read) is built once per base,
      at the first edit; the closure is the put records plus the
      surviving members of every base component that a seed's old or
      new route touches ({!Gmf_precheck.Igraph.node_component}).  That is the union-find closure
      of the union: a base component joins a seed only through a seed,
      since every record the base lacks is one.  The target flows inside
      the closure form a union of complete interference components of
      the target.
    + {b Fixpoint.}  Only the closure is built as a scenario (the
      restriction, {!Traffic.Scenario.with_flows} of the base with the
      base's params pool) and re-analyzed; the whole target is never
      materialized, except on the cold fallback and for the lint gate of
      a base that does not lint clean.  A pure-growth edit (flows added,
      none removed or changed) warm-starts from the base results of the
      closure flows, which fix their converged jitters: the base fixed
      point sits below the new one, so the monotone squeeze of
      {!Holistic.run_from} converges to the same least fixed point from
      below.  Any shrinking or mixed edit restarts the closure from
      source jitters — iterating down from a stale state is {e not}
      guaranteed to reach the least fixed point, so soundness-ambiguous
      seeds are never used.
    + {b Certificate.}  Flows outside the closure keep their base
      results — the very same report records, never recomputed (the
      tests check physical equality) — and are listed in
      [d_untouched].  Their interference components are structurally
      unchanged, so their least fixed point is unchanged.

    The merged report is {!Holistic.merge} of the base results outside
    the closure and the closure run's report.

    Each base owns a {!Traffic.Scenario.params_pool}: every restriction
    and target built against it shares its link parameters, so a
    (flow, hop) that recurs across edits (a survive sweep's reroute) is
    built once per base.  It also owns two {!Gmf_precheck.Reuse} tables,
    one of precheck verdicts and one of component fixpoint reports,
    which every [~precheck] closure restart and cold fallback passes
    through {!Sharded.analyze}: a component that recurs across edits
    under the tables' key (a survive sweep's degraded tile) is
    prechecked once and fixpointed once per base.

    Telemetry: [delta.runs], [delta.closure_flows], [delta.flows_skipped],
    [delta.rounds_saved] (estimate: base rounds minus closure rounds) and
    [delta.cold_fallbacks] in the default registry. *)

type base
(** A converged base fixpoint: scenario, config and report.  The report
    is the whole fixpoint: its stage responses fix the converged jitters
    ({!Pipeline.seed}).  It also owns the base's interference index
    and name index (built at the first edit that needs them), the
    params pool of the scenarios derived from it and the precheck and
    report tables of its closure restarts; all live as long as the
    base. *)

type edit = {
  removed : Traffic.Flow.id list;  (** Base flows the target drops. *)
  put : Traffic.Flow.t list;
      (** Flows the target adds, and new versions of base flows (matched
          by id), each taken as changed. *)
}

val make_base :
  config:Config.t ->
  scenario:Traffic.Scenario.t ->
  report:Holistic.report ->
  unit ->
  base
(** Wrap an already-computed fixpoint (e.g. an admission session's
    committed report) as a delta base, at no analysis cost.  [report]
    must be the analysis of [scenario] under [config] with exact bounds
    (not precheck ceilings); a non-converged [report]
    ([Analysis_failed] / [No_fixed_point]) yields a base every
    {!analyze} call falls back cold from.  The base scenario is taken to
    pass the lint error gate ({!Gmf_lint.Lint.gate}), which lets
    [analyze ~lint:true] run the component-local error rules on the
    closure restriction only. *)

val compute_base : ?config:Config.t -> Traffic.Scenario.t -> base
(** Cold-analyze [scenario] ({!Holistic.run}) and wrap the result; also
    records whether the scenario passes {!Gmf_lint.Lint.gate}. *)

val target : base -> edit -> Traffic.Scenario.t
(** The edited scenario in full, derived from the base scenario with the
    base's params pool: what a caller that lints or commits the whole
    target (a session) builds. *)

val base_scenario : base -> Traffic.Scenario.t
val base_report : base -> Holistic.report
val base_ok : base -> bool
(** Whether the base converged — [false] means every {!analyze} against
    it falls back cold. *)

type stats = {
  total_flows : int;  (** Flows in the target scenario. *)
  closure_flows : int;  (** Target flows the fixpoint re-ran over. *)
  skipped_flows : int;  (** Certified untouched, results carried over. *)
  rounds : int;  (** Holistic rounds actually spent on the closure. *)
  rounds_saved : int;
      (** Estimate of avoided work: base rounds minus closure rounds
          (never negative, 0 on a cold fallback). *)
  cold_fallback : bool;
      (** The base did not converge, so the target was analyzed cold. *)
  warm_seeded : bool;
      (** Pure-growth edit: the closure fixpoint started from the base
          results of its flows instead of source jitters. *)
}

type result = {
  d_report : Holistic.report;
      (** Merged report over the full target flow set, results in
          scenario flow order — untouched flows carry their base result
          records, closure flows their re-converged ones. *)
  d_untouched : Traffic.Flow.id list;
      (** The certificate: ids (ascending) whose fixed point is provably
          unchanged — results copied, never recomputed. *)
  d_stats : stats;
}

val analyze : ?lint:bool -> ?precheck:bool -> base -> edit -> result
(** [analyze base edit] incrementally re-analyzes the edited target
    against [base] (under the base's config).  With [~lint:true] the
    target is run through the errors-only lint gate first,
    [Gmf_lint.Lint.gate ~names restriction]: it runs only the rules that
    can emit an error, and never builds a hint.  GMF001 (duplicate
    names) compares the put records with the base flows of the same
    names, since two flows of different components can share a name;
    the component-local error rules (GMF201, GMF202, GMF203, GMF206) run
    on the closure restriction only.  That is sound when the base lints
    clean: a duplicate name of the target then involves a put record,
    any other error involves the flows, links and switches of one
    component, an error of the target involves a changed component, and
    a component is wholly inside or outside the closure.  A base that
    does not lint clean gates the whole target.  Errors yield an
    [Analysis_failed] report with zero rounds, mirroring the
    shed-without-fixpoint fast path of the survive loop.

    [precheck] (default [false]) routes a shrinking or mixed edit's cold
    closure restart — and a cold fallback's run over the full target —
    through the precheck-guided {!Sharded.analyze} instead of a
    monolithic {!Holistic.run}: flows decided statically skip the
    fixpoint, and components the base's tables already hold are not
    tested or fixpointed again.  The schedulability class, fates and
    matrices are unchanged (precheck is schedulability-exact), but
    closure flows decided statically carry certified ceilings instead
    of converged bounds.

    A base that did not converge certifies nothing: the target is built
    and analyzed cold ([stats.cold_fallback]).

    Exactness: the merged verdict and bounds equal a cold analysis of
    the target — the closure is a union of complete interference
    components (sharding property), untouched components keep their
    least fixed point, and the closure either restarts from source
    jitters or (pure growth) squeezes up from below it.  A closure that
    covers every target flow carries no base result over. *)
