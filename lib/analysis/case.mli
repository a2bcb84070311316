(** One analysis case = (flow set, topology, config), evaluated through
    {!Gmf_exec}.

    Sensitivity probes, rerouting candidates and rejection hints run
    their whole-scenario analyses through this module, in order, in
    process; each is one {!Gmf_exec.run}.  Nothing is memoized here: the
    per-component fixpoints of {!Sharded} are reused through the report
    table of an {!Delta} base, under the {!Gmf_precheck.Reuse} key.

    An exception from the analysis degrades to an [Analysis_failed]
    report carrying an ["exec: ..."] reason, so drivers stay total and
    render rejections uniformly. *)

val shared_memo : Holistic.report Gmf_exec.Memo.t
(** A stub kept only for the benchmark harness, which clears it before
    every timed op ([perfbench/common.ml]).  It is never filled. *)

val report_of_error : Gmf_exec.error -> Holistic.report
(** The report of a case whose evaluation raised: an [Analysis_failed]
    verdict with one ["exec: ..."] failure of [flow_id = -1], zero
    rounds and no results. *)

val analyze : ?config:Config.t -> Traffic.Scenario.t -> Holistic.report
(** {!Holistic.analyze} of one scenario through {!Gmf_exec.run}: an
    exception becomes {!report_of_error}. *)

val schedulable : ?config:Config.t -> Traffic.Scenario.t -> bool
(** [Holistic.is_schedulable (analyze scenario)]. *)
