(** One analysis case = (flow set, topology, config), and {!run}, the
    evaluator that every driver of many whole cases (survive sweeps,
    {!Priority_assign.best_exhaustive}, {!Sharded}'s components, the
    sensitivity, rerouting and hint probes) maps its cases through, in
    process, in order.  Nothing is memoized here: the per-component
    fixpoints of {!Sharded} are reused through the report table of an
    {!Delta} base, under the {!Gmf_precheck.Reuse} key.

    Telemetry: [exec.cases] counts evaluations performed, and every
    evaluation records an [exec.case] span carrying its duration. *)

val shared_memo : unit
(** A stub kept only for the benchmark harness, which clears it before
    every timed op ([perfbench/common.ml]).  It holds nothing. *)

val run : f:('a -> 'b) -> 'a -> ('b, string) result
(** [run ~f case] evaluates one case in process: [Ok (f case)], or
    [Error msg] when [f] raises, [msg] the exception's
    [Printexc.to_string].  Bumps [exec.cases] and records an [exec.case]
    span either way. *)

val report_of_error : string -> Holistic.report
(** The report of a case whose evaluation raised [msg]: an
    [Analysis_failed] verdict with one ["exec: exception: msg"] failure
    of [flow_id = -1], zero rounds and no results. *)

val analyze : ?config:Config.t -> Traffic.Scenario.t -> Holistic.report
(** {!Holistic.analyze} of one scenario through {!run}: an exception
    becomes {!report_of_error}, so drivers stay total and render
    rejections uniformly. *)

val schedulable : ?config:Config.t -> Traffic.Scenario.t -> bool
(** [Holistic.is_schedulable (analyze scenario)]. *)
