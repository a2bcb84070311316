(** Drive a {!Session} from a parsed [.admtrace]
    ({!Scenario_io.Admtrace}), and render the per-event outcomes in the
    deterministic formats the CLI, the golden tests and CI replay share.

    Everything emitted here is stable across runs: no timestamps, no
    wall-clock figures — only event labels, verdicts, round counts and
    diagnostics, all of which are deterministic for a given trace and
    configuration. *)

type result = {
  outcomes : Session.outcome list;  (** In trace order. *)
  session : Session.t;  (** Final session, for summaries and reports. *)
}

val session_event : Scenario_io.Admtrace.event -> Session.event
(** The trace-event to session-event mapping {!run} applies — exported
    so streaming consumers ([gmfnetd] session workers) replay events
    exactly as batch replay does. *)

val run :
  ?config:Analysis.Config.t ->
  ?shadow:bool ->
  ?explain:bool ->
  ?survivable:int ->
  ?on_outcome:(Session.outcome -> unit) ->
  Scenario_io.Admtrace.t ->
  result
(** Replay every event of the trace in order.  [on_outcome] fires after
    each event (for streaming output); optional session knobs — the
    [shadow] cross-check, [explain] and the [survivable] gate — are
    passed through to {!Session.create}. *)

val outcome_line : Session.outcome -> string
(** One transcript line per event, e.g.
    ["#03 admit bulk0 | rejected | deadline miss (2 frames) | rounds=7 start=warm flows=2"],
    followed by one indented line per warning- or error-level diagnostic
    (hints are elided), and — explain sessions only — indented
    ["binding: ..."] / ["interferer: ..."] lines naming the worst frame,
    its binding hop and its binding interferer.  No trailing newline. *)

val transcript : Session.outcome list -> string
(** All {!outcome_line}s, newline-separated, with a trailing newline —
    the golden-file format. *)

val outcome_jsonl : Session.outcome -> string
(** The outcome as one flat JSON object (no trailing newline), string,
    integer and boolean fields only, in the style of
    [Gmf_lint.Lint_json].  ["verdict"] is {!Analysis.Holistic.verdict_tag}
    and ["failures"] the length of the verdict's failure list (0 for
    [Schedulable] and [No_fixed_point]). *)

val mismatches : Session.outcome list -> int
(** Number of shadow comparisons that disagreed with the session's own
    result.  Always 0 without [shadow:true]; a non-zero value falsifies
    the delta engine's soundness argument and fails
    [gmfnet session --verify]. *)

val pp_summary : Format.formatter -> Session.summary -> unit
(** Multi-line key/value summary block. *)
