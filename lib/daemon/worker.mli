(** One supervised session worker: the [init]/[handle] closure pair the
    daemon runs inside a {!Gmf_exec.Persistent} process.

    The worker owns the session's stateful admtrace parser
    ({!Scenario_io.Admtrace.Incremental}) {e and} its
    {!Gmf_admctl.Session}, so flow-id assignment is replayed state: a
    respawned worker re-fed the journal reproduces the same ids,
    transcripts and {!Gmf_admctl.Session.fingerprint} as the
    uninterrupted run.

    Failure discipline: a grammar error that provably left the parser
    untouched returns {!resp.Reject}; anything that may have mutated
    parser or session state out-of-step with the journal (mid-block
    errors, text ending inside an open flow block, exceptions out of
    [Session.apply]) kills the worker instead — the supervisor respawns
    it and replays the journal, which is always sound.  The parser is
    {!Scenario_io.Parse.Admtrace.Incremental.freeze}-frozen right after
    the prologue, so topology directives inside event requests fail
    before mutating parser state and stay on the [Reject] path. *)

type opts = {
  verify : bool;  (** Shadow mode, as [gmfnet session --verify]. *)
  explain : bool;
  survivable : int option;
  throttle_s : float;
      (** Minimum seconds spent per event request — overload-test
          pacing; [0.] in production. *)
}

val default_opts : opts
(** All features off. *)

type req =
  | Event_text of string
      (** Verbatim admtrace event text.  Normally one event; a batch is
          applied in order and answered with the last outcome. *)
  | Summary
  | Fingerprint

type resp =
  | Outcome of { seq : int; label : string; accepted : bool; text : string }
      (** [text] is the {!Gmf_admctl.Replay.outcome_line} rendering
          (all lines, newline-joined, for a batch). *)
  | Summary_text of string
  | Fingerprint_of of { digest : string; events : int }
  | Reject of string
      (** Grammar error with the parser untouched — the session did not
          change and the worker is still good. *)

type st
(** Worker-side state (parser + session); lives only in the child. *)

val init : opts:opts -> topology:string -> unit -> st
(** Parse the topology prologue and create the session.  Raises
    [Failure] on a prologue that fails the grammar, contains events, or
    ends inside a flow block — surfaced by the supervisor as a worker
    that dies on spawn. *)

val handle : st -> req -> resp
(** Process one request.  Raises (killing the worker, by design) when
    state may have diverged from the journal; see the module comment. *)

val spawn :
  ?on_child:(unit -> unit) ->
  opts:opts ->
  topology:string ->
  unit ->
  (req, resp) Gmf_exec.Persistent.t
(** A supervised worker process over {!init} and {!handle}. *)
