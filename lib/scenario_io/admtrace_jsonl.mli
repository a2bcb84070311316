(** Wire codec for [gmfnetd]: the [.admtrace] event grammar framed as
    JSONL (one JSON object per line, both directions).

    An {!request.Event} carries one admtrace event {e verbatim} — a
    single directive like [remove cam], or a whole flow block through
    its [end] with embedded newlines.  The daemon feeds the text to
    {!Parse.Admtrace.Incremental}, so the wire protocol shares the batch
    grammar and its stateful name/id resolution instead of duplicating
    them; rendered transcripts come back byte-identical to
    [gmfnet session] output.

    Lines are read and printed with {!Gmf_util.Json}.  Encoding is
    canonical and deterministic: [encode_request] of a decoded line is
    the normal form the daemon's write-ahead journal stores and
    replays. *)

type request =
  | Open of {
      session : string;
          (** Session name — also the journal file name, so restricted
              by the daemon to [A-Za-z0-9._-]. *)
      topology : string;
          (** The admtrace topology prologue, verbatim
              ([node]/[link]/[duplex]/[switch] lines). *)
      verify : bool;  (** Shadow mode, as [gmfnet session --verify]. *)
      explain : bool;
      cold : bool;
      survivable : int option;
          (** Arm the survivable-admission gate on every admit. *)
      throttle_s : float;
          (** Minimum seconds the worker spends per event — a pacing
              knob for overload tests and benchmarks; [0.] (the
              default) in production. *)
    }
  | Event of { text : string }
      (** One admtrace event, verbatim (a directive, or a flow block
          through its [end]). *)
  | Summary  (** Render the session summary block. *)
  | Fingerprint  (** Digest of the observable session state. *)
  | Ping
  | Close

type response =
  | Opened of { session : string; replayed : int }
      (** [replayed] journal events were re-applied to recover state. *)
  | Outcome of { seq : int; label : string; accepted : bool; text : string }
      (** [text] is the rendered transcript block
          ({!Gmf_admctl.Replay.outcome_line} format, possibly
          multi-line). *)
  | Summary_is of { text : string }
  | Fingerprint_is of { digest : string; events : int }
  | Pong
  | Closed
  | Rejected of { code : string; message : string }
      (** An explicit refusal; the session state did not change.  See
          the [code_*] values. *)

val code_overloaded : string
(** Bounded queue full — shed, never silently dropped. *)

val code_parse : string
(** The event text failed the admtrace grammar. *)

val code_crashed : string
(** The session worker died processing the event; it was not committed
    and the worker is being respawned + journal-replayed. *)

val code_deadline : string
(** The per-request deadline expired; the worker was killed, the event
    not committed. *)

val code_proto : string
(** Malformed protocol line or an operation out of order. *)

val code_shutdown : string
(** The daemon is draining after SIGTERM. *)

val encode_request : request -> string
(** One JSON line, no trailing newline.  Canonical: default-valued
    fields are omitted. *)

val decode_request : string -> (request, string) result
val encode_response : response -> string
val decode_response : string -> (response, string) result
