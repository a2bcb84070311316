(** The [gmfnetd] event loop: a single-threaded [Unix.select] server
    multiplexing JSONL clients (over a Unix-domain socket) and
    supervised per-session analysis workers.

    Robustness contract:

    - {e supervision}: each session runs in its own {!Persistent}
      worker.  A crash, an exception out of the event machine, or a
      missed per-request deadline answers the affected request with an
      explicit [crashed]/[deadline] rejection, kills the worker and
      rebuilds it — paced by exponential backoff — by replaying the
      session's write-ahead journal.  The rebuilt worker carries
      byte-identical state for every committed event (same flow ids,
      transcripts and fingerprint).
    - {e durability}: an event is journaled with write+[fsync]
      {e after} the worker applied it and {e before} the decision is
      released, so any decision a client observed survives [kill -9] of
      daemon and workers alike; re-opening the session replays the
      journal.
    - {e shedding}: per-session queues are bounded at
      {!config.queue_cap}; arrivals beyond the cap are answered
      [overloaded] immediately.  Nothing is silently dropped, and
      nothing is admitted without a completed, journaled analysis.
    - {e drain}: SIGTERM/SIGINT stop the accept loop, finish every
      queued request, flush every answer, stop the workers and exit;
      events arriving during the drain are answered [shutdown].
    - {e isolation}: client sockets are non-blocking with per-connection
      output buffering flushed from the [select] writability set — a
      client that stops reading cannot stall the loop, other sessions,
      deadline enforcement or the drain; it is disconnected once its
      backlog exceeds 1 MiB or makes no progress for 10 s.

    Journal-replay work is internal: it is exempt from
    {!config.deadline_s} and runs unbounded, so recovery of a session
    whose events replay slower than the client-facing latency bound
    cannot be starved into a respawn loop.

    Telemetry (default registry): [daemon.requests],
    [daemon.events_committed], [daemon.events_replayed], [daemon.shed],
    [daemon.deadline_kills], [daemon.worker_crashes] counters, and
    [daemon.sessions] / [daemon.queue_depth] gauges. *)

type config = {
  socket_path : string;  (** Unix-domain socket; replaced if present. *)
  journal_dir : string;  (** Created on demand; one journal per session. *)
  max_sessions : int;
      (** Live-session cap; an idle unattached session is evicted (its
          journal stays, a later open recovers it) before a new open is
          refused [overloaded]. *)
  queue_cap : int;  (** Per-session pending-request bound. *)
  deadline_s : float option;
      (** Per-request worker deadline; [None] disables.  Applies to
          client requests only — journal replays are exempt. *)
  backoff_base_s : float;  (** Respawn backoff, first retry delay. *)
  backoff_max_s : float;  (** Respawn backoff cap. *)
}

val default_config : config
(** [gmfnetd.sock] / [gmfnetd.journal] in the current directory, 8
    sessions, queue cap 64, no deadline, 0.05s–5s backoff. *)

val run : ?on_ready:(unit -> unit) -> config -> unit
(** Bind, listen, serve until SIGTERM/SIGINT, drain, clean up (workers
    stopped, journals closed, socket unlinked) and return.  [on_ready]
    fires once the socket is listening, before the first accept — for
    readiness notification in tests and scripts.  Raises
    [Invalid_argument] on a nonsensical config ([max_sessions] or
    [queue_cap] < 1, a deadline not finite and positive, empty socket
    path) before it binds the socket; [Unix] errors from binding
    escape. *)
