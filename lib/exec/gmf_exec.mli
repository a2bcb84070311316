(** Case-evaluation layer: one evaluator, {!run}, that every "analyze
    many whole cases" driver maps its cases through — the k-failure
    survivability sweep (also behind a session's survivable gate), the
    exhaustive priority search, and {!Analysis.Case}'s memoized
    per-component fixpoints — plus the {!Memo} table type and the
    daemon's supervised worker, {!Persistent}.

    Every case runs in process, in the caller's order.  A failure is
    per-case, never whole-run: an exception in [f] surfaces as an
    [Error (Exn _)] for that case while the driver goes on with the
    next.  Cases run to completion: there is no per-case time limit.

    Telemetry: [exec.cases] counts evaluations performed (the
    evaluations a memo avoids are its owner's to count:
    {!Analysis.Case} bumps [exec.memo_hits]), and every evaluation
    records an [exec.case] span carrying its measured duration.
    [exec.respawns] counts the {!Persistent} workers forked to replace
    a crashed one. *)

type error =
  | Crashed of string  (** A {!Persistent} worker died. *)
  | Exn of string  (** [f] raised; the payload is [Printexc.to_string]. *)

val error_to_string : error -> string

type 'b outcome = ('b, error) result

(** Memo table keyed by a caller-supplied digest string.  {!run} never
    consults one: its owner looks a case up before running it and
    stores what the run returns ({!Analysis.Case.shared_memo}). *)
module Memo : sig
  type 'b t

  val create : unit -> 'b t
  val find : 'b t -> string -> 'b option
  val add : 'b t -> string -> 'b -> unit
  val size : 'b t -> int
  val clear : 'b t -> unit
end

val run : f:('a -> 'b) -> 'a -> 'b outcome
(** [run ~f case] evaluates one case in process: [Ok (f case)], or
    [Error (Exn _)] when [f] raises.  Bumps [exec.cases] and records an
    [exec.case] span either way. *)

(** Supervised forked workers — the layer's one worker implementation.

    A {!Persistent} worker forks {e once} around an [init] payload and
    then serves marshalled request/response pairs until it is stopped,
    killed, or crashes.  [gmfnetd] keeps one per session around a parsed
    topology and an admission session, so the topology ships to the
    worker exactly once and warm fixpoint state survives across events.

    Protocol invariant: at most one request ({!send} without its
    matching {!recv}) may be outstanding at a time.  The parent owns
    supervision — a crash surfaces as [Error (Crashed _)], {!respawn}
    (counted in [exec.respawns]) replaces the process, and {!Backoff}
    paces the retries.  Deadlines are the caller's: wait on {!fd} in
    its own [select] loop and {!kill} a worker that overruns. *)
module Persistent : sig
  type ('req, 'resp) t

  val spawn :
    ?on_child:(unit -> unit) ->
    init:(unit -> 'st) ->
    handle:('st -> 'req -> 'resp) ->
    unit ->
    ('req, 'resp) t
  (** Fork a worker.  In the child, [on_child] runs first (close
      inherited fds there), then [init ()] builds the worker state, then
      the serve loop answers requests with [handle st req].  An
      exception from [handle] is returned to the parent as
      [Error (Exn _)] and the worker stays up; an exception from [init]
      ends the child, which the parent sees as [Crashed] on first use.
      Both closures are inherited by fork, not marshalled. *)

  val alive : ('req, 'resp) t -> bool
  (** Whether a worker process is currently attached.  [alive] does not
      probe the process: a worker that died but has not been used since
      still reports [true] until a {!send} or {!recv} notices. *)

  val fd : ('req, 'resp) t -> Unix.file_descr option
  (** Read side of the response pipe, for a caller-owned [select] loop:
      readable exactly when {!recv} will not block (response ready or
      worker dead). *)

  val send : ('req, 'resp) t -> 'req -> (unit, error) result
  (** Hand the worker a request without waiting for the response.  A
      worker found dead is reaped and reported as [Error (Crashed _)]. *)

  val recv : ('req, 'resp) t -> 'resp outcome
  (** Collect the response to the outstanding {!send}.  Blocks unless
      {!fd} was reported readable.  EOF (the worker died mid-request)
      reaps the child and returns [Error (Crashed _)]. *)

  val stop : ('req, 'resp) t -> unit
  (** Graceful shutdown: ask the serve loop to exit, close the pipes and
      reap.  Idempotent. *)

  val kill : ('req, 'resp) t -> unit
  (** [SIGKILL] the worker and reap it.  Idempotent. *)

  val respawn : ('req, 'resp) t -> unit
  (** Replace the worker process with a fresh fork of the same
      [on_child]/[init]/[handle] (killing the old one if still
      attached).  Bumps [exec.respawns].  The new worker re-runs [init]
      from scratch — replaying any event journal is the caller's job. *)

  val respawn_count : ('req, 'resp) t -> int

  (** Exponential-backoff pacing for respawns, on caller-supplied
      clocks (tests drive it deterministically). *)
  module Backoff : sig
    type b

    val create : ?base_s:float -> ?max_s:float -> unit -> b
    (** Delay after the [n]-th consecutive failure is
        [base_s * 2^(n-1)] capped at [max_s] (defaults 0.1s / 30s).
        Raises [Invalid_argument] unless [0 < base_s <= max_s]. *)

    val note_failure : b -> now:float -> unit
    val note_success : b -> unit
    val ready : b -> now:float -> bool
    val next_try : b -> float
    (** Absolute time of the next allowed attempt (0. when unconstrained). *)

    val failures : b -> int
  end
end
