(** Case-evaluation layer shared by every "analyze many whole cases"
    driver: the k-failure survivability sweep (also behind a session's
    survivable gate) and the exhaustive priority search run on the pool;
    {!Analysis.Case} runs the sharded analysis's per-component fixpoints
    through it, in order, behind its own memo.

    A driver hands the layer a list of independent cases and a pure
    evaluation function; the layer decides {e how} the cases run — the
    {!Seq} backend evaluates them in order in-process, the {!Pool}
    backend fans them out over {!Persistent} workers — and returns
    results {e in case order regardless of backend}, so goldens and
    downstream folds never depend on scheduling.

    Contract for [f]: it must be a pure function of its case (no
    reliance on mutable state it shares with other cases), and under
    {!Pool} its result is shipped back through [Marshal], so it must
    not contain custom blocks that cannot be marshalled.

    Failures are per-case, never whole-run: an exception in [f] or a
    worker crash surfaces as an [Error] for that case while every other
    case still completes.  Cases run to completion: there is no per-case
    time limit.

    Telemetry: [exec.cases] counts evaluations performed (the
    evaluations a memo avoids are its owner's to count: {!Analysis.Case}
    bumps [exec.memo_hits]), [exec.workers] counts worker processes forked, [exec.respawns]
    counts workers forked to {e replace} a crashed one (every
    {!Persistent.respawn}, pool refills included), and
    [exec.pool_exhausted] counts pool runs that ran out of fork budget
    (one fork per case) and had to fail their remaining cases with
    [Crashed "worker pool exhausted"]; every completed evaluation
    records an [exec.case] span carrying its measured duration.
    Recordings made {e inside} [f] (counters, histograms,
    spans against the default registry/tracer) are preserved under both
    backends: a {!Pool} worker resets its inherited default registry and
    tracer at case start, dumps them with the case result, and the
    parent replays the dump ({!Gmf_obs.Metrics.absorb}) and re-emits the
    spans — so pooled totals, histogram percentiles included, equal a
    sequential run's (modulo [exec.workers], which only a pool bumps). *)

type t =
  | Seq  (** In-process, in-order.  Always available. *)
  | Pool of { jobs : int }
      (** Up to [jobs] forked {!Persistent} workers.  Falls back to
          {!Seq} when [jobs <= 1] or a batch has fewer than two
          cases. *)
(** An executor: how a batch of cases runs. *)

val seq : t
(** The default executor, {!Seq}. *)

val pool : int -> t
(** [pool jobs] is [Pool { jobs }]. *)

val of_jobs : int -> t
(** [of_jobs jobs] is {!seq} when [jobs <= 1], [pool jobs] otherwise —
    the normal way to turn a [--jobs N] flag into an executor. *)

val resolve_jobs : int option -> int
(** [resolve_jobs cli] picks the job count: the CLI value when given,
    else the [GMFNET_JOBS] environment variable when it is a positive
    integer, else [1]. *)

type error =
  | Crashed of string  (** The worker evaluating the case died. *)
  | Exn of string  (** [f] raised; the payload is [Printexc.to_string]. *)

val error_to_string : error -> string

type 'b outcome = ('b, error) result

(** Memo table keyed by a caller-supplied digest string.  {!map_cases}
    never consults one: its owner looks a case up before mapping it and
    stores what the mapping returns ({!Analysis.Case.shared_memo}). *)
module Memo : sig
  type 'b t

  val create : unit -> 'b t
  val find : 'b t -> string -> 'b option
  val add : 'b t -> string -> 'b -> unit
  val size : 'b t -> int
  val clear : 'b t -> unit
end

val map_cases : ?exec:t -> f:('a -> 'b) -> 'a list -> 'b outcome list
(** [map_cases ~f cases] evaluates every case and returns the outcomes
    in case order. *)

(** Supervised forked workers — the layer's one worker implementation.

    A {!Persistent} worker forks {e once} around an [init] payload and
    then serves marshalled request/response pairs until it is stopped,
    killed, or crashes.  [gmfnetd] keeps one per session around a parsed
    topology and an admission session, so the topology ships to the
    worker exactly once and warm fixpoint state survives across events.
    A {!Pool} batch of {!map_cases} forks up to [jobs] of them, whose
    handler evaluates the case at a given index of the batch (inherited
    by memory), and stops them when the batch ends.

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
