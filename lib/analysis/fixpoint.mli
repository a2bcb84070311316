(** Integer fixed-point iteration for the busy-period and queuing-time
    recurrences (eqs 15, 17, 22, 24, 29, 31).

    All recurrences have the shape [t_{v+1} = f t_v] with [f] monotone in
    its argument, so over the integers the iteration either reaches an exact
    fixed point or crosses the horizon.

    Every call feeds the convergence telemetry of {!Gmf_obs.Metrics.default}
    (counters [fixpoint.calls], [fixpoint.iters.total],
    [fixpoint.diverged.horizon], [fixpoint.diverged.cap]; histogram
    [fixpoint.iters]) — all no-ops while the registry is disabled. *)

type outcome =
  | Converged of { value : Gmf_util.Timeunit.ns; iters : int }
      (** [f value = value] was reached; [iters] is the number of
          evaluations of [f] performed (at least 1). *)
  | Diverged of string
      (** The horizon or the iteration cap was exceeded; the message says
          which. *)

val iterate :
  f:(Gmf_util.Timeunit.ns -> Gmf_util.Timeunit.ns) ->
  seed:Gmf_util.Timeunit.ns ->
  max_iters:int ->
  horizon:Gmf_util.Timeunit.ns ->
  outcome
(** [iterate ~f ~seed ~max_iters ~horizon] runs the recurrence from [seed].
    A negative step value (an overflowed sum) counts as crossing the
    horizon.  Raises [Invalid_argument] if [max_iters <= 0] or [seed < 0]. *)

val pp : Format.formatter -> outcome -> unit
