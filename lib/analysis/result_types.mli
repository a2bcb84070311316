(** Result records produced by the analysis. *)

type stage_response = {
  stage : Stage.t;
  response : Gmf_util.Timeunit.ns;
      (** Upper bound on the stage response time (link stages include the
          propagation delay, per eqs 19 and 33). *)
  busy_len : Gmf_util.Timeunit.ns;  (** Converged busy-period length. *)
  q_count : int;  (** Number of cycle instances examined (Q_i^k). *)
  w_q : int;
      (** Witness: the [q] (whole own cycles ahead of the analyzed
          instance) of the busy-period shape that produced [response]. *)
  w_l : int;
      (** Witness: the [l] (own predecessor frames, repair R8) of that
          shape; always 0 under [Config.Faithful]. *)
  w_last : Gmf_util.Timeunit.ns;
      (** Witness: the converged queuing window w(w_q, w_l).  Together with
          [w_q]/[w_l] this lets {!Gmf_explain.Attribution} re-evaluate every
          term of the stage recurrence and decompose [response] exactly. *)
}

type frame_result = {
  frame : int;
  stages : stage_response list;  (** In traversal order. *)
  total : Gmf_util.Timeunit.ns;
      (** End-to-end bound R_i^k: source jitter + sum of stage responses
          (Figure 6). *)
  deadline : Gmf_util.Timeunit.ns;  (** D_i^k, for convenience. *)
}

type flow_result = {
  flow : Traffic.Flow.t;
  frames : frame_result array;  (** Indexed by GMF frame. *)
}

type failure = {
  flow_id : Traffic.Flow.id;
  frame : int;
  failed_stage : Stage.t option;
      (** [None] when the failure is not tied to one stage (e.g. the
          holistic iteration itself diverged). *)
  reason : string;
}

val slack : frame_result -> Gmf_util.Timeunit.ns
(** [deadline - total]; negative when the bound misses the deadline. *)

val meets_deadline : frame_result -> bool

val worst_frame : flow_result -> frame_result
(** The frame with the smallest slack. *)

val pp_stage_response : Format.formatter -> stage_response -> unit
val pp_frame_result : Format.formatter -> frame_result -> unit
val pp_failure : Format.formatter -> failure -> unit
