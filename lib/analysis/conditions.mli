(** Convergence / feasibility conditions (eqs 20, 34–35 and the ingress
    analogue), evaluated per stage of every flow.

    These are reporting helpers: the fixed points themselves are guarded by
    iteration caps, but the conditions explain {e why} an analysis diverged
    and power experiment E6. *)

type check = {
  flow_id : Traffic.Flow.id;
  flow_name : string;
  stage : Stage.t;
  utilization : float;
      (** Interfering utilization at the stage, including the flow itself:
          eq (20) for first links, eqs (34)–(35) for egress queues, and
          the NSUM*CIRC/TSUM analogue for ingress tasks. *)
  satisfied : bool;  (** [utilization < 1]. *)
}

val check_flow : Traffic.Scenario.t -> flow:Traffic.Flow.t -> check list
(** Conditions for every stage of one flow's route. *)

val check_all : Traffic.Scenario.t -> check list
(** Conditions for every stage of every flow. *)

val all_satisfied : check list -> bool

val worst : check list -> check option
(** The check with the highest utilization. *)

val pp_check : Format.formatter -> check -> unit
