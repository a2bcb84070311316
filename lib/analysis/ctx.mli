(** Shared state of one analysis run: the scenario, the configuration, the
    holistic jitter state and the per-flow lint gates.  The demand tables
    behind MX/NX live in the scenario's {!Traffic.Link_params}, built once
    per (flow, link). *)

type t

val create : ?config:Config.t -> Traffic.Scenario.t -> t
(** [create ?config scenario] initializes the context.  The jitter state
    starts with every flow's source jitter installed at its first-link stage
    and zero everywhere else — the starting point of the holistic iteration
    (Section 3.5). *)

val scenario : t -> Traffic.Scenario.t
val config : t -> Config.t
val jitters : t -> Jitter_state.t

val reset_jitters : t -> unit
(** Restores the initial jitter state (source jitters only). *)

val snapshot : t -> Jitter_state.t
(** A deep copy of the current jitter state.  Taken after a converged
    {!Holistic} run it is the fixed point of the scenario — the seed an
    admission session hands back to {!restore} to warm-start the next
    decision. *)

val restore : t -> Jitter_state.t -> unit
(** [restore t state] replaces the context's jitters with a copy of
    [state] and (re-)installs every flow's source jitters on top, so a
    state captured on a {e smaller} flow set is completed with the first
    entries of any flow it has never seen.  The argument is not aliased;
    later mutations of the context leave it intact. *)

val mx :
  t -> Traffic.Flow.t -> src:Network.Node.id -> dst:Network.Node.id ->
  dt:Gmf_util.Timeunit.ns -> Gmf_util.Timeunit.ns
(** MX(tau_j, N1, N2, dt) (eq 11): link-time demand bound of the flow on the
    link during an interval of length [dt].  Under [Config.Faithful] the
    per-window demand is clamped to [dt] as eq (10) writes it; under
    [Config.Repaired] the clamp is dropped (request-bound reading, repair
    R7) so zero-jitter interference is not lost. *)

val nx :
  t -> Traffic.Flow.t -> src:Network.Node.id -> dst:Network.Node.id ->
  dt:Gmf_util.Timeunit.ns -> int
(** NX(tau_j, N1, N2, dt) (eq 13): Ethernet-frame count bound. *)

val extra : t -> Traffic.Flow.t -> stage:Stage.t -> Gmf_util.Timeunit.ns
(** extra_j at a stage: the flow's maximum per-frame jitter there. *)

type interferer = private {
  time : Gmf.Demand.t;  (** The flow's MX tables on the stage's link. *)
  count : Gmf.Demand.t;  (** Its NX tables on the same link. *)
  extra : Gmf_util.Timeunit.ns;  (** Its {!extra} at the stage. *)
}
(** One interfering flow of a stage, resolved for the length of one stage
    analysis: the flow's jitters at the stage cannot change while another
    flow's busy periods are iterated, so the tables and extra_j are looked
    up once instead of on every iteration. *)

val interferers :
  t -> Traffic.Flow.t list -> src:Network.Node.id -> dst:Network.Node.id ->
  stage:Stage.t -> interferer array
(** [interferers t flows ~src ~dst ~stage] resolves [flows] on the link
    [src -> dst] at [stage], in list order. *)

val mx_of : t -> interferer -> dt:Gmf_util.Timeunit.ns -> Gmf_util.Timeunit.ns
(** [mx_of t i ~dt] is [mx] of the interferer over [dt + extra_j]: its
    link-time demand in a window of length [dt] (eqs 15, 17, 29, 31).  The
    sum saturates instead of wrapping. *)

val nx_of : interferer -> dt:Gmf_util.Timeunit.ns -> int
(** [nx_of i ~dt] is [nx] of the interferer over [dt + extra_j]
    (eqs 22, 24, 29, 31). *)

val flow_gate : t -> Traffic.Flow.t -> Gmf_diag.t list
(** {!Gmf_lint.Rules.flow_gate} of the flow in this context's scenario,
    evaluated once per flow: it depends on the scenario only, so every
    holistic round after the first reuses it. *)

val set_jitter :
  t -> Traffic.Flow.t -> frame:int -> stage:Stage.t ->
  Gmf_util.Timeunit.ns -> unit

val get_jitter :
  t -> Traffic.Flow.t -> frame:int -> stage:Stage.t -> Gmf_util.Timeunit.ns

val params :
  t -> Traffic.Flow.t -> src:Network.Node.id -> dst:Network.Node.id ->
  Traffic.Link_params.t
