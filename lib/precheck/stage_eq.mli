(** The one home of the per-stage recurrences (paper Section 3): first link
    (eqs 14–19), ingress task (eqs 21–26) and egress queue (eqs 28–33).

    Every stage recurrence has the same shape.  For the analyzed frame [k]
    of flow [i] at stage [s]:

    - busy period: [t = busy_const + sum over busy_set of charge_j(t)],
      iterated from [busy_seed];
    - window of the busy-period shape (q, l) — [q] whole own cycles plus
      [l] own predecessor frames (repair R8; [l] is always 0 under
      [Faithful]):
      [w = window_base (q, l) + sum over interferers of charge_j(w)],
      iterated from [window_base (q, l)], where
      [window_base = blocking + own_rotations (q, l) + own_work (q, l)];
    - response: [R = max over (q, l) of w - separation (q, l) + tail],
      [separation = q * TSUM_i + the l predecessors' periods],
      [tail = transmission + final_rotation].

    [charge_j(dt)] is the interferer's MX link time, its NX Ethernet
    frames times CIRC, or both (see {!charge}), over [dt + extra_j].

    A description {!t} holds the stage's terms for one frame; it knows
    nothing about jitters, so each consumer applies it to its own:
    [Analysis.Stage_common] iterates it to the fixpoint,
    [Gmf_explain.Attribution] evaluates its parts at the fixpoint's
    witness (q, l, w), and {!Static_tests} applies it once at (0, 0) from
    the bottom jitters (the demand floor) or bounds it in closed form (the
    response ceiling).  {!uncontended} is the uncontended floor shared by
    the tight-jitter rule, [explain] and GMF202. *)

type charge =
  | Link_time  (** MX: first links, where every flow queues on the link. *)
  | Rotations
      (** NX·CIRC: the ingress task moves one Ethernet frame per rotation. *)
  | Link_time_and_rotations
      (** MX + NX·CIRC: the egress queue's link time plus the send task's
          rotation per frame. *)

(** An own cost of the (q, l) scan: [q * per_cycle + scale * (sum of the
    l predecessors' per_frame entries) + const]. *)
type cost = {
  per_cycle : Gmf_util.Timeunit.ns;
  per_frame : int array;
  scale : int;
  const : Gmf_util.Timeunit.ns;
}

type t = private {
  stage : Stage_key.t;
  frame : int;
  src : Network.Node.id;  (** The link the stage occupies: [src -> dst]. *)
  dst : Network.Node.id;
  charge : charge;
  circ : Gmf_util.Timeunit.ns;
      (** CIRC of the stage's switch; 0 at first links. *)
  busy_seed : Gmf_util.Timeunit.ns;
  busy_const : Gmf_util.Timeunit.ns;
  blocking : Gmf_util.Timeunit.ns;
      (** One maximal lower-priority frame (MFT) at egress; 0 elsewhere. *)
  rotations : cost;  (** Own task rotations in the window (egress, Repaired). *)
  work : cost;  (** Own carried work: link time, or rotations at ingress. *)
  transmission : Gmf_util.Timeunit.ns;
      (** Tail on link stages: own transmission + propagation. *)
  final_rotation : Gmf_util.Timeunit.ns;
      (** Tail at ingress: the rotation that dequeues the last frame. *)
  uncontended : Gmf_util.Timeunit.ns;  (** {!uncontended} of the stage. *)
  l_count : int;  (** Predecessor counts scanned: [n_i] Repaired, 1 Faithful. *)
  tsum : Gmf_util.Timeunit.ns;
  periods : int array;  (** The flow's minimum separations. *)
}

val make :
  config:Analysis_config.t ->
  Traffic.Scenario.t ->
  Traffic.Flow.t ->
  Stage_key.t ->
  frame:int ->
  t
(** [make ~config scenario flow stage ~frame] describes the stage
    recurrence of [frame].  Applied without [~frame], it looks up what the
    frames share once, for describing several frames of the stage.
    Raises [Invalid_argument] if the stage's switch is not on the flow's
    route, or if [frame] is out of range. *)

val link_of : Traffic.Flow.t -> Stage_key.t -> Network.Node.id * Network.Node.id
(** The link a stage of the flow occupies; ingress stages occupy the
    incoming link. *)

val busy_set :
  Traffic.Scenario.t -> Traffic.Flow.t -> Stage_key.t -> Traffic.Flow.t list
(** The flows the busy period charges: every flow on the link at first-link
    and ingress stages (the first link of a flow is the first link of
    every flow sharing it: endhosts do not relay), the flow itself ahead
    of hep(flow, node) at egress. *)

val interferers :
  Traffic.Scenario.t -> Traffic.Flow.t -> Stage_key.t -> Traffic.Flow.t list
(** The flows the window charges: {!busy_set} without the flow itself. *)

val charge :
  t -> mx:('a -> Gmf_util.Timeunit.ns) -> nx:('a -> int) -> 'a ->
  Gmf_util.Timeunit.ns
(** [charge d ~mx ~nx j] is interferer [j]'s charge from its MX and NX
    over the same interval; only the terms the stage charges are
    evaluated. *)

val charge_parts :
  t -> mx:Gmf_util.Timeunit.ns -> nx:int ->
  Gmf_util.Timeunit.ns * Gmf_util.Timeunit.ns
(** {!charge} split into its link-time and switch-software parts. *)

val cycle_charge : t -> Traffic.Link_params.t -> Gmf_util.Timeunit.ns
(** {!charge} of one whole cycle of a flow with these parameters on the
    stage's link: what it can charge per TSUM, jitter aside. *)

val own_work : t -> q:int -> l:int -> Gmf_util.Timeunit.ns
val own_rotations : t -> q:int -> l:int -> Gmf_util.Timeunit.ns

val window_base : t -> q:int -> l:int -> Gmf_util.Timeunit.ns
(** [blocking + own_rotations + own_work]: the window's constant part,
    which is also its seed. *)

val own_per_cycle : t -> Gmf_util.Timeunit.ns
(** How much {!window_base} grows per whole own cycle [q]. *)

val carry_in : t -> Gmf_util.Timeunit.ns array * Gmf_util.Timeunit.ns array
(** For every [l] below [l_count]: how much {!window_base} grows by the
    [l] own predecessor frames, and [separation ~q:0 ~l].  Running sums,
    one backward walk per array. *)

val separation : t -> q:int -> l:int -> Gmf_util.Timeunit.ns
(** [q * TSUM_i] plus the [l] predecessors' minimum separations: how long
    before the analyzed release the busy period starts at the latest. *)

val tail : t -> Gmf_util.Timeunit.ns
(** [transmission + final_rotation]. *)

val response :
  t -> q:int -> l:int -> w:Gmf_util.Timeunit.ns -> Gmf_util.Timeunit.ns
(** [w - separation + tail]. *)

val uncontended :
  Traffic.Scenario.t -> Traffic.Flow.t -> frame:int -> Stage_key.t ->
  Gmf_util.Timeunit.ns
(** Lower bound on the frame's response at the stage: its own transmission
    plus propagation (link stages) or its own CROUTE per Ethernet frame
    (ingress). *)

val window_before : int array -> k:int -> len:int -> int
(** [window_before arr ~k ~len] sums, cyclically, the [len] entries of
    [arr] preceding index [k] — the demand (or minimum separation) of the
    analyzed frame's [len] own predecessors.  0 when [len = 0]. *)
