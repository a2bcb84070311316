(** The three per-hop analysis stages of a flow's route (paper Section 3).

    This type used to live in the [analysis] library; it moved below it so
    the static pre-analysis ([Gmf_precheck]) and the fixpoint share one
    stage vocabulary.  [Analysis.Stage] re-exports the constructors, so
    analysis-side code is unchanged. *)

type t =
  | First_link of Network.Node.id * Network.Node.id
      (** The source host's link (eq 16). *)
  | Ingress of Network.Node.id  (** The ingress task of a switch (eq 23). *)
  | Egress of Network.Node.id * Network.Node.id
      (** The egress queue of a switch towards [dst] (eq 30). *)

val equal : t -> t -> bool
val compare : t -> t -> int

val stages_of_route : Network.Route.t -> t list
(** First link, then [Ingress n; Egress (n, succ n)] per intermediate
    switch, in route order. *)

val pp : Format.formatter -> t -> unit
