(** Pre-specified routes (paper Section 2.1, Figure 2).

    A route is the node sequence a flow's packets traverse.  The paper
    requires: the source and destination are endhosts or routers, every
    intermediate node is an Ethernet switch, and consecutive nodes are
    directly linked. *)

type t

val make : Topology.t -> Node.id list -> t
(** [make topo nodes] validates [nodes] as a route over [topo].
    Raises [Invalid_argument] when the route has fewer than two nodes,
    repeats a node, misses a link, has a switch endpoint, or has a
    non-switch intermediate. *)

val source : t -> Node.id
val destination : t -> Node.id

val nodes : t -> Node.id list
(** The full node sequence, source first. *)

val hops : t -> (Node.id * Node.id) list
(** Consecutive (src, dst) pairs along the route. *)

val hop_count : t -> int
(** Number of links traversed. *)

val succ : t -> Node.id -> Node.id
(** [succ t n] is the node after [n] on the route — the paper's
    succ(tau, N).  Raises [Invalid_argument] if [n] is not on the route or
    is the destination. *)

val prec : t -> Node.id -> Node.id
(** [prec t n] is the node before [n] — the paper's prec(tau, N).
    Raises [Invalid_argument] if [n] is not on the route or is the
    source. *)

val mem : t -> Node.id -> bool

val crosses :
  t -> links:(Node.id * Node.id) list -> nodes:Node.id list -> bool
(** [crosses t ~links ~nodes] is true when the route traverses one of the
    directed [(src, dst)] [links] or visits one of the [nodes] — the
    route-avoidance test of failure handling and rerouting. *)

val intermediate_switches : t -> Node.id list
(** The switch nodes strictly between source and destination, in order. *)

val links : t -> Topology.t -> Link.t list
(** The link objects along the route (the topology must be the one the
    route was validated against). *)

val pp : Format.formatter -> t -> unit
(** e.g. ["0->4->6->3"]. *)
