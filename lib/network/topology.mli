(** The network graph: nodes plus directed links.

    Mutable builder with pure lookups; built once per scenario, then shared
    by the analysis and the simulator. *)

type t

val create : unit -> t

val add_node : t -> name:string -> kind:Node.kind -> Node.id
(** Registers a node and returns its dense id (0, 1, 2, ...). *)

val add_link :
  t ->
  src:Node.id ->
  dst:Node.id ->
  rate_bps:int ->
  prop:Gmf_util.Timeunit.ns ->
  unit
(** Installs a directed link.  Raises [Invalid_argument] if either endpoint
    is unknown or the link already exists. *)

val add_duplex_link :
  t ->
  a:Node.id ->
  b:Node.id ->
  rate_bps:int ->
  prop:Gmf_util.Timeunit.ns ->
  unit
(** Installs both directions with the same rate and propagation delay. *)

val node_count : t -> int

val node : t -> Node.id -> Node.t
(** Raises [Invalid_argument] on an unknown id. *)

val nodes : t -> Node.t list
(** All nodes, in id order. *)

val find_link : t -> src:Node.id -> dst:Node.id -> Link.t option

val link_exn : t -> src:Node.id -> dst:Node.id -> Link.t
(** Raises [Invalid_argument] when there is no such link. *)

val links : t -> Link.t list
(** All directed links, in insertion order. *)

val out_neighbors : t -> Node.id -> Node.id list
(** Destinations of the links leaving the node, in insertion order. *)

val in_neighbors : t -> Node.id -> Node.id list
(** Sources of the links into a node, most recently added first.  Kept up
    to date by {!add_link}, so a reverse search reads it without rebuilding
    the reverse adjacency.  Raises [Invalid_argument] on an unknown id. *)

val degree : t -> Node.id -> int
(** Number of distinct neighbors (counting a duplex link once) — the
    NINTERFACES(N) of the paper for a switch node. *)

val shortest_path : t -> src:Node.id -> dst:Node.id -> Node.id list option
(** Fewest-hops path (BFS) from [src] to [dst] using only switch nodes as
    intermediates, or [None] if unreachable.  Convenience for scenario
    construction; routes may also be specified explicitly. *)

val pp : Format.formatter -> t -> unit
