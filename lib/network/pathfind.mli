(** Route search beyond the single shortest path.

    The paper takes each flow's route as pre-specified; an operator still
    has to pick it.  This module finds candidate routes (loop-free,
    switch-only interiors, as {!Route} requires) of at most {!max_hops}
    links, so admission control can try alternatives when the default path
    is saturated and a failure sweep can reroute around dead components.

    Both searches take [avoid_links] (directed [(src, dst)] pairs) and
    [avoid_nodes] to exclude failed components: no returned route crosses
    an avoided link or visits an avoided node (a route whose endpoint is
    avoided does not exist).  Both default to empty.

    Unlike {!Topology.shortest_path}, which breaks ties by link-declaration
    order, ties here go to the smaller node id. *)

val max_hops : int
(** The reroute bound: 8 links.  No route longer than this is returned. *)

val first_route :
  ?avoid_links:(Node.id * Node.id) list ->
  ?avoid_nodes:Node.id list ->
  Topology.t ->
  src:Node.id ->
  dst:Node.id ->
  Route.t option
(** The head of {!all_routes}: among the fewest-hop routes, the least by
    node sequence; [None] when that route would exceed {!max_hops} links
    (or none exists).  One reverse BFS from [dst] over the surviving graph,
    then a walk from [src] that takes the smallest-id neighbour one link
    closer at each step — no enumeration. *)

val all_routes :
  ?avoid_links:(Node.id * Node.id) list ->
  ?avoid_nodes:Node.id list ->
  Topology.t ->
  src:Node.id ->
  dst:Node.id ->
  Route.t list
(** Every valid route from [src] to [dst] with at most {!max_hops} links,
    ordered by hop count then lexicographically by node sequence.
    Exhaustive DFS — intended for the small edge topologies this library
    targets.  Empty if the endpoints cannot terminate flows or are
    unreachable. *)

val k_shortest :
  ?avoid_links:(Node.id * Node.id) list ->
  ?avoid_nodes:Node.id list ->
  ?k:int -> Topology.t -> src:Node.id -> dst:Node.id ->
  Route.t list
(** The first [k] (default 4) routes of {!all_routes}. *)
