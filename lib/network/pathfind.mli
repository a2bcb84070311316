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

type summary = {
  fewest : int option;
      (** The links of a shortest route, when it has at most [max within
          max_hops] of them. *)
  second : bool;
      (** At least two routes of at most {!max_hops} links exist: the
          route {!first_route} returns is not the only one. *)
}

val summarize :
  Topology.t -> (Node.id * Node.id * int) list -> summary list
(** For each query [(src, dst, within)], in order, what the single-route
    searches would answer over the whole topology (nothing avoided):
    [fewest] is the hop count of {!first_route} searched to [max within
    max_hops] links, and [second] says whether {!all_routes} has two
    entries or more.  Endpoints that cannot terminate a flow, or
    [src = dst], get [{ fewest = None; second = false }].

    One reverse BFS per destination answers all of its queries, and
    labels only as far as they need.  A second route is first counted in
    the BFS layers (shortest routes, up to two); a source with one
    shortest route then looks for a detour off it at each node along it
    (Yen's spurs), each a BFS bounded by the distance table.  Queries with
    the same endpoints share the search. *)

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
