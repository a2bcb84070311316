let max_hops = 8

(* The surviving graph: a hop is usable unless its link or either end is
   avoided.  Failure sets are a few components, so lists beat tables. *)
let usable ~(avoid_links : (Node.id * Node.id) list)
    ~(avoid_nodes : Node.id list) =
  if avoid_links = [] && avoid_nodes = [] then fun _ _ -> true
  else fun here next ->
    not
      (List.exists (fun (a, b) -> a = here && b = next) avoid_links
      || List.exists (fun n -> n = here || n = next) avoid_nodes)

(* Links still needed to reach [dst] over the surviving graph, for every
   node within [max_hops] of it ([max_int] elsewhere): reverse BFS from
   [dst], expanding only through switches (routes cannot relay through
   endhosts or routers).  With [~stop] the search may end once [stop] is
   labelled: every node closer to [dst] than [stop] already is. *)
let dist_to_dst ?stop topo ~usable ~dst =
  let dist = Array.make (Topology.node_count topo) max_int in
  let reached () =
    match stop with Some s -> dist.(s) <> max_int | None -> false
  in
  let q = Queue.create () in
  dist.(dst) <- 0;
  Queue.add dst q;
  while not (Queue.is_empty q || reached ()) do
    let v = Queue.pop q in
    let d = dist.(v) + 1 in
    List.iter
      (fun u ->
        if dist.(u) = max_int && usable u v then begin
          dist.(u) <- d;
          if d < max_hops && Node.is_switch (Topology.node topo u) then
            Queue.add u q
        end)
      (Topology.in_neighbors topo v)
  done;
  dist

(* The surviving graph and its distance table, or [None] when no route of
   at most [max_hops] links can exist: an endpoint that cannot terminate a
   flow or is avoided, [src = dst], a source with every link avoided
   (caught before a search that would sweep the graph for it), or [dst]
   too far. *)
let search ?stop ~avoid_links ~avoid_nodes topo ~src ~dst =
  let endpoint n =
    Node.may_terminate_flow (Topology.node topo n)
    && not (List.mem n avoid_nodes)
  in
  if src = dst || (not (endpoint src)) || not (endpoint dst) then None
  else
    let usable = usable ~avoid_links ~avoid_nodes in
    if not (List.exists (usable src) (Topology.out_neighbors topo src)) then
      None
    else
      let dist = dist_to_dst ?stop topo ~usable ~dst in
      if dist.(src) > max_hops then None else Some (usable, dist)

let relays topo dist n =
  Node.is_switch (Topology.node topo n) && dist.(n) <> max_int

let all_routes ?(avoid_links = []) ?(avoid_nodes = []) topo ~src ~dst =
  match search ~avoid_links ~avoid_nodes topo ~src ~dst with
  | None -> []
  | Some (usable, dist) ->
      let results = ref [] in
      (* DFS over switch-only interiors.  [path] is reversed.  A branch is
         cut as soon as the optimistic completion [hops + dist] overshoots
         the budget, so the search is bounded by the routes it can still
         emit instead of the whole reachable cone. *)
      let rec explore here path hops =
        if hops > max_hops then ()
        else
          List.iter
            (fun next ->
              if (not (List.mem next path)) && usable here next then
                if next = dst then
                  results := List.rev (next :: path) :: !results
                else if relays topo dist next && hops + dist.(next) <= max_hops
                then explore next (next :: path) (hops + 1))
            (Topology.out_neighbors topo here)
      in
      explore src [ src ] 1;
      !results
      |> List.sort (fun a b ->
             match compare (List.length a) (List.length b) with
             | 0 -> compare a b
             | c -> c)
      |> List.map (Route.make topo)

let first_route ?(avoid_links = []) ?(avoid_nodes = []) topo ~src ~dst =
  match search ~stop:src ~avoid_links ~avoid_nodes topo ~src ~dst with
  | None -> None
  | Some (usable, dist) ->
      (* Each step takes the smallest-id neighbour one link closer to
         [dst], so the walk spells the least node sequence among the
         shortest routes.  The table guarantees such a neighbour exists. *)
      let rec walk here path =
        if here = dst then Some (Route.make topo (List.rev path))
        else
          let closer next =
            usable here next
            && dist.(next) = dist.(here) - 1
            && (next = dst || relays topo dist next)
          in
          let next =
            List.fold_left
              (fun best n -> if n < best && closer n then n else best)
              max_int
              (Topology.out_neighbors topo here)
          in
          walk next (next :: path)
      in
      walk src [ src ]

let rec take n = function
  | [] -> []
  | x :: rest -> if n <= 0 then [] else x :: take (n - 1) rest

let k_shortest ?avoid_links ?avoid_nodes ?(k = 4) topo ~src ~dst =
  take k (all_routes ?avoid_links ?avoid_nodes topo ~src ~dst)
