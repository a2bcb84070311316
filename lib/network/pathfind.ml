(* Lower bound on the number of links still needed to reach [dst] from
   every node: reverse BFS from [dst], expanding only through switches
   (routes cannot relay through endhosts or routers).  Computed on the
   full topology — avoid sets only remove edges, so the bound stays
   admissible and one table serves every avoid combination. *)
let dist_to_dst topo ~dst =
  let n = Topology.node_count topo in
  let dist = Array.make n max_int in
  let q = Queue.create () in
  dist.(dst) <- 0;
  Queue.add dst q;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    let d = dist.(v) in
    List.iter
      (fun u ->
        if dist.(u) = max_int then begin
          dist.(u) <- d + 1;
          if Node.is_switch (Topology.node topo u) then Queue.add u q
        end)
      (Topology.in_neighbors topo v)
  done;
  dist

let all_routes_with ~dist ?(max_hops = 8) ?(avoid_links = [])
    ?(avoid_nodes = []) topo ~src ~dst =
  if max_hops < 1 then invalid_arg "Pathfind.all_routes: max_hops < 1";
  let ok_endpoint n = Node.may_terminate_flow (Topology.node topo n) in
  if
    (not (ok_endpoint src))
    || (not (ok_endpoint dst))
    || List.mem src avoid_nodes || List.mem dst avoid_nodes
    || dist.(src) > max_hops
  then []
  else begin
    let bad_link = Hashtbl.create (List.length avoid_links) in
    List.iter (fun l -> Hashtbl.replace bad_link l ()) avoid_links;
    let bad_node = Hashtbl.create (List.length avoid_nodes) in
    List.iter (fun n -> Hashtbl.replace bad_node n ()) avoid_nodes;
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
            if
              (not (List.mem next path))
              && (not (Hashtbl.mem bad_link (here, next)))
              && not (Hashtbl.mem bad_node next)
            then
              if next = dst then
                results := List.rev (next :: path) :: !results
              else if
                Node.is_switch (Topology.node topo next)
                && dist.(next) <> max_int
                && hops + dist.(next) <= max_hops
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
  end

let all_routes ?max_hops ?avoid_links ?avoid_nodes topo ~src ~dst =
  let dist = dist_to_dst topo ~dst in
  all_routes_with ~dist ?max_hops ?avoid_links ?avoid_nodes topo ~src ~dst

exception Enough

let has_at_least ?(max_hops = 8) ?(avoid_links = []) ?(avoid_nodes = []) topo
    ~src ~dst n =
  if n <= 0 then true
  else if max_hops < 1 then invalid_arg "Pathfind.has_at_least: max_hops < 1"
  else
    let ok_endpoint x = Node.may_terminate_flow (Topology.node topo x) in
    if
      (not (ok_endpoint src))
      || (not (ok_endpoint dst))
      || List.mem src avoid_nodes || List.mem dst avoid_nodes
    then false
    else begin
      let dist = dist_to_dst topo ~dst in
      if dist.(src) > max_hops then false
      else begin
        let bad_link = Hashtbl.create (List.length avoid_links) in
        List.iter (fun l -> Hashtbl.replace bad_link l ()) avoid_links;
        let bad_node = Hashtbl.create (List.length avoid_nodes) in
        List.iter (fun x -> Hashtbl.replace bad_node x ()) avoid_nodes;
        let found = ref 0 in
        let rec explore here path hops =
          if hops > max_hops then ()
          else
            List.iter
              (fun next ->
                if
                  (not (List.mem next path))
                  && (not (Hashtbl.mem bad_link (here, next)))
                  && not (Hashtbl.mem bad_node next)
                then
                  if next = dst then begin
                    incr found;
                    if !found >= n then raise Enough
                  end
                  else if
                    Node.is_switch (Topology.node topo next)
                    && dist.(next) <> max_int
                    && hops + dist.(next) <= max_hops
                  then explore next (next :: path) (hops + 1))
              (Topology.out_neighbors topo here)
        in
        (try explore src [ src ] 1 with Enough -> ());
        !found >= n
      end
    end

let rec take n = function
  | [] -> []
  | x :: rest -> if n <= 0 then [] else x :: take (n - 1) rest

let k_shortest ?max_hops ?avoid_links ?avoid_nodes ?(k = 4) topo ~src ~dst =
  take k (all_routes ?max_hops ?avoid_links ?avoid_nodes topo ~src ~dst)

let route_capacity topo route =
  Route.links route topo
  |> List.fold_left (fun acc (l : Link.t) -> min acc l.rate_bps) max_int

module Cache = struct
  type key = {
    k_src : Node.id;
    k_dst : Node.id;
    k_max_hops : int;
    k_avoid_links : (Node.id * Node.id) list; (* sorted *)
    k_avoid_nodes : Node.id list; (* sorted *)
  }

  type t = {
    topo : Topology.t;
    dists : (Node.id, int array) Hashtbl.t;
    routes : (key, Route.t list) Hashtbl.t;
    mutable hits : int;
    mutable misses : int;
  }

  let create topo =
    {
      topo;
      dists = Hashtbl.create 64;
      routes = Hashtbl.create 256;
      hits = 0;
      misses = 0;
    }

  let dist t ~dst =
    match Hashtbl.find_opt t.dists dst with
    | Some d -> d
    | None ->
        let d = dist_to_dst t.topo ~dst in
        Hashtbl.replace t.dists dst d;
        d

  let all_routes ?(max_hops = 8) ?(avoid_links = []) ?(avoid_nodes = []) t
      ~src ~dst =
    let key =
      {
        k_src = src;
        k_dst = dst;
        k_max_hops = max_hops;
        k_avoid_links = List.sort compare avoid_links;
        k_avoid_nodes = List.sort compare avoid_nodes;
      }
    in
    match Hashtbl.find_opt t.routes key with
    | Some r ->
        t.hits <- t.hits + 1;
        r
    | None ->
        t.misses <- t.misses + 1;
        let dist = dist t ~dst in
        let r =
          all_routes_with ~dist ~max_hops ~avoid_links ~avoid_nodes t.topo
            ~src ~dst
        in
        Hashtbl.replace t.routes key r;
        r

  let k_shortest ?max_hops ?avoid_links ?avoid_nodes ?(k = 4) t ~src ~dst =
    take k (all_routes ?max_hops ?avoid_links ?avoid_nodes t ~src ~dst)

  let shortest_len t ~src ~dst =
    let d = (dist t ~dst).(src) in
    if d = max_int then None else Some d

  let hits t = t.hits
  let misses t = t.misses
end
