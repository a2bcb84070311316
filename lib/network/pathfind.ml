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

type summary = { fewest : int option; second : bool }

let summarize topo queries =
  let queries = Array.of_list queries in
  let answers =
    Array.make (Array.length queries) { fewest = None; second = false }
  in
  (* Scratch, shared by every destination: distances to the destination
     at hand ([max_int] when unlabelled) and the reverse BFS queue from
     it, [queue.(0)].  The queue lists every labelled node, so the next
     destination resets only those; nodes before [head] are expanded. *)
  let size = Topology.node_count topo in
  let dist = Array.make size max_int and queue = Array.make size 0 in
  let seen = Array.make size 0 and stamp = ref 0 in
  let head = ref 0 and tail = ref 0 in
  let switch n = Node.is_switch (Topology.node topo n) in
  let endpoint n = Node.may_terminate_flow (Topology.node topo n) in
  let start dst =
    for i = 0 to !tail - 1 do
      dist.(queue.(i)) <- max_int
    done;
    dist.(dst) <- 0;
    queue.(0) <- dst;
    head := 0;
    tail := 1
  in
  (* [dist_to_dst] without avoided parts, resumable: the search goes on
     until [stop] is labelled or every node within [level] links is.
     Only the labels a question needs are paid for. *)
  let rec label ~stop ~level =
    if dist.(stop) = max_int && !head < !tail && dist.(queue.(!head)) < level
    then begin
      let v = queue.(!head) in
      incr head;
      if v = queue.(0) || switch v then
        List.iter
          (fun u ->
            if dist.(u) = max_int then begin
              dist.(u) <- dist.(v) + 1;
              queue.(!tail) <- u;
              incr tail
            end)
          (Topology.in_neighbors topo v);
      label ~stop ~level
    end
  in
  (* Up to [upto] shortest routes from labelled [v] to [dst]: each step
     goes one link closer through a switch.  Every level below [v]'s is
     fully labelled, and every labelled switch has such a step, so no
     branch dead-ends. *)
  let rec shortest ~dst ~upto v =
    if v = dst then 1
    else
      List.fold_left
        (fun found next ->
          if
            found < upto
            && dist.(next) = dist.(v) - 1
            && (next = dst || switch next)
          then found + shortest ~dst ~upto:(upto - found) next
          else found)
        0
        (Topology.out_neighbors topo v)
  in
  (* Whether [n] lies within [level] links, labelling no further than
     that takes. *)
  let near n level =
    label ~stop:n ~level;
    dist.(n) <= level
  in
  (* Whether a route of at most [budget] links leaves [spur] by another
     link than the one to [skip] and reaches [dst] through switches, away
     from the nodes stamped [!stamp]: a BFS from [spur] that drops a node
     [h] links out unless [h + dist] fits the budget. *)
  let rec detour ~dst ~budget ~skip frontier h =
    let reached = ref false in
    let next =
      List.fold_left
        (fun next v ->
          List.fold_left
            (fun next x ->
              if !reached || (h = 0 && x = skip) || seen.(x) = !stamp then next
              else if x = dst then (reached := true; next)
              else if switch x && near x (budget - h - 1) then begin
                seen.(x) <- !stamp;
                x :: next
              end
              else next)
            next
            (Topology.out_neighbors topo v))
        [] frontier
    in
    !reached || (next <> [] && detour ~dst ~budget ~skip next (h + 1))
  in
  (* A second route exists iff one leaves the shortest route [p] at some
     node [p_i] (Yen's spur): [i] links along [p], then a detour of at most
     [max_hops - i] links that avoids [p_0 .. p_i].  [p] is walked one
     closer step at a time. *)
  let second ~dst src =
    let rec spur prefix v i =
      let next =
        List.find
          (fun n -> dist.(n) = dist.(v) - 1 && (n = dst || switch n))
          (Topology.out_neighbors topo v)
      in
      let prefix = v :: prefix in
      incr stamp;
      List.iter (fun n -> seen.(n) <- !stamp) prefix;
      detour ~dst ~budget:(max_hops - i) ~skip:next [ v ] 0
      || (next <> dst && spur prefix next (i + 1))
    in
    dist.(src) <= max_hops
    && (shortest ~dst ~upto:2 src >= 2 || spur [] src 0)
  in
  let by_dst = Hashtbl.create 64 in
  Array.iteri
    (fun i (_, dst, _) ->
      Hashtbl.replace by_dst dst
        (i :: Option.value ~default:[] (Hashtbl.find_opt by_dst dst)))
    queries;
  let seconds = Hashtbl.create 16 in
  Hashtbl.iter
    (fun dst group ->
      if endpoint dst then begin
        start dst;
        Hashtbl.clear seconds;
        List.iter
          (fun i ->
            let src, _, within = queries.(i) in
            if src <> dst && endpoint src then begin
              let level = max within max_hops in
              label ~stop:src ~level;
              let second =
                match Hashtbl.find_opt seconds src with
                | Some b -> b
                | None ->
                    let b = second ~dst src in
                    Hashtbl.replace seconds src b;
                    b
              in
              let d = dist.(src) in
              answers.(i) <-
                { fewest = (if d <= level then Some d else None); second }
            end)
          group
      end)
    by_dst;
  Array.to_list answers

let rec take n = function
  | [] -> []
  | x :: rest -> if n <= 0 then [] else x :: take (n - 1) rest

let k_shortest ?avoid_links ?avoid_nodes ?(k = 4) topo ~src ~dst =
  take k (all_routes ?avoid_links ?avoid_nodes topo ~src ~dst)
