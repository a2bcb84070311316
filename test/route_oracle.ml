(* Test-side reference for the route rules of [Gmf_lint.Rules]: GMF005
   and GMF007 written as one search per flow, with no grouping by
   destination and no shared distance table.

   GMF005 runs an unbounded forward [Network.Topology.shortest_path]
   from the source.  GMF007 runs [Network.Pathfind.first_route] and then,
   for each link of that route, one more search with the link avoided: a
   second route exists iff some search succeeds.  The findings of a flow
   are its GMF005 hint, then its GMF007 hint, as in a lint pass. *)

let flow_subject (f : Traffic.Flow.t) =
  Gmf_diag.Flow { id = f.Traffic.Flow.id; name = f.Traffic.Flow.name }

let check_detour_route topo (f : Traffic.Flow.t) =
  let route = f.Traffic.Flow.route in
  let src = Network.Route.source route
  and dst = Network.Route.destination route in
  match Network.Topology.shortest_path topo ~src ~dst with
  | Some path when List.length path - 1 < Network.Route.hop_count route ->
      [
        Gmf_diag.hint ~code:"GMF005" ~subject:(flow_subject f)
          ~suggestion:
            (Printf.sprintf "a %d-hop path exists" (List.length path - 1))
          "route takes %d hops where %d suffice"
          (Network.Route.hop_count route)
          (List.length path - 1);
      ]
  | _ -> []

(* Only flows relayed through at least one switch are probed: a direct
   host-to-host wire is trivially its only route, and flagging it would
   drown every two-node scenario in hints.  Applied to the topology once
   per pass: the application shares the answer between flows. *)
let check_single_route topo =
  (* Existence, not enumeration: any second route omits some link of the
     first, so one is there iff avoiding some link of the first still
     leaves a route.  Links are tried from the destination end, where a
     route that cannot get round the avoided link usually fails fast.
     Flows sharing endpoints share the answer. *)
  let redundant = Hashtbl.create 16 in
  let has_second src dst =
    match Hashtbl.find_opt redundant (src, dst) with
    | Some b -> b
    | None ->
        let b =
          match Network.Pathfind.first_route topo ~src ~dst with
          | None -> false
          | Some first ->
              List.exists
                (fun hop ->
                  Option.is_some
                    (Network.Pathfind.first_route ~avoid_links:[ hop ] topo
                       ~src ~dst))
                (List.rev (Network.Route.hops first))
        in
        Hashtbl.replace redundant (src, dst) b;
        b
  in
  fun (f : Traffic.Flow.t) ->
    let route = f.Traffic.Flow.route in
    if Network.Route.intermediate_switches route = [] then []
    else
      let src = Network.Route.source route
      and dst = Network.Route.destination route in
      if has_second src dst then []
      else
        let name id = (Network.Topology.node topo id).Network.Node.name in
        [
          Gmf_diag.hint ~code:"GMF007" ~subject:(flow_subject f)
            ~suggestion:
              "add a redundant link so the flow can survive a failure \
               (gmfnet survive enumerates the cases)"
            "single point of failure: at most one route of up to %d links \
             from %s to %s"
            Network.Pathfind.max_hops (name src) (name dst);
        ]

(* The GMF005 and GMF007 findings on each of [flows], in order. *)
let findings topo flows =
  let single = check_single_route topo in
  List.map (fun f -> check_detour_route topo f @ single f) flows

(* [Network.Pathfind.summarize]'s answer to one query, from the same
   per-pair searches: [fewest] from [shortest_path], [second] from
   [all_routes]. *)
let summary topo (src, dst, within) =
  let endpoint n =
    Network.Node.may_terminate_flow (Network.Topology.node topo n)
  in
  if src = dst || not (endpoint src && endpoint dst) then
    { Network.Pathfind.fewest = None; second = false }
  else
    {
      Network.Pathfind.fewest =
        (match Network.Topology.shortest_path topo ~src ~dst with
        | Some path when List.length path - 1 <= max within Network.Pathfind.max_hops
          ->
            Some (List.length path - 1)
        | _ -> None);
      second =
        List.compare_length_with
          (Network.Pathfind.all_routes topo ~src ~dst)
          2
        >= 0;
    }
