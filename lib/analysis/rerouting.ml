type decision = {
  admitted : bool;
  route : Network.Route.t option;
  attempts : int;
  report : Holistic.report;
}

let with_route flow route =
  Traffic.Flow.make ~id:flow.Traffic.Flow.id ~name:flow.Traffic.Flow.name
    ~spec:flow.Traffic.Flow.spec ~encap:flow.Traffic.Flow.encap ~route
    ~priority:flow.Traffic.Flow.priority
(* Remarks are dropped deliberately: they name hops of the old route. *)

let route_avoids ?(avoid_links = []) ?(avoid_nodes = []) route =
  List.for_all (fun hop -> not (List.mem hop avoid_links))
    (Network.Route.hops route)
  && List.for_all
       (fun n -> not (List.mem n avoid_nodes))
       (Network.Route.nodes route)

let candidate_routes ?(max_routes = 4) ?avoid_links ?avoid_nodes topo flow =
  let own = flow.Traffic.Flow.route in
  let alternatives =
    Network.Pathfind.k_shortest ~k:max_routes ?avoid_links ?avoid_nodes topo
      ~src:(Network.Route.source own)
      ~dst:(Network.Route.destination own)
    |> List.filter (fun r ->
           Network.Route.nodes r <> Network.Route.nodes own)
  in
  if route_avoids ?avoid_links ?avoid_nodes own then own :: alternatives
  else alternatives

(* First-match search over candidate routes, in order, through the case
   layer's memo: the first schedulable route wins and [attempts] counts
   the routes analyzed up to and including it. *)
let try_routes ?config ~base_flows ~topo ~switches flow routes =
  let rec go attempts last = function
    | [] -> (None, attempts, last)
    | route :: rest ->
        let report =
          Case.analyze ?config
            (Traffic.Scenario.make ~switches ~topo
               ~flows:(base_flows @ [ with_route flow route ])
               ())
        in
        if Holistic.is_schedulable report then
          (Some route, attempts + 1, Some report)
        else go (attempts + 1) (Some report) rest
  in
  go 0 None routes

let switch_models scenario =
  Traffic.Scenario.switch_nodes scenario
  |> List.map (fun n -> (n, Traffic.Scenario.switch_model scenario n))

let admit ?config ?max_routes ?avoid_links ?avoid_nodes scenario
    ~candidate =
  let topo = Traffic.Scenario.topo scenario in
  let routes =
    candidate_routes ?max_routes ?avoid_links ?avoid_nodes topo candidate
  in
  let accepted, attempts, report =
    try_routes ?config
      ~base_flows:(Traffic.Scenario.flows scenario)
      ~topo
      ~switches:(switch_models scenario)
      candidate routes
  in
  let report =
    match report with
    | Some r -> r
    | None -> Holistic.analyze ?config scenario
  in
  { admitted = accepted <> None; route = accepted; attempts; report }

let admit_greedily ?config ?max_routes ~topo ~switches candidates =
  let rec go accepted rejected = function
    | [] -> (List.rev accepted, List.rev rejected)
    | candidate :: rest -> begin
        let routes = candidate_routes ?max_routes topo candidate in
        let found, _, _ =
          try_routes ?config ~base_flows:(List.rev accepted) ~topo
            ~switches candidate routes
        in
        match found with
        | Some route ->
            go (with_route candidate route :: accepted) rejected rest
        | None -> go accepted (candidate :: rejected) rest
      end
  in
  go [] [] candidates
