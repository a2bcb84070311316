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

let candidate_routes topo flow =
  let own = flow.Traffic.Flow.route in
  own
  :: (Network.Pathfind.k_shortest topo
        ~src:(Network.Route.source own)
        ~dst:(Network.Route.destination own)
     |> List.filter (fun r ->
            Network.Route.nodes r <> Network.Route.nodes own))

(* First-match search over candidate routes, in order, through the case
   layer's memo: each attempt is [base] plus the flow on that route, the
   first schedulable one wins (returned with its scenario) and [attempts]
   counts the routes analyzed up to and including it. *)
let try_routes ?config base flow routes =
  let rec go attempts last = function
    | [] -> (None, attempts, last)
    | route :: rest ->
        let rerouted = with_route flow route in
        let extended =
          Traffic.Scenario.with_flows base
            (Traffic.Scenario.flows base @ [ rerouted ])
        in
        let report = Case.analyze ?config extended in
        if Holistic.is_schedulable report then
          (Some (rerouted, extended), attempts + 1, Some report)
        else go (attempts + 1) (Some report) rest
  in
  go 0 None routes

let admit ?config scenario ~candidate =
  let routes =
    candidate_routes (Traffic.Scenario.topo scenario) candidate
  in
  let accepted, attempts, report =
    try_routes ?config scenario candidate routes
  in
  let report =
    match report with
    | Some r -> r
    | None -> Holistic.analyze ?config scenario
  in
  let route = Option.map (fun (f, _) -> f.Traffic.Flow.route) accepted in
  { admitted = route <> None; route; attempts; report }

let admit_greedily ?config ~topo candidates =
  Admission.greedily ~topo candidates ~try_add:(fun base candidate ->
      let routes = candidate_routes topo candidate in
      let found, _, _ = try_routes ?config base candidate routes in
      found)
