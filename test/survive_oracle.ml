(* Test-side reference for [Gmf_faults.Survive.run]: the greedy
   reroute-and-shed policy written out directly, with no delta engine,
   no precheck, no case memo and no route cache.

   Per failure case: take out the failed links (both directions) and
   switches (with every incident link), move each flow whose route
   crosses them to the head of [Network.Pathfind.all_routes] avoiding
   them (shed it when there is none), then evaluate the survivors —
   the Gmf_lint error gate, then a monolithic [Analysis.Holistic.analyze]
   — and shed the head of [Survive.shed_order] until the set is
   schedulable or empty.  Rounds and delta statistics depend on the
   engine, so the reference reports 0 rounds and no delta totals;
   compare schedulability class, fates, matrix and shed set. *)

module Survive = Gmf_faults.Survive

let failed_parts topo case =
  let incident n =
    List.filter_map
      (fun (l : Network.Link.t) ->
        if l.Network.Link.src = n || l.Network.Link.dst = n then
          Some (l.Network.Link.src, l.Network.Link.dst)
        else None)
      (Network.Topology.links topo)
  in
  List.fold_left
    (fun (links, nodes) -> function
      | Survive.Link (a, b) -> ((a, b) :: (b, a) :: links, nodes)
      | Survive.Switch n -> (incident n @ links, n :: nodes))
    ([], []) case

let crosses route ~links ~nodes =
  List.exists (fun hop -> List.mem hop links) (Network.Route.hops route)
  || List.exists (Network.Route.mem route) nodes

let evaluate ~config scenario =
  match Gmf_lint.Lint.errors (Gmf_lint.Lint.run ~config scenario) with
  | [] -> Analysis.Holistic.analyze ~config scenario
  | errors -> Analysis.Admission.rejected errors

let eval_case ~config scenario case =
  let topo = Traffic.Scenario.topo scenario in
  let switches =
    List.map
      (fun n -> (n, Traffic.Scenario.switch_model scenario n))
      (Traffic.Scenario.switch_nodes scenario)
  in
  let links, nodes = failed_parts topo case in
  let placed =
    List.map
      (fun (f : Traffic.Flow.t) ->
        let route = f.Traffic.Flow.route in
        if not (crosses route ~links ~nodes) then
          (f, Survive.Unaffected, Some f)
        else
          match
            Network.Pathfind.all_routes ~avoid_links:links ~avoid_nodes:nodes
              topo
              ~src:(Network.Route.source route)
              ~dst:(Network.Route.destination route)
          with
          | [] -> (f, Survive.Shed, None)
          | alt :: _ ->
              ( f,
                Survive.Rerouted alt,
                Some (Analysis.Rerouting.with_route f alt) ))
      (Traffic.Scenario.flows scenario)
  in
  let rec settle survivors shed =
    let report =
      evaluate ~config
        (Traffic.Scenario.make ~switches ~topo ~flows:survivors ())
    in
    if Analysis.Holistic.is_schedulable report then (report, shed)
    else
      match Survive.shed_order survivors with
      | [] -> (report, shed)
      | victim :: _ ->
          settle
            (List.filter
               (fun (f : Traffic.Flow.t) ->
                 f.Traffic.Flow.id <> victim.Traffic.Flow.id)
               survivors)
            (victim.Traffic.Flow.id :: shed)
  in
  let report, shed = settle (List.filter_map (fun (_, _, s) -> s) placed) [] in
  {
    Survive.case;
    fates =
      List.map
        (fun ((f : Traffic.Flow.t), fate, _) ->
          if List.mem f.Traffic.Flow.id shed then (f, Survive.Shed)
          else (f, fate))
        placed;
    verdict = report.Analysis.Holistic.verdict;
    rounds = 0;
    delta = None;
  }

let run ?(config = Analysis.Config.default) ~k ?domain scenario =
  let comps =
    match domain with Some d -> d | None -> Survive.components scenario
  in
  let cases =
    List.map (eval_case ~config scenario) (Survive.failure_cases ~k comps)
  in
  let matrix =
    List.map
      (fun (f : Traffic.Flow.t) ->
        let fates = List.map (fun c -> List.assq f c.Survive.fates) cases in
        ( f,
          if List.mem Survive.Shed fates then Survive.Must_shed
          else if
            List.exists (function Survive.Rerouted _ -> true | _ -> false) fates
          then Survive.Survives_with_reroute
          else Survive.Survives ))
      (Traffic.Scenario.flows scenario)
  in
  {
    Survive.k;
    base = Analysis.Holistic.analyze ~config scenario;
    cases;
    matrix;
    shed_set =
      List.filter_map
        (fun (f, v) -> if v = Survive.Must_shed then Some f else None)
        matrix;
    delta_totals = None;
  }
