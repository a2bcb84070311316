(* Test-side reference for [Traffic.Scenario]'s load table: the eq-(20)
   and eqs-(34)-(35) sums written as one fold over [flows_on] per stage,
   with no table, as every reader computed them before the scenario
   summed them once.  [used_links] and [crossed] are the sets lint
   walked, built the way lint built them. *)

let link_utilization scenario ~src ~dst =
  Traffic.Scenario.flows_on scenario ~src ~dst
  |> List.fold_left
       (fun acc f ->
         acc
         +. Traffic.Link_params.utilization
              (Traffic.Scenario.params scenario f ~src ~dst))
       0.

let ingress_utilization scenario ~src ~node =
  let circ = Traffic.Scenario.circ scenario node in
  List.fold_left
    (fun acc f ->
      let p = Traffic.Scenario.params scenario f ~src ~dst:node in
      acc
      +. float_of_int (Traffic.Link_params.nsum p * circ)
         /. float_of_int (Traffic.Flow.tsum f))
    0.
    (Traffic.Scenario.flows_on scenario ~src ~dst:node)

let route_overloads scenario (flow : Traffic.Flow.t) =
  let route = flow.Traffic.Flow.route in
  let links =
    List.filter_map
      (fun (src, dst) ->
        let u = link_utilization scenario ~src ~dst in
        if u >= 1. then
          Some (Gmf_precheck.Static_tests.Link_overload { src; dst }, u)
        else None)
      (Network.Route.hops route)
  in
  let ingresses =
    List.filter_map
      (fun node ->
        let src = Network.Route.prec route node in
        let u = ingress_utilization scenario ~src ~node in
        if u >= 1. then
          Some (Gmf_precheck.Static_tests.Ingress_overload { src; node }, u)
        else None)
      (Network.Route.intermediate_switches route)
  in
  links @ ingresses

(* Every used directed link, in the order lint's per-link rules listed
   them: a table of initial size 16 filled flow by flow, hop by hop,
   folded onto a list. *)
let used_links scenario =
  let used = Hashtbl.create 16 in
  List.iter
    (fun (f : Traffic.Flow.t) ->
      List.iter
        (fun hop -> Hashtbl.replace used hop ())
        (Network.Route.hops f.Traffic.Flow.route))
    (Traffic.Scenario.flows scenario);
  Hashtbl.fold (fun hop () acc -> hop :: acc) used []

(* Every crossed ingress (prec, switch), ascending. *)
let crossed scenario =
  List.concat_map
    (fun (f : Traffic.Flow.t) ->
      let route = f.Traffic.Flow.route in
      List.map
        (fun node -> (Network.Route.prec route node, node))
        (Network.Route.intermediate_switches route))
    (Traffic.Scenario.flows scenario)
  |> List.sort_uniq compare
