type queue_bound = {
  node : Network.Node.id;
  peer : Network.Node.id;
  frames : int;
  bits : int;
}

(* Worst per-flow stage response at [stage] across the flow's frames, read
   from the holistic report. *)
let stage_response report flow stage =
  let result =
    List.find_opt
      (fun r -> r.Result_types.flow.Traffic.Flow.id = flow.Traffic.Flow.id)
      report.Holistic.results
  in
  match result with
  | None -> None
  | Some r ->
      Array.to_list r.Result_types.frames
      |> List.concat_map (fun fr -> fr.Result_types.stages)
      |> List.filter_map (fun (sr : Result_types.stage_response) ->
             if Stage.equal sr.Result_types.stage stage then
               Some sr.Result_types.response
             else None)
      |> function
      | [] -> None
      | responses -> Some (List.fold_left max 0 responses)

let schedulable_or_error report =
  match report.Holistic.verdict with
  | Holistic.Schedulable | Holistic.Deadline_miss _ -> Ok ()
  | v ->
      Error
        (Format.asprintf
           "backlog bounds need converged response times, but the analysis \
            reported: %a"
           Holistic.pp_verdict v)

(* Generic: for every (switch, peer, stage, counting link) triple gather the
   flows and sum their NX over residence + jitter. *)
let bounds_for ctx report ~queues =
  match schedulable_or_error report with
  | Error _ as e -> e
  | Ok () ->
      let scenario = Ctx.scenario ctx in
      Ok
        (List.map
           (fun (node, peer, stage, (count_src, count_dst)) ->
             let flows =
               Traffic.Scenario.flows_on scenario ~src:count_src
                 ~dst:count_dst
             in
             let frames =
               List.fold_left
                 (fun acc flow ->
                   match stage_response report flow stage with
                   | None -> acc
                   | Some residence ->
                       let extra = Ctx.extra ctx flow ~stage in
                       acc
                       + Ctx.nx ctx flow ~src:count_src ~dst:count_dst
                           ~dt:(residence + extra))
                 0 flows
             in
             {
               node;
               peer;
               frames;
               bits = frames * Ethernet.Constants.eth_max_frame_bits;
             })
           queues)

let dedup_queues keys =
  List.sort_uniq compare keys

let egress_bounds ctx report =
  let scenario = Ctx.scenario ctx in
  let queues =
    Traffic.Scenario.flows scenario
    |> List.concat_map (fun flow ->
           Network.Route.intermediate_switches flow.Traffic.Flow.route
           |> List.map (fun n ->
                  (n, Network.Route.succ flow.Traffic.Flow.route n)))
    |> dedup_queues
    |> List.map (fun (n, d) -> (n, d, Stage.Egress (n, d), (n, d)))
  in
  bounds_for ctx report ~queues

let ingress_bounds ctx report =
  let scenario = Ctx.scenario ctx in
  let queues =
    Traffic.Scenario.flows scenario
    |> List.concat_map (fun flow ->
           Network.Route.intermediate_switches flow.Traffic.Flow.route
           |> List.map (fun n ->
                  (n, Network.Route.prec flow.Traffic.Flow.route n)))
    |> dedup_queues
    |> List.map (fun (n, p) -> (n, p, Stage.Ingress n, (p, n)))
  in
  bounds_for ctx report ~queues
