open Analysis

type hint = Payload_scale of float | Priority of int

let describe = function
  | Payload_scale s -> Printf.sprintf "scale the flow's payloads by %.3f" s
  | Priority p -> Printf.sprintf "change the flow's priority to %d" p

let rebuild_with scenario ~flow_id ~f =
  Traffic.Scenario.map_flows scenario ~f:(fun flow ->
      if flow.Traffic.Flow.id = flow_id then f flow else flow)

let with_priority flow priority =
  let rebuilt =
    Traffic.Flow.make ~id:flow.Traffic.Flow.id ~name:flow.Traffic.Flow.name
      ~spec:flow.Traffic.Flow.spec ~encap:flow.Traffic.Flow.encap
      ~route:flow.Traffic.Flow.route ~priority
  in
  Traffic.Flow.with_remarks rebuilt flow.Traffic.Flow.remarks

let payload_hint ?config scenario ~flow_id =
  let build ~scale =
    rebuild_with scenario ~flow_id ~f:(fun flow ->
        Traffic.Flow.scale_payloads flow scale)
  in
  match Sensitivity.max_payload_scale ?config ~hi:1.0 ~build () with
  | Some scale when scale < 1.0 -> Some (Payload_scale scale)
  | _ -> None

let priority_hint ?config scenario ~flow_id =
  let current = (Traffic.Scenario.flow scenario flow_id).Traffic.Flow.priority in
  (* Probe the other 802.1p classes top-down: the smallest change that
     admits is usually a raise, but a lower class can also help (it takes
     this flow out of higher flows' hep sets). *)
  let candidates =
    List.init 8 (fun p -> 7 - p) |> List.filter (fun p -> p <> current)
  in
  List.find_map
    (fun priority ->
      let probe =
        rebuild_with scenario ~flow_id ~f:(fun flow ->
            with_priority flow priority)
      in
      if Case.schedulable ?config probe then Some (Priority priority)
      else None)
    candidates

let for_flow ?config scenario ~flow_id () =
  if not (List.exists
            (fun f -> f.Traffic.Flow.id = flow_id)
            (Traffic.Scenario.flows scenario))
  then invalid_arg "Hints.for_flow: unknown flow id";
  List.filter_map
    (fun probe -> probe ?config scenario ~flow_id)
    [ payload_hint; priority_hint ]
