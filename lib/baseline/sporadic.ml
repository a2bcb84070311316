let convert_spec spec =
  let frames = Gmf.Spec.frames spec in
  let positive_periods =
    Array.to_list frames
    |> List.filter_map (fun (f : Gmf.Frame_spec.t) ->
           if f.period > 0 then Some f.period else None)
  in
  let period =
    match positive_periods with
    | [] -> invalid_arg "Sporadic.convert_spec: no positive period"
    | p :: rest -> List.fold_left min p rest
  in
  let fold f init = Array.fold_left f init frames in
  let payload =
    fold (fun acc (fr : Gmf.Frame_spec.t) -> max acc fr.payload_bits) 0
  in
  let deadline = Gmf.Spec.min_deadline spec in
  let jitter = Gmf.Spec.max_jitter spec in
  Gmf.Spec.make
    [ Gmf.Frame_spec.make ~period ~deadline ~jitter ~payload_bits:payload ]

let convert_flow flow =
  Traffic.Flow.with_remarks
    (Traffic.Flow.make ~id:flow.Traffic.Flow.id ~name:flow.Traffic.Flow.name
       ~spec:(convert_spec flow.Traffic.Flow.spec)
       ~encap:flow.Traffic.Flow.encap ~route:flow.Traffic.Flow.route
       ~priority:flow.Traffic.Flow.priority)
    flow.Traffic.Flow.remarks

let convert_scenario scenario =
  Traffic.Scenario.map_flows scenario ~f:convert_flow

let analyze ?config scenario =
  Analysis.Holistic.analyze ?config (convert_scenario scenario)

let check ?config scenario =
  let report = analyze ?config scenario in
  { Analysis.Admission.admitted = Analysis.Holistic.is_schedulable report;
    report; diagnostics = [] }

(* The accepted scenario holds the converted flows; the admitted list
   the original ones. *)
let admit_greedily ?config ~topo candidates =
  Analysis.Admission.greedily ~topo candidates ~try_add:(fun base candidate ->
      let extended =
        Traffic.Scenario.with_flows base
          (Traffic.Scenario.flows base @ [ convert_flow candidate ])
      in
      if Analysis.Holistic.is_schedulable (Analysis.Holistic.analyze ?config extended)
      then Some (candidate, extended)
      else None)
