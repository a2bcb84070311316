let m_components_run =
  Gmf_obs.Metrics.counter Gmf_obs.Metrics.default "precheck.components_run"

let m_fixpoints_skipped =
  Gmf_obs.Metrics.counter Gmf_obs.Metrics.default "precheck.fixpoints_skipped"

(* A derived scenario (Traffic.Scenario.with_flows): the stage
   recurrences of the member flows only consult flows_on / entering
   sets, which hold only members when the flows are whole components,
   and the models of the switches on member routes, which the
   restriction keeps — so the result is byte-equal, and the members'
   link tables are shared. *)
let sub_scenario scenario flows =
  if List.length flows = Traffic.Scenario.flow_count scenario then scenario
  else Traffic.Scenario.with_flows scenario flows

let stage_of_inequality = function
  | Gmf_precheck.Precheck.Demand_floor { stage; _ }
  | Gmf_precheck.Precheck.One_shot_bound { stage; _ } ->
      Some stage
  | Gmf_precheck.Precheck.Eq20_link_overload _
  | Gmf_precheck.Precheck.Eq34_35_ingress_overload _ ->
      None

let frame_of_inequality = function
  | Gmf_precheck.Precheck.Demand_floor { frame; _ }
  | Gmf_precheck.Precheck.One_shot_bound { frame; _ } ->
      frame
  | Gmf_precheck.Precheck.Eq20_link_overload _
  | Gmf_precheck.Precheck.Eq34_35_ingress_overload _ ->
      0

let failure_of_certificate flow_id (cert : Gmf_precheck.Precheck.certificate) =
  {
    Result_types.flow_id;
    frame = frame_of_inequality cert.Gmf_precheck.Precheck.inequality;
    failed_stage = stage_of_inequality cert.Gmf_precheck.Precheck.inequality;
    reason =
      Format.asprintf "statically infeasible: %a"
        Gmf_precheck.Precheck.pp_certificate cert;
  }

(* A certified flow never enters any fixpoint: its result carries the
   certified per-frame ceilings with no stage breakdown. *)
let certified_result flow ceilings =
  let deadlines = Gmf.Spec.deadlines flow.Traffic.Flow.spec in
  let frames =
    Array.mapi
      (fun k total ->
        { Result_types.frame = k; stages = []; total; deadline = deadlines.(k) })
      ceilings
  in
  { Result_types.flow; frames }

(* One undecided component's fixpoint, read back from [reports] or run
   and kept there. *)
let component_report ~config ?reports scenario members =
  match
    Option.bind reports (fun t ->
        Gmf_precheck.Reuse.find t ~config scenario members)
  with
  | Some r -> r
  | None ->
      let r = Case.analyze ~config (sub_scenario scenario members) in
      Option.iter
        (fun t -> Gmf_precheck.Reuse.add t ~config scenario members r)
        reports;
      r

let analyze ?(config = Config.default) ?table ?reports scenario =
  let pre = Gmf_precheck.Precheck.run ~config ?table scenario in
  let infeasible = Gmf_precheck.Precheck.infeasible pre
  and certified = Gmf_precheck.Precheck.certified pre
  and to_run = Gmf_precheck.Precheck.undecided_components pre in
  let fixpoints =
    List.map
      (fun (c : Gmf_precheck.Igraph.component) ->
        component_report ~config ?reports scenario
          c.Gmf_precheck.Igraph.members)
      to_run
  in
  if Gmf_obs.Metrics.enabled Gmf_obs.Metrics.default then begin
    Gmf_obs.Metrics.incr ~by:(List.length to_run) m_components_run;
    Gmf_obs.Metrics.incr
      ~by:(pre.Gmf_precheck.Precheck.stats.Gmf_precheck.Igraph.components
         - List.length to_run)
      m_fixpoints_skipped
  end;
  (* The certificates come first, so a flow's certificate sorts before
     any other failure of it. *)
  let certificates =
    List.map
      (fun (v : Gmf_precheck.Precheck.flow_verdict) ->
        match v.Gmf_precheck.Precheck.verdict with
        | Gmf_precheck.Precheck.Infeasible cert ->
            failure_of_certificate v.Gmf_precheck.Precheck.flow_id cert
        | _ -> assert false)
      infeasible
  and ceilings =
    List.filter_map
      (fun (v : Gmf_precheck.Precheck.flow_verdict) ->
        Option.map
          (certified_result
             (Traffic.Scenario.flow scenario v.Gmf_precheck.Precheck.flow_id))
          v.Gmf_precheck.Precheck.ceilings)
      certified
  in
  let decided verdict results = { Holistic.verdict; rounds = 0; results } in
  let report =
    Holistic.merge (Traffic.Scenario.flows scenario)
      ((decided (Holistic.Analysis_failed certificates) [] :: fixpoints)
      @ [ decided Holistic.Schedulable ceilings ])
  in
  (report, pre)
