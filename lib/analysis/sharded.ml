type stats = {
  components : int;
  components_run : int;
  flows : int;
  flows_infeasible : int;
  flows_certified : int;
}

let m_components_run =
  Gmf_obs.Metrics.counter Gmf_obs.Metrics.default "precheck.components_run"

let m_fixpoints_skipped =
  Gmf_obs.Metrics.counter Gmf_obs.Metrics.default "precheck.fixpoints_skipped"

(* A derived scenario (Traffic.Scenario.with_flows): the stage
   recurrences of the member flows only consult flows_on / entering
   sets, which the membership filter restricts identically, and the
   models of the switches on member routes, which it keeps — so the
   result is byte-equal, and the members' link tables are shared. *)
let sub_scenario scenario flow_ids =
  let keep = Hashtbl.create (List.length flow_ids) in
  List.iter (fun id -> Hashtbl.replace keep id ()) flow_ids;
  let flows =
    List.filter
      (fun f -> Hashtbl.mem keep f.Traffic.Flow.id)
      (Traffic.Scenario.flows scenario)
  in
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

let analyze ?(config = Config.default) scenario =
  let pre = Gmf_precheck.Precheck.run ~config scenario in
  let infeasible = Gmf_precheck.Precheck.infeasible pre
  and certified = Gmf_precheck.Precheck.certified pre
  and to_run = Gmf_precheck.Precheck.undecided_components pre in
  let scenario_flows = Traffic.Scenario.flows scenario in
  let flow_by_id id = Traffic.Scenario.flow scenario id in
  let subs =
    List.map
      (fun (c : Gmf_precheck.Igraph.component) ->
        sub_scenario scenario c.Gmf_precheck.Igraph.flow_ids)
      to_run
  in
  let reports = Case.analyze_all ~config subs in
  if Gmf_obs.Metrics.enabled Gmf_obs.Metrics.default then begin
    Gmf_obs.Metrics.incr ~by:(List.length to_run) m_components_run;
    Gmf_obs.Metrics.incr
      ~by:(pre.Gmf_precheck.Precheck.stats.Gmf_precheck.Igraph.components
         - List.length to_run)
      m_fixpoints_skipped
  end;
  (* Merge: results keyed by flow id, emitted in scenario flow order so the
     union is ordered exactly like the monolithic run. *)
  let by_id = Hashtbl.create 16 in
  List.iter
    (fun (r : Holistic.report) ->
      List.iter
        (fun res ->
          Hashtbl.replace by_id res.Result_types.flow.Traffic.Flow.id res)
        r.Holistic.results)
    reports;
  List.iter
    (fun (v : Gmf_precheck.Precheck.flow_verdict) ->
      match v.Gmf_precheck.Precheck.ceilings with
      | None -> ()
      | Some ceilings ->
          let flow = flow_by_id v.Gmf_precheck.Precheck.flow_id in
          Hashtbl.replace by_id flow.Traffic.Flow.id
            (certified_result flow ceilings))
    certified;
  let results =
    List.filter_map
      (fun f -> Hashtbl.find_opt by_id f.Traffic.Flow.id)
      scenario_flows
  in
  let position =
    let tbl = Hashtbl.create 16 in
    List.iteri
      (fun i f -> Hashtbl.replace tbl f.Traffic.Flow.id i)
      scenario_flows;
    fun (f : Result_types.failure) ->
      match Hashtbl.find_opt tbl f.Result_types.flow_id with
      | Some i -> i
      | None -> max_int (* exec-layer failures carry flow_id = -1 *)
  in
  let failures =
    List.map
      (fun (v : Gmf_precheck.Precheck.flow_verdict) ->
        match v.Gmf_precheck.Precheck.verdict with
        | Gmf_precheck.Precheck.Infeasible cert ->
            failure_of_certificate v.Gmf_precheck.Precheck.flow_id cert
        | _ -> assert false)
      infeasible
    @ List.concat_map
        (fun (r : Holistic.report) ->
          match r.Holistic.verdict with
          | Holistic.Analysis_failed fs -> fs
          | _ -> [])
        reports
    |> List.stable_sort (fun a b -> compare (position a) (position b))
  in
  let rounds =
    List.fold_left (fun acc r -> max acc r.Holistic.rounds) 0 reports
  in
  let verdict =
    match failures with
    | _ :: _ -> Holistic.Analysis_failed failures
    | [] -> (
        let diverged =
          List.filter_map
            (fun (r : Holistic.report) ->
              match r.Holistic.verdict with
              | Holistic.No_fixed_point n -> Some n
              | _ -> None)
            reports
        in
        match diverged with
        | _ :: _ -> Holistic.No_fixed_point (List.fold_left max 0 diverged)
        | [] -> (
            match Holistic.deadline_misses results with
            | [] -> Holistic.Schedulable
            | misses -> Holistic.Deadline_miss misses))
  in
  let stats =
    {
      components =
        pre.Gmf_precheck.Precheck.stats.Gmf_precheck.Igraph.components;
      components_run = List.length to_run;
      flows = List.length scenario_flows;
      flows_infeasible = List.length infeasible;
      flows_certified = List.length certified;
    }
  in
  ({ Holistic.verdict; rounds; results }, pre, stats)
