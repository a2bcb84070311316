type check = {
  flow_id : Traffic.Flow.id;
  flow_name : string;
  stage : Stage.t;
  utilization : float;
  satisfied : bool;
}

let make_check flow stage utilization =
  {
    flow_id = flow.Traffic.Flow.id;
    flow_name = flow.Traffic.Flow.name;
    stage;
    utilization;
    satisfied = utilization < 1.0;
  }

(* The inequalities themselves live in Gmf_precheck.Static_tests (the
   single home of eqs (20)/(34)-(35)); this module keeps the per-stage
   reporting shape the experiments consume. *)
let check_flow scenario ~flow =
  let condition stage =
    make_check flow stage
      (Gmf_precheck.Static_tests.stage_utilization scenario flow stage)
  in
  List.map condition (Stage.stages_of_route flow.Traffic.Flow.route)

let check_all scenario =
  Traffic.Scenario.flows scenario
  |> List.concat_map (fun flow -> check_flow scenario ~flow)

let all_satisfied checks = List.for_all (fun c -> c.satisfied) checks

let worst = function
  | [] -> None
  | first :: rest ->
      Some
        (List.fold_left
           (fun acc c -> if c.utilization > acc.utilization then c else acc)
           first rest)

let pp_check fmt c =
  Format.fprintf fmt "%s at %a: U=%.4f %s" c.flow_name Stage.pp c.stage
    c.utilization
    (if c.satisfied then "ok" else "VIOLATED")
