(* Stage evaluations answered from the node's last result because none of
   its reads changed since (see {!Ctx.recall}). *)
let m_reused = Gmf_obs.Metrics.counter Gmf_obs.Metrics.default "stage.reused"

(* JSUM's step past a stage whose response is [r] (Figure 6): the paper
   advances it by the full response; under the tight-jitter rule it only
   grows by the stage's variability above its uncontended floor. *)
let jitter_growth ctx flow ~frame stage r =
  if (Ctx.config ctx).Config.tight_jitter then
    max 0
      (r
      - Gmf_precheck.Stage_eq.uncontended (Ctx.scenario ctx) flow ~frame stage
      )
  else r

let analyze_frame ctx ~flow ~frame =
  if frame < 0 || frame >= Traffic.Flow.n flow then
    invalid_arg "Pipeline.analyze_frame: frame index out of range";
  let spec_frame = Gmf.Spec.frame flow.Traffic.Flow.spec frame in
  let gj = spec_frame.Gmf.Frame_spec.jitter in
  let deadline = spec_frame.Gmf.Frame_spec.deadline in
  let stages = Stage.stages_of_route flow.Traffic.Flow.route in
  let analyze_stage stage =
    let self = Ctx.node ctx flow ~stage in
    match Ctx.recall ctx self ~frame with
    | Some result ->
        Gmf_obs.Metrics.incr m_reused;
        result
    | None ->
        let result = Stage_common.analyze ctx ~flow ~frame stage in
        Ctx.remember ctx self ~frame result;
        result
  in
  (* RSUM accumulates stage responses into the end-to-end bound (Figure 6
     line 24); JSUM is the generalized jitter handed to the next stage. *)
  let rec walk stages rsum jsum acc =
    match stages with
    | [] ->
        Ok
          {
            Result_types.frame;
            stages = List.rev acc;
            total = rsum;
            deadline;
          }
    | stage :: rest -> begin
        Ctx.set_jitter ctx flow ~frame ~stage jsum;
        match analyze_stage stage with
        | Error failure -> Error failure
        | Ok stage_response ->
            let r = stage_response.Result_types.response in
            walk rest (rsum + r)
              (jsum + jitter_growth ctx flow ~frame stage r)
              (stage_response :: acc)
      end
  in
  walk stages gj gj []

(* Static impossibility gate: when a link or ingress rotation on this
   flow's route is utilization-overloaded, the busy-period recurrences
   provably diverge — skip them and fail with the diagnostic instead of
   burning [max_busy_iters] iterations to find out.  The gate depends on
   the scenario only, so the context evaluates it once per flow. *)
let lint_gate ctx ~flow =
  match Ctx.flow_gate ctx flow with
  | [] -> None
  | d :: _ ->
      Some
        {
          Result_types.flow_id = flow.Traffic.Flow.id;
          frame = 0;
          failed_stage = None;
          reason = Gmf_diag.to_string d;
        }

let analyze_flow ctx ~flow =
  match lint_gate ctx ~flow with
  | Some failure -> Error failure
  | None ->
  let n = Traffic.Flow.n flow in
  let results = Array.make n None in
  let rec go k =
    if k >= n then
      Ok
        {
          Result_types.flow;
          frames = Array.map Option.get results;
        }
    else
      match analyze_frame ctx ~flow ~frame:k with
      | Error failure -> Error failure
      | Ok fr ->
          results.(k) <- Some fr;
          go (k + 1)
  in
  go 0

let seed ctx results =
  Ctx.reset_jitters ctx;
  List.iter
    (fun (res : Result_types.flow_result) ->
      let flow = res.Result_types.flow in
      Array.iter
        (fun (fr : Result_types.frame_result) ->
          let frame = fr.Result_types.frame in
          let gj =
            (Gmf.Spec.frame flow.Traffic.Flow.spec frame).Gmf.Frame_spec.jitter
          in
          ignore
            (List.fold_left
               (fun jsum (sr : Result_types.stage_response) ->
                 let stage = sr.Result_types.stage in
                 Ctx.set_jitter ctx flow ~frame ~stage jsum;
                 jsum
                 + jitter_growth ctx flow ~frame stage sr.Result_types.response)
               gj fr.Result_types.stages))
        res.Result_types.frames)
    results
