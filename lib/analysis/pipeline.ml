(* Stage evaluations answered from the node's last result because none of
   its reads changed since (see {!Ctx.recall}). *)
let m_reused = Gmf_obs.Metrics.counter Gmf_obs.Metrics.default "stage.reused"

(* JSUM's step past a stage whose response is [r] (Figure 6): the paper
   advances it by the full response; under the tight-jitter rule it only
   grows by the stage's variability above its uncontended floor. *)
let jitter_growth ctx node ~frame r =
  if (Ctx.config ctx).Config.tight_jitter then
    max 0 (r - (Ctx.describe ctx node ~frame).Gmf_precheck.Stage_eq.uncontended)
  else r

let analyze_stage ctx node ~frame =
  match Ctx.recall ctx node ~frame with
  | Some result ->
      Gmf_obs.Metrics.incr m_reused;
      result
  | None ->
      let result = Stage_common.analyze ctx node ~frame in
      Ctx.remember ctx node ~frame result;
      result

(* One frame along the flow's nodes, in route order. *)
let walk_frame ctx flow nodes ~frame =
  let spec_frame = Gmf.Spec.frame flow.Traffic.Flow.spec frame in
  let gj = spec_frame.Gmf.Frame_spec.jitter in
  let deadline = spec_frame.Gmf.Frame_spec.deadline in
  (* RSUM accumulates stage responses into the end-to-end bound (Figure 6
     line 24); JSUM is the generalized jitter handed to the next stage. *)
  let rec walk k rsum jsum acc =
    if k >= Array.length nodes then
      Ok
        {
          Result_types.frame;
          stages = List.rev acc;
          total = rsum;
          deadline;
        }
    else begin
      let node = nodes.(k) in
      Ctx.write ctx node ~frame jsum;
      match analyze_stage ctx node ~frame with
      | Error failure -> Error failure
      | Ok stage_response ->
          let r = stage_response.Result_types.response in
          walk (k + 1) (rsum + r)
            (jsum + jitter_growth ctx node ~frame r)
            (stage_response :: acc)
    end
  in
  walk 0 gj gj []

let analyze_frame ctx ~flow ~frame =
  if frame < 0 || frame >= Traffic.Flow.n flow then
    invalid_arg "Pipeline.analyze_frame: frame index out of range";
  walk_frame ctx flow (Ctx.nodes ctx flow) ~frame

let analyze_flow ctx ~flow =
  let n = Traffic.Flow.n flow in
  let nodes = Ctx.nodes ctx flow in
  let results = Array.make n None in
  let rec go k =
    if k >= n then
      Ok
        {
          Result_types.flow;
          frames = Array.map Option.get results;
        }
    else
      match walk_frame ctx flow nodes ~frame:k with
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
                 let node = Ctx.node ctx flow ~stage:sr.Result_types.stage in
                 Ctx.write ctx node ~frame jsum;
                 jsum + jitter_growth ctx node ~frame sr.Result_types.response)
               gj fr.Result_types.stages))
        res.Result_types.frames)
    results
