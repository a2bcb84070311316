open Gmf_util

type stage_response = {
  stage : Stage.t;
  response : Timeunit.ns;
  busy_len : Timeunit.ns;
  q_count : int;
  w_q : int;
  w_l : int;
  w_last : Timeunit.ns;
}

type frame_result = {
  frame : int;
  stages : stage_response list;
  total : Timeunit.ns;
  deadline : Timeunit.ns;
}

type flow_result = {
  flow : Traffic.Flow.t;
  frames : frame_result array;
}

type failure = {
  flow_id : Traffic.Flow.id;
  frame : int;
  failed_stage : Stage.t option;
  reason : string;
}

let slack fr = fr.deadline - fr.total
let meets_deadline fr = fr.total <= fr.deadline

let worst_frame res =
  if Array.length res.frames = 0 then
    invalid_arg "Result_types.worst_frame: no frames";
  Array.fold_left
    (fun acc fr -> if slack fr < slack acc then fr else acc)
    res.frames.(0) res.frames

let pp_stage_response fmt sr =
  Format.fprintf fmt "%a: R=%a (busy=%a, Q=%d)" Stage.pp sr.stage Timeunit.pp
    sr.response Timeunit.pp sr.busy_len sr.q_count

let pp_frame_result fmt (fr : frame_result) =
  Format.fprintf fmt "@[<v 2>frame %d: R=%a D=%a slack=%a@," fr.frame
    Timeunit.pp fr.total Timeunit.pp fr.deadline Timeunit.pp (slack fr);
  List.iter (fun sr -> Format.fprintf fmt "%a@," pp_stage_response sr)
    fr.stages;
  Format.fprintf fmt "@]"

let pp_failure fmt f =
  Format.fprintf fmt "flow %d frame %d%a: %s" f.flow_id f.frame
    (fun fmt -> function
      | None -> ()
      | Some s -> Format.fprintf fmt " at %a" Stage.pp s)
    f.failed_stage f.reason
