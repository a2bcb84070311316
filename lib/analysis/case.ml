let shared_memo : Holistic.report Gmf_exec.Memo.t = Gmf_exec.Memo.create ()

(* A case that raised becomes an analysis failure, so drivers stay total. *)
let report_of_error err =
  {
    Holistic.verdict =
      Holistic.Analysis_failed
        [
          {
            Result_types.flow_id = -1;
            frame = 0;
            failed_stage = None;
            reason = "exec: " ^ Gmf_exec.error_to_string err;
          };
        ];
    rounds = 0;
    results = [];
  }

let analyze ?(config = Config.default) scenario =
  match Gmf_exec.run ~f:(Holistic.analyze ~config) scenario with
  | Ok r -> r
  | Error e -> report_of_error e

let schedulable ?config scenario =
  Holistic.is_schedulable (analyze ?config scenario)
