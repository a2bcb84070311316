(* Holds nothing: see the interface. *)
let shared_memo = ()

let m_cases = Gmf_obs.Metrics.counter Gmf_obs.Metrics.default "exec.cases"

(* The [exec.case] span carries the case's measured duration in a
   caller-owned time domain (lane 1, origin 0): its aggregates are what
   the profile reads. *)
let run ~f x =
  Gmf_obs.Metrics.incr m_cases;
  let t0 = Unix.gettimeofday () in
  let outcome =
    match f x with v -> Ok v | exception e -> Error (Printexc.to_string e)
  in
  let dur_ns = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9) in
  Gmf_obs.Tracer.emit ~cat:"exec" ~tid:1 Gmf_obs.Tracer.default
    ~name:"exec.case" ~begin_ns:0 ~end_ns:(max 0 dur_ns);
  outcome

(* A case that raised becomes an analysis failure, so drivers stay total. *)
let report_of_error msg =
  {
    Holistic.verdict =
      Holistic.Analysis_failed
        [
          {
            Result_types.flow_id = -1;
            frame = 0;
            failed_stage = None;
            reason = "exec: exception: " ^ msg;
          };
        ];
    rounds = 0;
    results = [];
  }

let analyze ?(config = Config.default) scenario =
  match run ~f:(Holistic.analyze ~config) scenario with
  | Ok r -> r
  | Error msg -> report_of_error msg

let schedulable ?config scenario =
  Holistic.is_schedulable (analyze ?config scenario)
