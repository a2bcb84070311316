type verdict =
  | Schedulable
  | Deadline_miss of Result_types.failure list
  | Analysis_failed of Result_types.failure list
  | No_fixed_point of int

type report = {
  verdict : verdict;
  rounds : int;
  results : Result_types.flow_result list;
}

let deadline_misses results =
  List.concat_map
    (fun res ->
      Array.to_list res.Result_types.frames
      |> List.filter_map (fun fr ->
             if Result_types.meets_deadline fr then None
             else
               Some
                 {
                   Result_types.flow_id = res.Result_types.flow.Traffic.Flow.id;
                   frame = fr.Result_types.frame;
                   failed_stage = None;
                   reason =
                     Format.asprintf "bound %a exceeds deadline %a"
                       Gmf_util.Timeunit.pp fr.Result_types.total
                       Gmf_util.Timeunit.pp fr.Result_types.deadline;
                 }))
    results

let merge flows parts =
  let by_id = Hashtbl.create 64 in
  List.iter
    (fun part ->
      List.iter
        (fun res ->
          Hashtbl.replace by_id res.Result_types.flow.Traffic.Flow.id res)
        part.results)
    parts;
  let results =
    List.filter_map (fun f -> Hashtbl.find_opt by_id f.Traffic.Flow.id) flows
  in
  let rounds = List.fold_left (fun acc part -> max acc part.rounds) 0 parts in
  let failures =
    List.concat_map
      (fun part ->
        match part.verdict with Analysis_failed fs -> fs | _ -> [])
      parts
  in
  let diverged =
    List.filter_map
      (fun part ->
        match part.verdict with No_fixed_point n -> Some n | _ -> None)
      parts
  in
  let verdict =
    if failures <> [] then begin
      let position = Hashtbl.create 64 in
      List.iteri (fun i f -> Hashtbl.replace position f.Traffic.Flow.id i) flows;
      (* Unknown ids (exec failures carry -1) sort last. *)
      let pos (f : Result_types.failure) =
        Option.value ~default:max_int
          (Hashtbl.find_opt position f.Result_types.flow_id)
      in
      Analysis_failed
        (List.stable_sort (fun a b -> compare (pos a) (pos b)) failures)
    end
    else if diverged <> [] then
      No_fixed_point (List.fold_left max 0 diverged)
    else
      match deadline_misses results with
      | [] -> Schedulable
      | misses -> Deadline_miss misses
  in
  { verdict; rounds; results }

(* Convergence telemetry of the Tindell & Clark-style outer iteration. *)
let m_runs = Gmf_obs.Metrics.counter Gmf_obs.Metrics.default "holistic.runs"

let m_rounds =
  Gmf_obs.Metrics.histogram Gmf_obs.Metrics.default "holistic.rounds"

let m_jitter_delta =
  Gmf_obs.Metrics.histogram
    ~bounds:
      [| 1_000; 10_000; 100_000; 1_000_000; 10_000_000; 100_000_000;
         1_000_000_000 |]
    Gmf_obs.Metrics.default "holistic.jitter_delta_ns"

(* Nanosecond-scale buckets for per-stage response-time contributions:
   1us .. 1s in decades. *)
let response_bounds =
  [| 1_000; 10_000; 100_000; 1_000_000; 10_000_000; 100_000_000;
     1_000_000_000 |]

let response_hist kind =
  Gmf_obs.Metrics.histogram ~bounds:response_bounds Gmf_obs.Metrics.default
    ("stage.response_ns." ^ kind)

let resp_first_link = response_hist "first_link"
let resp_ingress = response_hist "ingress"
let resp_egress = response_hist "egress"

(* One sample per stage response of the returned report, however many
   times the rounds evaluated (or reused) that stage. *)
let observe_responses results =
  List.iter
    (fun res ->
      Array.iter
        (fun fr ->
          List.iter
            (fun sr ->
              let hist =
                match sr.Result_types.stage with
                | Stage.First_link _ -> resp_first_link
                | Stage.Ingress _ -> resp_ingress
                | Stage.Egress _ -> resp_egress
              in
              Gmf_obs.Metrics.observe hist sr.Result_types.response)
            fr.Result_types.stages)
        res.Result_types.frames)
    results

type round_observation = {
  obs_round : int;
  obs_flow_deltas : (Traffic.Flow.id * Gmf_util.Timeunit.ns) list;
  obs_max_delta : Gmf_util.Timeunit.ns;
}

(* Process-wide hook, like the default metrics registry: the analysis
   library cannot depend on the explain layer, so the convergence recorder
   installs itself here for the duration of a run.  No observer, no cost
   beyond one ref load per round. *)
let round_observer : (round_observation -> unit) option ref = ref None
let set_round_observer f = round_observer := f

(* Static impossibility gate: when a link or ingress rotation on the
   flow's route is utilization-overloaded, the busy-period recurrences
   provably diverge — skip them and fail with the diagnostic instead of
   burning [max_busy_iters] iterations to find out. *)
let gate scenario flow =
  match Gmf_lint.Rules.flow_gate scenario flow with
  | [] -> None
  | d :: _ ->
      Some
        {
          Result_types.flow_id = flow.Traffic.Flow.id;
          frame = 0;
          failed_stage = None;
          reason = Gmf_diag.to_string d;
        }

(* One round over the flows in scenario order, each paired with its gate
   failure: a gated flow fails without being analyzed. *)
let run_round ctx gated =
  let tracer = Gmf_obs.Tracer.default in
  let analyze flow =
    if Gmf_obs.Tracer.enabled tracer then
      Gmf_obs.Tracer.with_span tracer ~cat:"analysis"
        ("flow:" ^ flow.Traffic.Flow.name)
        (fun () -> Pipeline.analyze_flow ctx ~flow)
    else Pipeline.analyze_flow ctx ~flow
  in
  let rec go gated acc failures =
    match gated with
    | [] -> (List.rev acc, List.rev failures)
    | (_, Some f) :: rest -> go rest acc (f :: failures)
    | (flow, None) :: rest -> begin
        match analyze flow with
        | Ok res -> go rest (res :: acc) failures
        | Error f -> go rest acc (f :: failures)
      end
  in
  go gated [] []

let iterate ctx =
  let max_rounds = (Ctx.config ctx).Config.max_holistic_rounds in
  (* A gate reads only the scenario, and a round with a failure ends the
     run, so only round 1 can fail one: each flow is gated once. *)
  let scenario = Ctx.scenario ctx in
  let gated =
    List.map
      (fun flow -> (flow, gate scenario flow))
      (Traffic.Scenario.flows scenario)
  in
  let metrics_on = Gmf_obs.Metrics.enabled Gmf_obs.Metrics.default in
  let finish n report =
    Gmf_obs.Metrics.incr m_runs;
    Gmf_obs.Metrics.observe m_rounds n;
    if metrics_on then observe_responses report.results;
    report
  in
  let rec rounds n =
    let before =
      if metrics_on || Option.is_some !round_observer then
        Some (Ctx.copy_jitters ctx)
      else None
    in
    let writes = Ctx.writes ctx in
    let results, failures =
      Gmf_obs.Tracer.with_span Gmf_obs.Tracer.default ~cat:"analysis"
        "holistic.round" (fun () -> run_round ctx gated)
    in
    (match before with
    | None -> ()
    | Some since ->
        let deltas = Ctx.flow_deltas ctx ~since in
        let max_d = List.fold_left (fun acc (_, d) -> max acc d) 0 deltas in
        if metrics_on then Gmf_obs.Metrics.observe m_jitter_delta max_d;
        Option.iter
          (fun observe ->
            observe
              {
                obs_round = n;
                obs_flow_deltas = deltas;
                obs_max_delta = max_d;
              })
          !round_observer);
    if failures <> [] then
      finish n { verdict = Analysis_failed failures; rounds = n; results }
    (* Quiet round: no write changed a value.  Without failures the round
       wrote every (flow, frame, stage) jitter exactly once (routes repeat
       no node), so the jitters are those it started from. *)
    else if Ctx.writes ctx = writes then begin
      match deadline_misses results with
      | [] -> finish n { verdict = Schedulable; rounds = n; results }
      | misses ->
          finish n { verdict = Deadline_miss misses; rounds = n; results }
    end
    else if n >= max_rounds then
      finish n { verdict = No_fixed_point n; rounds = n; results }
    else rounds (n + 1)
  in
  Gmf_obs.Tracer.with_span Gmf_obs.Tracer.default ~cat:"analysis"
    "holistic.run" (fun () -> rounds 1)

let run ctx =
  Ctx.reset_jitters ctx;
  iterate ctx

let run_from ctx ~init =
  Pipeline.seed ctx init;
  iterate ctx

let analyze ?config scenario = run (Ctx.create ?config scenario)

let is_schedulable report = report.verdict = Schedulable

let converged = function
  | Schedulable | Deadline_miss _ -> true
  | Analysis_failed _ | No_fixed_point _ -> false

let verdict_tag = function
  | Schedulable -> "schedulable"
  | Deadline_miss _ -> "deadline-miss"
  | Analysis_failed _ -> "analysis-failed"
  | No_fixed_point _ -> "no-fixed-point"

let pp_verdict fmt = function
  | Schedulable -> Format.pp_print_string fmt "schedulable"
  | Deadline_miss fs ->
      Format.fprintf fmt "deadline miss (%d frame%s)" (List.length fs)
        (if List.length fs = 1 then "" else "s")
  | Analysis_failed fs ->
      Format.fprintf fmt "analysis failed (%d failure%s)" (List.length fs)
        (if List.length fs = 1 then "" else "s")
  | No_fixed_point n ->
      Format.fprintf fmt "no jitter fixed point after %d rounds" n

let pp fmt report =
  Format.fprintf fmt "@[<v>verdict: %a (after %d round%s)@," pp_verdict
    report.verdict report.rounds
    (if report.rounds = 1 then "" else "s");
  List.iter
    (fun res ->
      Format.fprintf fmt "@[<v 2>%s:@," res.Result_types.flow.Traffic.Flow.name;
      Array.iter
        (fun fr -> Format.fprintf fmt "%a" Result_types.pp_frame_result fr)
        res.Result_types.frames;
      Format.fprintf fmt "@]@,")
    report.results;
  Format.fprintf fmt "@]"
