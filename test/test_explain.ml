(* Gmf_explain: the attribution must reproduce the holistic bounds
   exactly (term-by-term, across scenarios and analysis variants),
   rejections must name their binding constraint and interferer, hints
   must actually admit when applied, and the convergence telemetry must
   mirror the round structure of the run that produced it. *)

module Attribution = Gmf_explain.Attribution
module Convergence = Gmf_explain.Convergence
module Hints = Gmf_explain.Hints
module Render = Gmf_explain.Render
module Json = Gmf_util.Json

let named_scenarios () =
  [
    ("fig1", Workload.Scenarios.fig1_videoconf ());
    ("voip", Workload.Scenarios.single_switch_voip ());
    ("chain", Workload.Scenarios.multihop_chain ());
    ("enterprise", Workload.Scenarios.enterprise ());
  ]

let configs =
  [
    ("repaired", Analysis.Config.default);
    ("faithful", Analysis.Config.faithful);
    ("tight", Analysis.Config.tight);
  ]

let has_bounds (report : Analysis.Holistic.report) =
  match report.Analysis.Holistic.verdict with
  | Analysis.Holistic.Schedulable | Analysis.Holistic.Deadline_miss _ -> true
  | _ -> false

(* A fig1 variant whose video flow misses its deadline: inflating only
   that flow's payloads raises its own bound past 150 ms while the
   cross-traffic stays schedulable. *)
let fig1_overloaded ?(factor = 2.0) () =
  let scenario = Workload.Scenarios.fig1_videoconf () in
  Traffic.Scenario.map_flows scenario ~f:(fun f ->
      if f.Traffic.Flow.id = Workload.Scenarios.video_flow_id then
        Traffic.Flow.scale_payloads f factor
      else f)

(* --- exactness -------------------------------------------------------- *)

(* Every frame's decomposition is exact (residuals 0) and its total is
   the holistic report's bound. *)
let check_exact ~what ~config scenario =
  let attr, report = Attribution.analyze ~config scenario in
  if has_bounds report then begin
    List.iter
      (fun (af : Attribution.flow_attr) ->
        List.iter
          (fun (fa : Attribution.frame_attr) ->
            if not (Attribution.frame_exact fa) then
              Alcotest.failf "%s: flow %d frame %d decomposition not exact"
                what af.Attribution.af_flow.Traffic.Flow.id
                fa.Attribution.fa_frame)
          af.Attribution.af_frames)
      attr.Attribution.flows;
    List.iter
      (fun (res : Analysis.Result_types.flow_result) ->
        let af =
          List.find
            (fun (af : Attribution.flow_attr) ->
              af.Attribution.af_flow.Traffic.Flow.id
              = res.Analysis.Result_types.flow.Traffic.Flow.id)
            attr.Attribution.flows
        in
        Array.iteri
          (fun k (fr : Analysis.Result_types.frame_result) ->
            let fa = List.nth af.Attribution.af_frames k in
            if fa.Attribution.fa_total <> fr.Analysis.Result_types.total then
              Alcotest.failf "%s: flow %d frame %d total %d <> report %d" what
                res.Analysis.Result_types.flow.Traffic.Flow.id k
                fa.Attribution.fa_total fr.Analysis.Result_types.total)
          res.Analysis.Result_types.frames)
      report.Analysis.Holistic.results
  end

let test_exact_attribution () =
  List.iter
    (fun (sname, scenario) ->
      List.iter
        (fun (cname, config) ->
          check_exact ~what:(sname ^ "/" ^ cname) ~config scenario)
        configs)
    (named_scenarios ())

module Gen_spec = Gmf_topogen.Gen_spec

(* Generated meshes and rings of rings (whose stage graph has cycles),
   20 to 60 flows; on 10 Mb/s links most of them miss deadlines, which
   are fixed points too. *)
let print_generated (family, flows, seed, (max_util, rate_bps)) =
  Printf.sprintf "%s -n %d --seed %d --max-util %g --rate %d"
    (Gen_spec.family_to_string family)
    flows seed max_util rate_bps

let generated_arb =
  let gen =
    QCheck.Gen.(
      quad
        (oneofl
           [
             Gen_spec.Mesh { rows = 4; cols = 4; planes = 1 };
             Gen_spec.Ring_of_rings { rings = 4; ring_size = 4 };
           ])
        (int_range 20 60) (int_bound 9_999)
        (pair (oneofl [ 0.7; 0.98 ]) (oneofl [ 100_000_000; 10_000_000 ])))
  in
  QCheck.make ~print:print_generated gen

let generated_scenario (family, flows, seed, (max_util, rate_bps)) =
  let spec =
    { Gen_spec.default with Gen_spec.family; flows; seed; max_util; rate_bps }
  in
  (Gmf_topogen.Topogen.generate spec).Gmf_topogen.Topogen.scenario

let prop_exact_on_generated =
  QCheck.Test.make ~name:"attribution is exact on generated scenarios"
    ~count:8 generated_arb (fun case ->
      let scenario = generated_scenario case in
      List.iter
        (fun (cname, config) ->
          check_exact
            ~what:(print_generated case ^ "/" ^ cname)
            ~config scenario)
        configs;
      true)

let test_exact_on_overload () =
  (* Deadline_miss reports are fixed points too — the decomposition must
     stay exact on the rejecting run the hints reason about. *)
  let attr, report = Attribution.analyze (fig1_overloaded ()) in
  (match report.Analysis.Holistic.verdict with
  | Analysis.Holistic.Deadline_miss _ -> ()
  | v ->
      Alcotest.failf "expected a deadline miss, got %s"
        (Format.asprintf "%a" Analysis.Holistic.pp_verdict v));
  List.iter
    (fun (af : Attribution.flow_attr) ->
      List.iter
        (fun fa ->
          Alcotest.(check bool) "exact under miss" true
            (Attribution.frame_exact fa))
        af.Attribution.af_frames)
    attr.Attribution.flows

(* --- rejection provenance --------------------------------------------- *)

let test_binding_rejection () =
  let attr, _report = Attribution.analyze (fig1_overloaded ()) in
  let s =
    match Attribution.summarize attr with
    | Some s -> s
    | None -> Alcotest.fail "summary missing on a miss"
  in
  Alcotest.(check bool) "worst frame has negative slack" true
    (s.Attribution.s_slack < 0);
  Alcotest.(check int) "the inflated video flow binds"
    Workload.Scenarios.video_flow_id s.Attribution.s_flow_id;
  Alcotest.(check bool) "binding hop named" true (s.Attribution.s_hop <> "-");
  (match s.Attribution.s_interferer with
  | Some (_, name, charge) ->
      Alcotest.(check bool) "interferer charge positive" true (charge > 0);
      Alcotest.(check bool) "interferer named" true (name <> "")
  | None -> Alcotest.fail "binding interferer missing");
  let text = Render.rejection attr in
  Alcotest.(check bool) "rejection names the violated constraint" true
    (let contains needle hay =
       let nl = String.length needle and hl = String.length hay in
       let rec go i =
         i + nl <= hl && (String.sub hay i nl = needle || go (i + 1))
       in
       go 0
     in
     contains "exceeds deadline" text && contains "interferer" text)

(* --- hints ------------------------------------------------------------ *)

let test_hints_admit_when_applied () =
  let scenario = fig1_overloaded () in
  let hints =
    Hints.for_flow scenario ~flow_id:Workload.Scenarios.video_flow_id ()
  in
  let scale =
    List.find_map
      (function Hints.Payload_scale s -> Some s | _ -> None)
      hints
  in
  match scale with
  | None -> Alcotest.fail "expected a payload-scale hint"
  | Some s ->
      Alcotest.(check bool) "scale in (0, 1)" true (s > 0. && s < 1.);
      let repaired =
        Traffic.Scenario.map_flows scenario ~f:(fun f ->
            if f.Traffic.Flow.id = Workload.Scenarios.video_flow_id then
              Traffic.Flow.scale_payloads f s
            else f)
      in
      let _, report = Attribution.analyze repaired in
      Alcotest.(check bool) "applying the hint admits" true
        (report.Analysis.Holistic.verdict = Analysis.Holistic.Schedulable)

let test_hints_unknown_flow () =
  let scenario = Workload.Scenarios.fig1_videoconf () in
  Alcotest.check_raises "unknown flow id"
    (Invalid_argument "Hints.for_flow: unknown flow id") (fun () ->
      ignore (Hints.for_flow scenario ~flow_id:999 ()))

(* --- convergence telemetry -------------------------------------------- *)

let test_convergence_record () =
  let scenario = Workload.Scenarios.fig1_videoconf () in
  let (_, report), conv = Convergence.record (fun () -> Attribution.analyze scenario) in
  let rounds = conv.Convergence.cv_rounds in
  Alcotest.(check int) "one record per holistic round"
    report.Analysis.Holistic.rounds (List.length rounds);
  (* The run converged, so its last round saw no jitter movement. *)
  (match List.rev rounds with
  | last :: _ ->
      Alcotest.(check int) "final round moves nothing" 0
        last.Convergence.cv_moving;
      Alcotest.(check int) "final round max delta" 0
        last.Convergence.cv_max_delta
  | [] -> Alcotest.fail "no rounds recorded");
  List.iteri
    (fun i r ->
      Alcotest.(check int) "rounds numbered from 1" (i + 1)
        r.Convergence.cv_round;
      let sum_moving =
        List.length
          (List.filter (fun (_, d) -> d <> 0) r.Convergence.cv_deltas)
      in
      Alcotest.(check int) "moving counts nonzero deltas" sum_moving
        r.Convergence.cv_moving)
    rounds;
  List.iter
    (fun (_, stable) ->
      Alcotest.(check bool) "stabilization round within run" true
        (stable >= 0 && stable <= report.Analysis.Holistic.rounds))
    (Convergence.rounds_to_stabilize conv);
  (* Every JSONL line is a well-formed document. *)
  String.split_on_char '\n' (Convergence.to_jsonl conv)
  |> List.filter (fun l -> l <> "")
  |> List.iter (fun line ->
         match Json.of_string line with
         | Ok (Json.Obj fields) ->
             Alcotest.(check bool) "round field present" true
               (List.mem_assoc "round" fields)
         | Ok _ -> Alcotest.fail "JSONL line is not an object"
         | Error e -> Alcotest.failf "JSONL line unparseable: %s" e)

let test_convergence_lane_in_trace () =
  let scenario = Workload.Scenarios.fig1_videoconf () in
  let (_, _report), conv =
    Convergence.record (fun () -> Attribution.analyze scenario)
  in
  let tracer = Gmf_obs.Tracer.default in
  let was = Gmf_obs.Tracer.enabled tracer in
  Gmf_obs.Tracer.set_enabled tracer true;
  Gmf_obs.Tracer.reset tracer;
  Convergence.emit_spans tracer conv;
  let spans = Gmf_obs.Tracer.spans tracer in
  let trace = Gmf_obs.Export.chrome_trace (Gmf_obs.Tracer.spans tracer) in
  Gmf_obs.Tracer.set_enabled tracer was;
  Alcotest.(check bool) "lane emitted one span per round" true
    (List.length spans >= List.length conv.Convergence.cv_rounds);
  match Json.of_string trace with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "chrome trace unparseable: %s" e

(* --- renderings ------------------------------------------------------- *)

let test_to_json_reproduces_bounds () =
  let scenario = Workload.Scenarios.fig1_videoconf () in
  let attr, report = Attribution.analyze scenario in
  let doc =
    match Json.of_string (Render.to_json attr) with
    | Ok v -> v
    | Error e -> Alcotest.failf "to_json unparseable: %s" e
  in
  (match Json.member "verdict" doc with
  | Some (Json.Str "schedulable") -> ()
  | _ -> Alcotest.fail "verdict field");
  (match Json.member "rounds" doc with
  | Some (Json.Int r) ->
      Alcotest.(check int) "rounds" report.Analysis.Holistic.rounds r
  | _ -> Alcotest.fail "rounds field");
  let flows =
    match Json.member "flows" doc with
    | Some (Json.Arr fs) -> fs
    | _ -> Alcotest.fail "flows array"
  in
  Alcotest.(check int) "every flow rendered"
    (List.length attr.Attribution.flows)
    (List.length flows);
  (* Summed leaf terms reproduce each frame's holistic bound exactly:
     the "exact" flag is asserted per frame by the renderer, and the
     totals in the document match the report. *)
  List.iter
    (fun fv ->
      let frames =
        match Json.member "frames" fv with
        | Some (Json.Arr fr) -> fr
        | _ -> Alcotest.fail "frames array"
      in
      List.iter
        (fun frv ->
          match Json.member "exact" frv with
          | Some (Json.Bool true) -> ()
          | _ -> Alcotest.fail "frame not marked exact")
        frames)
    flows

(* --- session explain payloads ----------------------------------------- *)

let trace_of_string text =
  match Scenario_io.Admtrace.of_string text with
  | Ok t -> t
  | Error e -> Alcotest.failf "trace parse: %a" Scenario_io.Parse.pp_error e

let test_session_explain () =
  let trace =
    trace_of_string
      "node h0 endhost\nnode h1 endhost\nnode h2 endhost\nnode h3 endhost\n\
       node sw switch\n\
       duplex h0 sw rate=100M prop=2us\nduplex h1 sw rate=100M prop=2us\n\
       duplex h2 sw rate=100M prop=2us\nduplex h3 sw rate=100M prop=2us\n\
       switch sw ports=4 cpus=1 croute=2.7us csend=1us\n\
       admit flow c0 from=h0 to=h1 prio=5 encap=rtp\n\
      \  frame period=20ms deadline=150ms payload=160B\nend\n\
       admit flow c1 from=h2 to=h3 prio=6 encap=rtp\n\
      \  frame period=20ms deadline=150ms payload=160B\nend\n"
  in
  let { Gmf_admctl.Replay.outcomes; _ } =
    Gmf_admctl.Replay.run ~explain:true trace
  in
  List.iter
    (fun (o : Gmf_admctl.Session.outcome) ->
      match o.Gmf_admctl.Session.explain with
      | None -> Alcotest.fail "explain session outcome lacks a payload"
      | Some s ->
          Alcotest.(check bool) "admitted set has slack" true
            (s.Attribution.s_slack >= 0);
          let line = Gmf_admctl.Replay.outcome_line o in
          let contains needle hay =
            let nl = String.length needle and hl = String.length hay in
            let rec go i =
              i + nl <= hl && (String.sub hay i nl = needle || go (i + 1))
            in
            go 0
          in
          Alcotest.(check bool) "transcript carries a binding line" true
            (contains "binding:" line))
    outcomes;
  (* A plain session stays byte-identical: no explain payloads. *)
  let { Gmf_admctl.Replay.outcomes = plain; _ } = Gmf_admctl.Replay.run trace in
  List.iter
    (fun (o : Gmf_admctl.Session.outcome) ->
      Alcotest.(check bool) "plain session carries no payload" true
        (o.Gmf_admctl.Session.explain = None))
    plain

let tests =
  [
    Alcotest.test_case "attribution is exact across scenarios and variants"
      `Quick test_exact_attribution;
    QCheck_alcotest.to_alcotest prop_exact_on_generated;
    Alcotest.test_case "attribution stays exact on a deadline miss" `Quick
      test_exact_on_overload;
    Alcotest.test_case "rejection names binding constraint and interferer"
      `Quick test_binding_rejection;
    Alcotest.test_case "payload-scale hint admits when applied" `Quick
      test_hints_admit_when_applied;
    Alcotest.test_case "hints reject unknown flow ids" `Quick
      test_hints_unknown_flow;
    Alcotest.test_case "convergence record mirrors round structure" `Quick
      test_convergence_record;
    Alcotest.test_case "convergence lane renders to valid chrome trace"
      `Quick test_convergence_lane_in_trace;
    Alcotest.test_case "to_json parses and reproduces the bounds" `Quick
      test_to_json_reproduces_bounds;
    Alcotest.test_case "session outcomes carry explain payloads" `Quick
      test_session_explain;
  ]
