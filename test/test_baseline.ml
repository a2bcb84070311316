open Gmf_util

let test_convert_spec () =
  let spec = Workload.Mpeg.fig3_spec in
  let converted = Baseline.Sporadic.convert_spec spec in
  Alcotest.(check int) "single frame" 1 (Gmf.Spec.n converted);
  let f = Gmf.Spec.frame converted 0 in
  (* All periods equal 30ms here, so min = 30ms. *)
  Alcotest.(check int) "min period" (Timeunit.ms 30) f.Gmf.Frame_spec.period;
  (* Payload = max over frames = the I+P packet. *)
  Alcotest.(check int) "max payload" 352_000 f.Gmf.Frame_spec.payload_bits;
  Alcotest.(check int) "min deadline" (Timeunit.ms 150)
    f.Gmf.Frame_spec.deadline;
  Alcotest.(check int) "max jitter" (Timeunit.ms 1) f.Gmf.Frame_spec.jitter

let test_convert_skips_zero_periods () =
  let spec =
    Gmf.Spec.make
      [
        Gmf.Frame_spec.make ~period:0 ~deadline:(Timeunit.ms 10) ~jitter:0
          ~payload_bits:100;
        Gmf.Frame_spec.make ~period:(Timeunit.ms 5) ~deadline:(Timeunit.ms 20)
          ~jitter:0 ~payload_bits:200;
      ]
  in
  let converted = Baseline.Sporadic.convert_spec spec in
  Alcotest.(check int) "smallest positive period" (Timeunit.ms 5)
    (Gmf.Spec.frame converted 0).Gmf.Frame_spec.period

let test_convert_flow_preserves_identity () =
  let scenario = Workload.Scenarios.fig1_videoconf () in
  let flow = Traffic.Scenario.flow scenario Workload.Scenarios.video_flow_id in
  let converted = Baseline.Sporadic.convert_flow flow in
  Alcotest.(check int) "same id" flow.Traffic.Flow.id
    converted.Traffic.Flow.id;
  Alcotest.(check int) "same priority" flow.Traffic.Flow.priority
    converted.Traffic.Flow.priority;
  Alcotest.(check (list int)) "same route"
    (Network.Route.nodes flow.Traffic.Flow.route)
    (Network.Route.nodes converted.Traffic.Flow.route)

let test_baseline_is_more_pessimistic () =
  (* The sporadic abstraction inflates the MPEG flow's utilization
     (I+P-sized packet every 30 ms), so its bound must dominate the GMF
     bound wherever both converge. *)
  let scenario = Workload.Scenarios.fig1_videoconf ~rate_bps:100_000_000 () in
  let gmf_report = Analysis.Holistic.analyze scenario in
  let spor_report = Baseline.Sporadic.analyze scenario in
  Alcotest.(check bool) "gmf schedulable" true
    (Analysis.Holistic.is_schedulable gmf_report);
  Alcotest.(check bool) "sporadic schedulable at 100Mbps" true
    (Analysis.Holistic.is_schedulable spor_report);
  let worst report id =
    let res =
      List.find
        (fun r -> r.Analysis.Result_types.flow.Traffic.Flow.id = id)
        report.Analysis.Holistic.results
    in
    (Analysis.Result_types.worst_frame res).Analysis.Result_types.total
  in
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (Printf.sprintf "flow %d: sporadic >= gmf" id)
        true
        (worst spor_report id >= worst gmf_report id))
    [ 0; 1; 2; 3; 4; 5 ]

let test_baseline_utilization_inflation () =
  (* At 10 Mbit/s the sporadic video abstraction alone exceeds the link:
     I+P every 30ms = 36.6ms of transmission per 30ms.  The sporadic
     analysis must reject what the GMF analysis accepts: the paper's core
     motivation for using GMF. *)
  let scenario = Workload.Scenarios.fig1_videoconf () in
  Alcotest.(check bool) "gmf accepts" true
    (Analysis.Admission.check scenario).Analysis.Admission.admitted;
  Alcotest.(check bool) "sporadic rejects" false
    (Baseline.Sporadic.check scenario).Analysis.Admission.admitted

let test_greedy_admission_gap () =
  (* Greedy admission of identical medium-rate GMF flows: the GMF analysis
     admits at least as many as the sporadic baseline. *)
  let topo, hosts, sw = Workload.Topologies.star ~hosts:4 () in
  let mk id =
    Traffic.Flow.make ~id
      ~name:(Printf.sprintf "v%d" id)
      ~spec:(Workload.Mpeg.spec ~sizes:{ Workload.Mpeg.fig3_sizes with
                                         i_plus_p_bytes = 20_000 }
               ~deadline:(Timeunit.ms 260) ())
      ~encap:Ethernet.Encap.Udp
      ~route:
        (Network.Route.make topo
           [ hosts.(id mod 2); sw; hosts.(2 + (id mod 2)) ])
      ~priority:5
  in
  let candidates = List.init 6 mk in
  let gmf_in, _ =
    Analysis.Admission.admit_greedily ~topo candidates
  in
  let spor_in, _ =
    Baseline.Sporadic.admit_greedily ~topo candidates
  in
  Alcotest.(check bool)
    (Printf.sprintf "gmf admits %d >= sporadic %d" (List.length gmf_in)
       (List.length spor_in))
    true
    (List.length gmf_in >= List.length spor_in)

let tests =
  [
    Alcotest.test_case "convert spec" `Quick test_convert_spec;
    Alcotest.test_case "zero periods skipped" `Quick
      test_convert_skips_zero_periods;
    Alcotest.test_case "flow identity preserved" `Quick
      test_convert_flow_preserves_identity;
    Alcotest.test_case "sporadic dominates gmf bounds" `Quick
      test_baseline_is_more_pessimistic;
    Alcotest.test_case "gmf admits what sporadic rejects" `Quick
      test_baseline_utilization_inflation;
    Alcotest.test_case "greedy admission gap" `Quick test_greedy_admission_gap;
  ]
