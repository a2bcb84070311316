(* Pipeline (Figure 6) and holistic iteration (Section 3.5) tests. *)
open Gmf_util
open Analysis

let c_frame = 1_230_400
let circ = 7_400

let one_frame_spec ?(jitter = 0) () =
  Gmf.Spec.make
    [
      Gmf.Frame_spec.make ~period:(Timeunit.ms 10) ~deadline:(Timeunit.ms 50)
        ~jitter ~payload_bits:(8 * 1_472);
    ]

let single_flow_scenario ?(jitter = 0) () =
  let topo, hosts, sw = Workload.Topologies.star ~hosts:2 () in
  let flow =
    Traffic.Flow.make ~id:0 ~name:"solo"
      ~spec:(one_frame_spec ~jitter ())
      ~encap:Ethernet.Encap.Udp
      ~route:(Network.Route.make topo [ hosts.(0); sw; hosts.(1) ])
      ~priority:5
  in
  (Traffic.Scenario.make ~topo ~flows:[ flow ] (), sw)

let test_pipeline_sums_stages () =
  let scenario, sw = single_flow_scenario () in
  let ctx = Ctx.create scenario in
  let flow = Traffic.Scenario.flow scenario 0 in
  match Pipeline.analyze_frame ctx ~flow ~frame:0 with
  | Error f -> Alcotest.failf "pipeline failed: %a" Result_types.pp_failure f
  | Ok fr ->
      Alcotest.(check int) "three stages" 3
        (List.length fr.Result_types.stages);
      (* first hop C + ingress CIRC + egress (2*MFT + CIRC). *)
      let expected = c_frame + circ + ((2 * c_frame) + circ) in
      Alcotest.(check int) "total = sum of stages" expected
        fr.Result_types.total;
      Alcotest.(check int) "deadline carried" (Timeunit.ms 50)
        fr.Result_types.deadline;
      (* Jitters were recorded at each stage boundary (JSUM accumulation):
         first link = GJ = 0, ingress = +first-hop R, egress = +ingress R. *)
      Alcotest.(check int) "jitter at ingress stage" c_frame
        (Ctx.get_jitter ctx flow ~frame:0 ~stage:(Stage.Ingress sw));
      Alcotest.(check int) "jitter at egress stage" (c_frame + circ)
        (Ctx.get_jitter ctx flow ~frame:0 ~stage:(Stage.Egress (sw, 2)))

let test_pipeline_source_jitter_counts () =
  let gj = Timeunit.ms 2 in
  let scenario, _ = single_flow_scenario ~jitter:gj () in
  let ctx = Ctx.create scenario in
  let flow = Traffic.Scenario.flow scenario 0 in
  match Pipeline.analyze_frame ctx ~flow ~frame:0 with
  | Error f -> Alcotest.failf "pipeline failed: %a" Result_types.pp_failure f
  | Ok fr ->
      (* Figure 6 line 3: RSUM starts at GJ. *)
      let expected = gj + c_frame + circ + ((2 * c_frame) + circ) in
      Alcotest.(check int) "total includes source jitter" expected
        fr.Result_types.total

let test_pipeline_direct_route () =
  (* Repair R5: a route without switches still gets a first-hop bound. *)
  let topo = Network.Topology.create () in
  let a = Network.Topology.add_node topo ~name:"a" ~kind:Network.Node.Endhost in
  let b = Network.Topology.add_node topo ~name:"b" ~kind:Network.Node.Endhost in
  Network.Topology.add_duplex_link topo ~a ~b ~rate_bps:10_000_000 ~prop:0;
  let flow =
    Traffic.Flow.make ~id:0 ~name:"direct" ~spec:(one_frame_spec ())
      ~encap:Ethernet.Encap.Udp
      ~route:(Network.Route.make topo [ a; b ])
      ~priority:5
  in
  let scenario = Traffic.Scenario.make ~topo ~flows:[ flow ] () in
  let ctx = Ctx.create scenario in
  match Pipeline.analyze_frame ctx ~flow ~frame:0 with
  | Error f -> Alcotest.failf "pipeline failed: %a" Result_types.pp_failure f
  | Ok fr ->
      Alcotest.(check int) "one stage" 1 (List.length fr.Result_types.stages);
      Alcotest.(check int) "R = C" c_frame fr.Result_types.total

let test_pipeline_all_frames () =
  let scenario = Workload.Scenarios.fig1_videoconf () in
  let ctx = Ctx.create scenario in
  let flow = Traffic.Scenario.flow scenario Workload.Scenarios.video_flow_id in
  match Pipeline.analyze_flow ctx ~flow with
  | Error f -> Alcotest.failf "pipeline failed: %a" Result_types.pp_failure f
  | Ok res ->
      Alcotest.(check int) "nine frames" 9 (Array.length res.Result_types.frames);
      (* The big I+P frame must have the largest bound of the cycle. *)
      let totals =
        Array.map (fun fr -> fr.Result_types.total) res.Result_types.frames
      in
      Alcotest.(check int) "I+P frame is worst" totals.(0)
        (Array.fold_left max 0 totals);
      (* Frame 1 directly follows the I+P packet, whose 36.6 ms transmission
         exceeds its 30 ms period: the own-flow carry-in (repair R8) makes
         its bound strictly larger than the other B frames'. *)
      Alcotest.(check bool) "frame 1 carries I+P backlog" true
        (totals.(1) > totals.(2));
      (* B frames whose predecessors fit their periods are identical. *)
      Alcotest.(check int) "B frames equal (2,5)" totals.(2) totals.(5);
      Alcotest.(check int) "B frames equal (5,8)" totals.(5) totals.(8);
      Alcotest.(check int) "B frames equal (4,7)" totals.(4) totals.(7);
      Alcotest.(check int) "P frames equal (3,6)" totals.(3) totals.(6)

let test_holistic_fig1 () =
  let scenario = Workload.Scenarios.fig1_videoconf () in
  let report = Holistic.analyze scenario in
  Alcotest.(check bool) "schedulable" true (Holistic.is_schedulable report);
  Alcotest.(check bool) "needed more than one round" true (report.rounds > 1);
  Alcotest.(check int) "all six flows analyzed" 6
    (List.length report.Holistic.results)

let test_holistic_monotone_rounds () =
  (* Re-running on the same context must be stable (fixed point reached):
     two runs give identical response-time bounds. *)
  let scenario = Workload.Scenarios.fig1_videoconf () in
  let totals report =
    List.concat_map
      (fun r ->
        Array.to_list r.Result_types.frames
        |> List.map (fun fr -> fr.Result_types.total))
      report.Holistic.results
  in
  let r1 = Holistic.analyze scenario in
  let r2 = Holistic.analyze scenario in
  Alcotest.(check (list int)) "deterministic" (totals r1) (totals r2)

let test_holistic_deadline_miss () =
  (* Tighten every deadline below any feasible bound: verdict flips. *)
  let topo, hosts, sw = Workload.Topologies.star ~hosts:2 () in
  let spec =
    Gmf.Spec.make
      [
        Gmf.Frame_spec.make ~period:(Timeunit.ms 10) ~deadline:(Timeunit.ms 1)
          ~jitter:0 ~payload_bits:(8 * 1_472);
      ]
  in
  let flow =
    Traffic.Flow.make ~id:0 ~name:"tight" ~spec ~encap:Ethernet.Encap.Udp
      ~route:(Network.Route.make topo [ hosts.(0); sw; hosts.(1) ])
      ~priority:5
  in
  let scenario = Traffic.Scenario.make ~topo ~flows:[ flow ] () in
  let report = Holistic.analyze scenario in
  (match report.Holistic.verdict with
  | Holistic.Deadline_miss misses ->
      Alcotest.(check int) "one miss" 1 (List.length misses)
  | v -> Alcotest.failf "expected deadline miss, got %a" Holistic.pp_verdict v);
  Alcotest.(check bool) "not schedulable" false (Holistic.is_schedulable report)

let test_holistic_overload () =
  (* Utilization > 1: the analysis must fail rather than report bounds. *)
  let topo, hosts, sw = Workload.Topologies.star ~hosts:2 () in
  let spec =
    Gmf.Spec.make
      [
        Gmf.Frame_spec.make ~period:(Timeunit.ms 2) ~deadline:(Timeunit.ms 50)
          ~jitter:0 ~payload_bits:(8 * 1_472);
      ]
  in
  let flows =
    List.init 2 (fun id ->
        Traffic.Flow.make ~id ~name:(Printf.sprintf "f%d" id) ~spec
          ~encap:Ethernet.Encap.Udp
          ~route:(Network.Route.make topo [ hosts.(0); sw; hosts.(1) ])
          ~priority:5)
  in
  let scenario = Traffic.Scenario.make ~topo ~flows () in
  let report = Holistic.analyze scenario in
  match report.Holistic.verdict with
  | Holistic.Analysis_failed _ | Holistic.No_fixed_point _ -> ()
  | v -> Alcotest.failf "expected failure, got %a" Holistic.pp_verdict v

let test_conditions () =
  let scenario = Workload.Scenarios.fig1_videoconf () in
  let checks = Conditions.check_all scenario in
  (* 6 flows x 5 stages (every route is 3 hops) = 30 checks. *)
  Alcotest.(check int) "30 stage checks" 30 (List.length checks);
  Alcotest.(check bool) "all satisfied" true (Conditions.all_satisfied checks);
  match Conditions.worst checks with
  | None -> Alcotest.fail "no worst check"
  | Some worst ->
      Alcotest.(check bool) "worst below 1" true (worst.Conditions.utilization < 1.);
      Alcotest.(check bool) "worst above 40%" true
        (worst.Conditions.utilization > 0.4)

let test_admission_check_and_admit () =
  let scenario = Workload.Scenarios.fig1_videoconf () in
  let base = Admission.check scenario in
  Alcotest.(check bool) "base set admitted" true base.Admission.admitted;
  (* An extra small VoIP flow fits. *)
  let topo = Traffic.Scenario.topo scenario in
  let ok_flow =
    Traffic.Flow.make ~id:100 ~name:"extra-voip"
      ~spec:(Workload.Voip.g711_spec ()) ~encap:Ethernet.Encap.Rtp_udp
      ~route:(Network.Route.make topo [ 1; 4; 5; 2 ])
      ~priority:6
  in
  Alcotest.(check bool) "small flow admitted" true
    (Admission.admit scenario ~candidate:ok_flow).Admission.admitted;
  (* A second full-rate video stream on the loaded path does not fit at
     10 Mbit/s. *)
  let fat_flow =
    Traffic.Flow.make ~id:101 ~name:"extra-video"
      ~spec:Workload.Mpeg.fig3_spec ~encap:Ethernet.Encap.Udp
      ~route:(Network.Route.make topo [ 1; 4; 6; 3 ])
      ~priority:5
  in
  Alcotest.(check bool) "fat flow rejected" false
    (Admission.admit scenario ~candidate:fat_flow).Admission.admitted;
  (* And admission does not mutate the original scenario. *)
  Alcotest.(check int) "scenario unchanged" 6
    (Traffic.Scenario.flow_count scenario)

let test_admit_greedily () =
  let topo, hosts, sw = Workload.Topologies.star ~hosts:4 () in
  let mk id =
    Traffic.Flow.make ~id
      ~name:(Printf.sprintf "v%d" id)
      ~spec:(Workload.Mpeg.spec ~deadline:(Timeunit.ms 250) ())
      ~encap:Ethernet.Encap.Udp
      ~route:(Network.Route.make topo [ hosts.(0); sw; hosts.(1) ])
      ~priority:5
  in
  (* Each Figure-3 stream is ~41% of the 10 Mbit/s link: two fit at most. *)
  let candidates = List.init 4 mk in
  let admitted, rejected =
    Admission.admit_greedily ~topo candidates
  in
  Alcotest.(check int) "conservation" 4
    (List.length admitted + List.length rejected);
  Alcotest.(check bool) "some admitted" true (List.length admitted >= 1);
  Alcotest.(check bool) "not all admitted" true (List.length admitted < 4)

(* Holistic.merge on hand-built parts.  The flows' scenario order
   (ids 2, 0, 1) differs from id order, so a position sort is visible. *)
let merge_flows () =
  let topo, hosts, sw = Workload.Topologies.star ~hosts:2 () in
  List.map
    (fun id ->
      Traffic.Flow.make ~id ~name:(Printf.sprintf "m%d" id)
        ~spec:(one_frame_spec ()) ~encap:Ethernet.Encap.Udp
        ~route:(Network.Route.make topo [ hosts.(0); sw; hosts.(1) ])
        ~priority:5)
    [ 2; 0; 1 ]

let merge_result ?(total = Timeunit.ms 1) flow =
  {
    Result_types.flow;
    frames =
      [|
        { Result_types.frame = 0; stages = []; total;
          deadline = Timeunit.ms 50 };
      |];
  }

let merge_failure flow_id reason =
  { Result_types.flow_id; frame = 0; failed_stage = None; reason }

let merge_part ?(rounds = 1) verdict results =
  { Holistic.verdict; rounds; results }

let test_merge_results_and_rounds () =
  let flows = merge_flows () in
  let r = List.map merge_result flows in
  let r2, r0, r1 = (List.nth r 0, List.nth r 1, List.nth r 2) in
  let merged =
    Holistic.merge flows
      [
        merge_part ~rounds:3 Holistic.Schedulable [ r1; r0 ];
        merge_part ~rounds:5 Holistic.Schedulable [ r2 ];
        merge_part ~rounds:0 Holistic.Schedulable [];
      ]
  in
  Alcotest.(check (list int))
    "flow order" [ 2; 0; 1 ]
    (List.map
       (fun res -> res.Result_types.flow.Traffic.Flow.id)
       merged.Holistic.results);
  Alcotest.(check bool)
    "the parts' records" true
    (List.for_all2 ( == ) merged.Holistic.results [ r2; r0; r1 ]);
  Alcotest.(check int) "max rounds" 5 merged.Holistic.rounds;
  Alcotest.(check string)
    "schedulable" "schedulable"
    (Holistic.verdict_tag merged.Holistic.verdict)

let test_merge_verdict_precedence () =
  let flows = merge_flows () in
  let late = merge_result ~total:(Timeunit.ms 60) (List.hd flows) in
  let fine = List.map merge_result (List.tl flows) in
  let tag parts = Holistic.verdict_tag (Holistic.merge flows parts).verdict in
  let failed =
    merge_part (Holistic.Analysis_failed [ merge_failure 0 "x" ]) []
  in
  Alcotest.(check string)
    "failures first" "analysis-failed"
    (tag
       [
         merge_part (Holistic.No_fixed_point 7) fine;
         merge_part Holistic.Schedulable [ late ];
         failed;
       ]);
  (match
     (Holistic.merge flows
        [
          merge_part (Holistic.No_fixed_point 4) fine;
          merge_part (Holistic.No_fixed_point 7) [ late ];
        ])
       .verdict
   with
  | Holistic.No_fixed_point 7 -> ()
  | v ->
      Alcotest.failf "expected the largest divergence, got %a"
        Holistic.pp_verdict v);
  (match
     (Holistic.merge flows [ merge_part Holistic.Schedulable (late :: fine) ])
       .verdict
   with
  | Holistic.Deadline_miss [ m ] ->
      Alcotest.(check int) "missed flow" 2 m.Result_types.flow_id
  | v -> Alcotest.failf "expected one miss, got %a" Holistic.pp_verdict v);
  (* A part's own miss list is not read: the merged results decide. *)
  Alcotest.(check string)
    "misses recomputed" "schedulable"
    (tag [ merge_part (Holistic.Deadline_miss [ merge_failure 0 "x" ]) fine ])

let test_merge_failure_order () =
  let flows = merge_flows () in
  let merged =
    Holistic.merge flows
      [
        merge_part ~rounds:0
          (Holistic.Analysis_failed [ merge_failure 1 "cert1" ])
          [];
        merge_part
          (Holistic.Analysis_failed
             [
               merge_failure (-1) "exec";
               merge_failure 1 "comp1";
               merge_failure 2 "comp2";
             ])
          [];
      ]
  in
  match merged.Holistic.verdict with
  | Holistic.Analysis_failed fs ->
      Alcotest.(check (list string))
        "by flow position, certificate first, unknown ids last"
        [ "comp2"; "cert1"; "comp1"; "exec" ]
        (List.map (fun f -> f.Result_types.reason) fs)
  | v -> Alcotest.failf "expected failures, got %a" Holistic.pp_verdict v

let tests =
  [
    Alcotest.test_case "pipeline sums stages" `Quick test_pipeline_sums_stages;
    Alcotest.test_case "source jitter counts" `Quick
      test_pipeline_source_jitter_counts;
    Alcotest.test_case "direct route (R5)" `Quick test_pipeline_direct_route;
    Alcotest.test_case "all frames of Figure 3" `Quick test_pipeline_all_frames;
    Alcotest.test_case "holistic on Figure 1" `Quick test_holistic_fig1;
    Alcotest.test_case "holistic deterministic" `Quick
      test_holistic_monotone_rounds;
    Alcotest.test_case "deadline miss verdict" `Quick
      test_holistic_deadline_miss;
    Alcotest.test_case "overload verdict" `Quick test_holistic_overload;
    Alcotest.test_case "conditions (eqs 20/34/35)" `Quick test_conditions;
    Alcotest.test_case "admission check/admit" `Quick
      test_admission_check_and_admit;
    Alcotest.test_case "greedy admission" `Quick test_admit_greedily;
    Alcotest.test_case "merge: flow order, records, max rounds" `Quick
      test_merge_results_and_rounds;
    Alcotest.test_case "merge: failures, then divergence, then misses"
      `Quick test_merge_verdict_precedence;
    Alcotest.test_case "merge: stable failure order" `Quick
      test_merge_failure_order;
  ]
