(* CSV export of analysis reports + the committed scenario files. *)

let report () =
  Analysis.Holistic.analyze (Workload.Scenarios.fig1_videoconf ())

let lines text =
  String.split_on_char '\n' text |> List.filter (fun l -> l <> "")

let test_frame_csv_shape () =
  let csv = Analysis.Report_io.frame_csv (report ()) in
  let rows = lines csv in
  (* Header + (9+1+9+1+1+1) frames. *)
  Alcotest.(check int) "header + 22 rows" 23 (List.length rows);
  Alcotest.(check string) "header"
    "flow_id,flow_name,priority,frame,bound_ns,deadline_ns,slack_ns,meets"
    (List.hd rows);
  (* Every data row has 8 comma-separated fields, parseable numbers. *)
  List.iter
    (fun row ->
      let fields = String.split_on_char ',' row in
      Alcotest.(check int) "8 fields" 8 (List.length fields);
      List.iteri
        (fun i f ->
          if i <> 1 && i <> 7 then
            Alcotest.(check bool)
              (Printf.sprintf "numeric field %d (%s)" i f)
              true
              (int_of_string_opt f <> None))
        fields)
    (List.tl rows)

let test_stage_csv_shape () =
  let csv = Analysis.Report_io.stage_csv (report ()) in
  let rows = lines csv in
  (* 22 frames x 5 stages + header. *)
  Alcotest.(check int) "header + 110 rows" 111 (List.length rows);
  Alcotest.(check string) "header"
    "flow_id,flow_name,frame,stage,response_ns,busy_ns,q" (List.hd rows)

let test_csv_matches_report () =
  let report = report () in
  let csv = Analysis.Report_io.frame_csv report in
  (* Spot-check the video flow's frame 0 bound appears verbatim. *)
  let video = Experiments.Exp_common.flow_result report 0 in
  let bound =
    video.Analysis.Result_types.frames.(0).Analysis.Result_types.total
  in
  let expected = Printf.sprintf "0,video:0->3,5,0,%d," bound in
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec scan i = i + n <= h && (String.sub hay i n = needle || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "bound row present" true (contains csv expected)

let test_verdict_line () =
  Alcotest.(check string) "verdict line" "verdict,schedulable,rounds,3"
    (Analysis.Report_io.verdict_line (report ()))

let test_sanitize () =
  (* Names with commas cannot corrupt the CSV. *)
  let topo, hosts, sw = Workload.Topologies.star ~hosts:2 () in
  let flow =
    Traffic.Flow.make ~id:0 ~name:"evil,name" ~spec:(Workload.Voip.g711_spec ())
      ~encap:Ethernet.Encap.Udp
      ~route:(Network.Route.make topo [ hosts.(0); sw; hosts.(1) ])
      ~priority:5
  in
  let scenario = Traffic.Scenario.make ~topo ~flows:[ flow ] () in
  let csv = Analysis.Report_io.frame_csv (Analysis.Holistic.analyze scenario) in
  List.iter
    (fun row ->
      Alcotest.(check int) "still 8 fields" 8
        (List.length (String.split_on_char ',' row)))
    (lines csv)

let test_committed_scenario_files_parse () =
  (* The .gmfnet files shipped in examples/scenarios must parse and match
     their in-code counterparts' analysis verdicts. *)
  List.iter
    (fun (file, scenario) ->
      let path = Filename.concat (Example_corpus.dir ()) file in
      match Scenario_io.Parse.scenario_of_file path with
      | Error e ->
          Alcotest.failf "%s: %a" file Scenario_io.Parse.pp_error e
      | Ok parsed ->
          Alcotest.(check int)
            (file ^ ": same flow count")
            (Traffic.Scenario.flow_count scenario)
            (Traffic.Scenario.flow_count parsed);
          let bound s id = Experiments.Exp_common.worst_total (Analysis.Holistic.analyze s) id in
          Alcotest.(check int)
            (file ^ ": same flow-0 bound")
            (bound scenario 0) (bound parsed 0))
    [
      ("fig1.gmfnet", Workload.Scenarios.fig1_videoconf ());
      ("voip.gmfnet", Workload.Scenarios.single_switch_voip ());
      ("chain.gmfnet", Workload.Scenarios.multihop_chain ());
      ("enterprise.gmfnet", Workload.Scenarios.enterprise ());
    ]

let tests =
  [
    Alcotest.test_case "frame csv shape" `Quick test_frame_csv_shape;
    Alcotest.test_case "stage csv shape" `Quick test_stage_csv_shape;
    Alcotest.test_case "csv matches report" `Quick test_csv_matches_report;
    Alcotest.test_case "verdict line" `Quick test_verdict_line;
    Alcotest.test_case "comma sanitizing" `Quick test_sanitize;
    Alcotest.test_case "committed scenario files" `Quick
      test_committed_scenario_files_parse;
  ]
