(* Smoke tests of the pretty-printers and file-level round trips: printers
   feed error messages and reports, so they must not raise and must carry
   the load-bearing fields. *)
open Gmf_util

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec scan i = i + n <= h && (String.sub hay i n = needle || scan (i + 1)) in
  scan 0

let str pp v = Format.asprintf "%a" pp v

let test_timeunit_pp_negative () =
  (* Slack values are printed and can be negative. *)
  Alcotest.(check string) "negative ns" "-500ns" (Timeunit.to_string (-500));
  Alcotest.(check string) "negative ms" "-1.5ms"
    (Timeunit.to_string (-1_500_000))

let test_core_printers () =
  let scenario = Workload.Scenarios.fig1_videoconf () in
  let flow = Traffic.Scenario.flow scenario 0 in
  Alcotest.(check bool) "flow pp has name" true
    (contains (str Traffic.Flow.pp flow) "video:0->3");
  Alcotest.(check bool) "spec pp has n" true
    (contains (str Gmf.Spec.pp flow.Traffic.Flow.spec) "n=9");
  Alcotest.(check bool) "route pp" true
    (contains (str Network.Route.pp flow.Traffic.Flow.route) "0->4->6->3");
  let link = Network.Topology.link_exn (Traffic.Scenario.topo scenario) ~src:0 ~dst:4 in
  Alcotest.(check bool) "link pp has rate" true
    (contains (str Network.Link.pp link) "10000000");
  let p = Traffic.Scenario.params scenario flow ~src:0 ~dst:4 in
  Alcotest.(check bool) "params pp has NSUM" true
    (contains (str Traffic.Link_params.pp p) "NSUM=94");
  let model = Traffic.Scenario.switch_model scenario 4 in
  Alcotest.(check bool) "switch pp has CIRC" true
    (contains (str Click.Switch_model.pp model) "CIRC=14.8us")

let test_analysis_printers () =
  let scenario = Workload.Scenarios.fig1_videoconf () in
  let report = Analysis.Holistic.analyze scenario in
  Alcotest.(check bool) "report pp has verdict" true
    (contains (str Analysis.Holistic.pp report) "schedulable");
  Alcotest.(check bool) "config pp has variant" true
    (contains (str Analysis.Config.pp Analysis.Config.default) "repaired");
  Alcotest.(check bool) "tight config marked" true
    (contains (str Analysis.Config.pp Analysis.Config.tight) "tight-jitter");
  Alcotest.(check bool) "stage pp" true
    (contains (str Analysis.Stage.pp (Analysis.Stage.Egress (4, 6))) "out(4->6)");
  (match Analysis.Conditions.check_all scenario with
  | c :: _ ->
      Alcotest.(check bool) "condition pp has U" true
        (contains (str Analysis.Conditions.pp_check c) "U=")
  | [] -> Alcotest.fail "no conditions");
  (* Fixpoint outcomes *)
  Alcotest.(check bool) "converged pp" true
    (contains
       (str Analysis.Fixpoint.pp
          (Analysis.Fixpoint.Converged { value = 1000; iters = 1 }))
       "1us");
  Alcotest.(check bool) "diverged pp" true
    (contains (str Analysis.Fixpoint.pp (Analysis.Fixpoint.Diverged "boom")) "boom")

let test_sim_config_pp () =
  Alcotest.(check bool) "sim config pp" true
    (contains (str Sim.Sim_config.pp Sim.Sim_config.default) "seed=42")

let test_scenario_file_roundtrip () =
  let scenario = Workload.Scenarios.single_switch_voip () in
  let path = Filename.temp_file "gmfnet" ".gmfnet" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Scenario_io.Print.to_file path scenario;
      match Scenario_io.Parse.scenario_of_file path with
      | Error e ->
          Alcotest.failf "reparse failed: %a" Scenario_io.Parse.pp_error e
      | Ok parsed ->
          Alcotest.(check int) "same flows"
            (Traffic.Scenario.flow_count scenario)
            (Traffic.Scenario.flow_count parsed))

let test_missing_file_reports () =
  match Scenario_io.Parse.scenario_of_file "/nonexistent/nowhere.gmfnet" with
  | Ok _ -> Alcotest.fail "expected an error"
  | Error e -> Alcotest.(check int) "line 0" 0 e.Scenario_io.Parse.line

let test_jitter_spread_semantics () =
  (* A fragmented packet with GJ > 0 under Spread: the last Ethernet frame
     is queued strictly inside [t, t + GJ) (paper Section 2.3). *)
  let topo, hosts, sw = Workload.Topologies.star ~hosts:2 () in
  let gj = Timeunit.ms 2 in
  let spec =
    Gmf.Spec.make
      [
        Gmf.Frame_spec.make ~period:(Timeunit.ms 20) ~deadline:(Timeunit.ms 100)
          ~jitter:gj ~payload_bits:(8 * 5_000);
      ]
  in
  let flow =
    Traffic.Flow.make ~id:0 ~name:"jittery" ~spec ~encap:Ethernet.Encap.Udp
      ~route:(Network.Route.make topo [ hosts.(0); sw; hosts.(1) ])
      ~priority:5
  in
  let scenario = Traffic.Scenario.make ~topo ~flows:[ flow ] () in
  let sim =
    Sim.Netsim.run
      ~config:
        { Sim.Sim_config.default with duration = Timeunit.ms 50;
          trace_limit = 2 }
      scenario
  in
  List.iter
    (fun (j : Sim.Collector.journey) ->
      let find what =
        List.find_map
          (fun (t, w) -> if w = what then Some t else None)
          j.Sim.Collector.j_events
      in
      match (find "released at source", find "last Ethernet frame queued") with
      | Some released, Some last ->
          Alcotest.(check bool) "spread inside [t, t+GJ)" true
            (last > released && last < released + gj)
      | _ -> Alcotest.fail "missing journey events")
    (Sim.Collector.journeys sim.Sim.Netsim.collector)

let tests =
  [
    Alcotest.test_case "negative durations" `Quick test_timeunit_pp_negative;
    Alcotest.test_case "core printers" `Quick test_core_printers;
    Alcotest.test_case "analysis printers" `Quick test_analysis_printers;
    Alcotest.test_case "sim config printer" `Quick test_sim_config_pp;
    Alcotest.test_case "scenario file round trip" `Quick
      test_scenario_file_roundtrip;
    Alcotest.test_case "missing file" `Quick test_missing_file_reports;
    Alcotest.test_case "jitter spread semantics" `Quick
      test_jitter_spread_semantics;
  ]
