(* Fault model, simulator injection, and static survivability: fault
   schedules must validate against the topology, taint conservatively,
   leave untainted journeys inside the analytic bounds, and the survive
   report's rerouted flows must be schedulable when re-analyzed cold on
   their new routes. *)

open Gmf_util
module Fault = Gmf_faults.Fault
module Survive = Gmf_faults.Survive

(* ------------------------------------------------------------------ *)
(* Schedule construction and validation                               *)
(* ------------------------------------------------------------------ *)

let raises_invalid f =
  match f () with
  | _ -> false
  | exception Invalid_argument _ -> true

let test_make_validation () =
  Alcotest.(check bool) "empty is empty" true (Fault.is_empty Fault.empty);
  Alcotest.(check bool) "no events is empty" true
    (Fault.is_empty (Fault.make []));
  Alcotest.(check bool) "an event is not empty" false
    (Fault.is_empty (Fault.make [ Fault.Link_down ((0, 1), 0) ]));
  Alcotest.(check bool) "negative time rejected" true
    (raises_invalid (fun () -> Fault.make [ Fault.Link_down ((0, 1), -5) ]));
  Alcotest.(check bool) "negative stall duration rejected" true
    (raises_invalid (fun () ->
         Fault.make [ Fault.Switch_stall (4, 100, -1) ]));
  Alcotest.(check bool) "loss > 1 rejected" true
    (raises_invalid (fun () -> Fault.make [ Fault.Frame_loss 1.5 ]));
  Alcotest.(check bool) "negative loss rejected" true
    (raises_invalid (fun () -> Fault.make [ Fault.Frame_loss (-0.1) ]));
  let s = Fault.make [ Fault.Frame_loss 0.1; Fault.Frame_loss 0.3 ] in
  Alcotest.(check (float 1e-9)) "loss combines by max" 0.3
    (Fault.loss_probability s);
  Alcotest.(check (float 1e-9)) "no loss is 0" 0.
    (Fault.loss_probability Fault.empty)

let test_duplex_helpers () =
  let down = Fault.duplex_down ~a:3 ~b:7 ~at:500 in
  Alcotest.(check int) "two directions down" 2 (List.length down);
  Alcotest.(check bool) "both directions present" true
    (List.mem (Fault.Link_down ((3, 7), 500)) down
    && List.mem (Fault.Link_down ((7, 3), 500)) down);
  let up = Fault.duplex_up ~a:3 ~b:7 ~at:900 in
  Alcotest.(check bool) "both directions up" true
    (List.mem (Fault.Link_up ((3, 7), 900)) up
    && List.mem (Fault.Link_up ((7, 3), 900)) up)

let test_validate_topology () =
  let topo, hosts, sw = Workload.Topologies.star ~hosts:2 () in
  let ok s = Result.is_ok (Fault.validate topo s) in
  Alcotest.(check bool) "existing link validates" true
    (ok (Fault.make [ Fault.Link_down ((hosts.(0), sw), 0) ]));
  Alcotest.(check bool) "missing link rejected" false
    (ok (Fault.make [ Fault.Link_down ((hosts.(0), hosts.(1)), 0) ]));
  Alcotest.(check bool) "stalling a switch validates" true
    (ok (Fault.make [ Fault.Switch_stall (sw, 0, 100) ]));
  Alcotest.(check bool) "stalling an endhost rejected" false
    (ok (Fault.make [ Fault.Switch_stall (hosts.(0), 0, 100) ]));
  Alcotest.(check bool) "loss needs no topology" true
    (ok (Fault.make [ Fault.Frame_loss 0.5 ]))

(* ------------------------------------------------------------------ *)
(* Fault windows and taint                                            *)
(* ------------------------------------------------------------------ *)

let test_windows () =
  let s =
    Fault.make
      [
        Fault.Link_down ((0, 4), 1_000);
        Fault.Link_up ((0, 4), 5_000);
        Fault.Switch_stall (4, 2_000, 500);
        Fault.Link_down ((1, 4), 8_000);
        Fault.Frame_loss 0.1;
      ]
  in
  let ws = Fault.windows s in
  Alcotest.(check int) "three windows (loss has none)" 3 (List.length ws);
  let find c = List.find (fun w -> w.Fault.w_component = c) ws in
  let closed = find (Fault.C_link (0, 4)) in
  Alcotest.(check int) "closed from" 1_000 closed.Fault.w_from;
  Alcotest.(check (option int)) "closed until" (Some 5_000)
    closed.Fault.w_until;
  let open_ended = find (Fault.C_link (1, 4)) in
  Alcotest.(check (option int)) "open-ended" None open_ended.Fault.w_until;
  let stall = find (Fault.C_switch 4) in
  Alcotest.(check (option int)) "stall until = at + duration" (Some 2_500)
    stall.Fault.w_until

let test_taints () =
  (* Two switches, two hosts each: the fault lives entirely on switch 1's
     side, so a packet that never leaves switch 0 is untouchable. *)
  let topo, hosts, sws =
    Workload.Topologies.line ~hosts_per_switch:2 ~switches:2 ()
  in
  let local = Network.Route.make topo [ hosts.(0).(0); sws.(0); hosts.(0).(1) ] in
  let far_link = (hosts.(1).(0), sws.(1)) in
  let closed =
    Fault.make
      [ Fault.Link_down (far_link, 1_000); Fault.Link_up (far_link, 5_000) ]
  in
  let touched =
    Network.Route.make topo
      [ hosts.(0).(0); sws.(0); sws.(1); hosts.(1).(0) ]
  in
  (* Settle margin: [1000, 5000] perturbs until 5000 + 4000 = 9000. *)
  Alcotest.(check bool) "inside the window" true
    (Fault.taints closed ~route:touched ~from:2_000 ~until:3_000);
  Alcotest.(check bool) "during the settle margin" true
    (Fault.taints closed ~route:touched ~from:9_000 ~until:9_500);
  Alcotest.(check bool) "after the settle margin" false
    (Fault.taints closed ~route:touched ~from:9_001 ~until:9_500);
  Alcotest.(check bool) "before the window" false
    (Fault.taints closed ~route:touched ~from:0 ~until:999);
  Alcotest.(check bool) "route avoiding both endpoints" false
    (Fault.taints closed ~route:local ~from:2_000 ~until:3_000);
  let forever = Fault.make [ Fault.Link_down (far_link, 1_000) ] in
  Alcotest.(check bool) "open-ended taints forever" true
    (Fault.taints forever ~route:touched ~from:1_000_000 ~until:2_000_000);
  let lossy = Fault.make [ Fault.Frame_loss 0.01 ] in
  Alcotest.(check bool) "any loss taints everything" true
    (Fault.taints lossy ~route:local ~from:0 ~until:1)

(* ------------------------------------------------------------------ *)
(* Simulator injection                                                *)
(* ------------------------------------------------------------------ *)

let single_flow_scenario () =
  let topo, hosts, sw = Workload.Topologies.star ~hosts:2 () in
  let spec =
    Gmf.Spec.make
      [
        Gmf.Frame_spec.make ~period:(Timeunit.ms 10)
          ~deadline:(Timeunit.ms 50) ~jitter:0 ~payload_bits:(8 * 1_472);
      ]
  in
  let flow =
    Traffic.Flow.make ~id:0 ~name:"solo" ~spec ~encap:Ethernet.Encap.Udp
      ~route:(Network.Route.make topo [ hosts.(0); sw; hosts.(1) ])
      ~priority:5
  in
  (Traffic.Scenario.make ~topo ~flows:[ flow ] (), hosts, sw)

let run_ms ?faults scenario ms =
  Sim.Netsim.run
    ~config:{ Sim.Sim_config.default with duration = Timeunit.ms ms }
    ?faults scenario

let test_sim_link_down_drop () =
  let scenario, hosts, sw = single_flow_scenario () in
  let faults =
    Fault.make ~policy:Fault.Drop
      [ Fault.Link_down ((hosts.(0), sw), Timeunit.ms 15) ]
  in
  let report = run_ms ~faults scenario 35 in
  (* Packets at 0 and 10 ms get through; 20 and 30 ms die at the dead
     first link. *)
  Alcotest.(check int) "4 released" 4 report.Sim.Netsim.packets_released;
  Alcotest.(check int) "2 completed" 2 report.Sim.Netsim.packets_completed;
  Alcotest.(check int) "2 fault drops" 2 report.Sim.Netsim.fault_drops;
  Alcotest.(check int) "queue drops are separate" 0
    report.Sim.Netsim.fragments_dropped;
  (* Pre-fault completions never overlapped the (open-ended) window. *)
  Alcotest.(check int) "untainted" 0 report.Sim.Netsim.tainted_completions

let test_sim_link_down_hold_recovers () =
  let scenario, hosts, sw = single_flow_scenario () in
  let faults =
    Fault.make
      (Fault.duplex_down ~a:hosts.(0) ~b:sw ~at:(Timeunit.ms 12)
      @ Fault.duplex_up ~a:hosts.(0) ~b:sw ~at:(Timeunit.ms 18))
  in
  let report = run_ms ~faults scenario 35 in
  Alcotest.(check int) "held frames are not lost" 0
    report.Sim.Netsim.fault_drops;
  Alcotest.(check int) "everything completes" 0
    (Sim.Collector.incomplete report.Sim.Netsim.collector);
  Alcotest.(check bool) "the held packet is tainted" true
    (report.Sim.Netsim.tainted_completions >= 1);
  Alcotest.(check int) "taint counter agrees"
    report.Sim.Netsim.tainted_completions
    (Sim.Collector.tainted_count report.Sim.Netsim.collector);
  (* The sim-vs-analysis cross-check survives the fault: journeys outside
     the fault window still respect the analytic bound, because tainted
     completions stay out of the response statistics. *)
  let bound =
    Experiments.Exp_common.worst_total (Analysis.Holistic.analyze scenario) 0
  in
  match Sim.Collector.max_response_flow report.Sim.Netsim.collector ~flow:0 with
  | None -> Alcotest.fail "no untainted journey survived"
  | Some worst ->
      Alcotest.(check bool)
        (Printf.sprintf "untainted max %d <= bound %d" worst bound)
        true (worst <= bound)

let test_sim_frame_loss () =
  let scenario, _, _ = single_flow_scenario () in
  let faults = Fault.make [ Fault.Frame_loss 1.0 ] in
  let report = run_ms ~faults scenario 35 in
  Alcotest.(check int) "nothing completes at p=1" 0
    report.Sim.Netsim.packets_completed;
  Alcotest.(check bool) "losses counted" true
    (report.Sim.Netsim.fault_drops >= report.Sim.Netsim.packets_released);
  (* Determinism: the loss stream is seeded from the sim seed. *)
  let again = run_ms ~faults scenario 35 in
  Alcotest.(check int) "deterministic" report.Sim.Netsim.fault_drops
    again.Sim.Netsim.fault_drops

let test_sim_switch_stall () =
  let scenario, _, sw = single_flow_scenario () in
  let faults =
    Fault.make [ Fault.Switch_stall (sw, Timeunit.ms 10, Timeunit.ms 5) ]
  in
  let report = run_ms ~faults scenario 35 in
  Alcotest.(check int) "stall loses nothing" 0 report.Sim.Netsim.fault_drops;
  Alcotest.(check int) "everything completes" 0
    (Sim.Collector.incomplete report.Sim.Netsim.collector);
  Alcotest.(check bool) "the delayed packet is tainted" true
    (report.Sim.Netsim.tainted_completions >= 1)

let test_sim_rejects_invalid_schedule () =
  let scenario, hosts, _ = single_flow_scenario () in
  let faults =
    Fault.make [ Fault.Link_down ((hosts.(0), hosts.(1)), 0) ]
  in
  Alcotest.(check bool) "validate gate" true
    (raises_invalid (fun () -> run_ms ~faults scenario 35))

(* ------------------------------------------------------------------ *)
(* Static survivability                                               *)
(* ------------------------------------------------------------------ *)

let test_survive_components () =
  let scenario = Workload.Scenarios.fig1_videoconf () in
  let comps = Survive.components scenario in
  let links =
    List.filter (function Survive.Link _ -> true | _ -> false) comps
  in
  let switches =
    List.filter (function Survive.Switch _ -> true | _ -> false) comps
  in
  (* Figure 1: 8 undirected links, 3 software switches. *)
  Alcotest.(check int) "8 links" 8 (List.length links);
  Alcotest.(check int) "3 switches" 3 (List.length switches);
  List.iter
    (function
      | Survive.Link (a, b) ->
          Alcotest.(check bool) "undirected, small id first" true (a < b)
      | Survive.Switch _ -> ())
    comps

let test_survive_shed_order () =
  let topo, hosts, sw = Workload.Topologies.star ~hosts:2 () in
  let flow ~id ~priority =
    Traffic.Flow.make ~id ~name:(Printf.sprintf "f%d" id)
      ~spec:(Workload.Voip.g711_spec ()) ~encap:Ethernet.Encap.Udp
      ~route:(Network.Route.make topo [ hosts.(0); sw; hosts.(1) ])
      ~priority
  in
  let flows = [ flow ~id:0 ~priority:3; flow ~id:1 ~priority:7;
                flow ~id:2 ~priority:3 ] in
  Alcotest.(check (list int))
    "lowest priority first, newest first within a tie" [ 2; 0; 1 ]
    (List.map (fun f -> f.Traffic.Flow.id) (Survive.shed_order flows))

(* The acceptance property: in every failure case, a flow the report says
   was rerouted must (a) avoid the failed components on its new route and
   (b) be schedulable when the surviving set is re-analyzed cold. *)
let test_survive_fig1_reroutes_check_cold () =
  let scenario = Workload.Scenarios.fig1_videoconf () in
  let report = Survive.run ~k:1 scenario in
  Alcotest.(check bool) "base scenario is schedulable" true
    (Analysis.Holistic.is_schedulable report.Survive.base);
  Alcotest.(check int) "one case per component" 11
    (List.length report.Survive.cases);
  List.iter
    (fun (case : Survive.case_result) ->
      let name =
        String.concat "+"
          (List.map (Survive.component_name scenario) case.Survive.case)
      in
      let failed_nodes =
        List.concat_map
          (function Survive.Switch n -> [ n ] | Survive.Link _ -> [])
          case.Survive.case
      in
      let failed_links =
        List.concat_map
          (function
            | Survive.Link (a, b) -> [ (a, b); (b, a) ]
            | Survive.Switch _ -> [])
          case.Survive.case
      in
      let survivors =
        List.filter_map
          (fun (flow, fate) ->
            match fate with
            | Survive.Unaffected -> Some flow
            | Survive.Rerouted route ->
                List.iter
                  (fun hop ->
                    if List.mem hop failed_links then
                      Alcotest.failf "%s: reroute crosses the failed link"
                        name)
                  (Network.Route.hops route);
                List.iter
                  (fun n ->
                    if List.mem n failed_nodes then
                      Alcotest.failf "%s: reroute crosses the failed switch"
                        name)
                  (Network.Route.nodes route);
                Some (Analysis.Rerouting.with_route flow route)
            | Survive.Shed -> None)
          case.Survive.fates
      in
      match survivors with
      | [] -> ()
      | flows ->
          let switches =
            List.map
              (fun n -> (n, Traffic.Scenario.switch_model scenario n))
              (Traffic.Scenario.switch_nodes scenario)
          in
          let degraded =
            Traffic.Scenario.make ~switches
              ~topo:(Traffic.Scenario.topo scenario) ~flows ()
          in
          let cold = Analysis.Holistic.analyze degraded in
          Alcotest.(check bool)
            (name ^ ": surviving set is schedulable cold") true
            (Analysis.Holistic.is_schedulable cold))
    report.Survive.cases

let test_survive_matrix_consistent () =
  let scenario = Workload.Scenarios.fig1_videoconf () in
  let report = Survive.run ~k:1 scenario in
  (* The matrix is the per-flow aggregate of the case fates. *)
  List.iter
    (fun (flow, verdict) ->
      let fates =
        List.map
          (fun c -> List.assq flow c.Survive.fates)
          report.Survive.cases
      in
      let shed_somewhere = List.mem Survive.Shed fates in
      let rerouted_somewhere =
        List.exists
          (function Survive.Rerouted _ -> true | _ -> false)
          fates
      in
      let expect =
        if shed_somewhere then Survive.Must_shed
        else if rerouted_somewhere then Survive.Survives_with_reroute
        else Survive.Survives
      in
      Alcotest.(check bool)
        (flow.Traffic.Flow.name ^ ": matrix matches fates") true
        (verdict = expect);
      Alcotest.(check bool)
        (flow.Traffic.Flow.name ^ ": shed set matches matrix")
        shed_somewhere
        (List.memq flow report.Survive.shed_set))
    report.Survive.matrix

let test_survive_k_bounds () =
  let scenario = Workload.Scenarios.fig1_videoconf () in
  Alcotest.(check bool) "negative k rejected" true
    (raises_invalid (fun () -> Survive.run ~k:(-1) scenario));
  let r0 = Survive.run ~k:0 scenario in
  Alcotest.(check int) "k=0 has no cases" 0 (List.length r0.Survive.cases);
  Alcotest.(check bool) "k=0 sheds nothing" true (r0.Survive.shed_set = [])

(* Every case's fates hold the scenario's own flow records, not copies:
   callers look fates up by physical equality against
   [Scenario.flows] (the [List.assq] above). *)
let test_survive_fates_keep_flow_identity () =
  let scenario = Workload.Scenarios.fig1_videoconf () in
  let flows = Traffic.Scenario.flows scenario in
  let report = Survive.run ~k:1 scenario in
  List.iter
    (fun c ->
      List.iter
        (fun ((f : Traffic.Flow.t), _) ->
          if not (List.memq f flows) then
            Alcotest.failf "%s: fate of %s is a copy"
              (String.concat " + "
                 (List.map (Survive.component_name scenario) c.Survive.case))
              f.Traffic.Flow.name)
        c.Survive.fates)
    report.Survive.cases

let tests =
  [
    Alcotest.test_case "schedule validation" `Quick test_make_validation;
    Alcotest.test_case "duplex helpers" `Quick test_duplex_helpers;
    Alcotest.test_case "validate against topology" `Quick
      test_validate_topology;
    Alcotest.test_case "fault windows" `Quick test_windows;
    Alcotest.test_case "taint is conservative" `Quick test_taints;
    Alcotest.test_case "sim: link down, drop policy" `Quick
      test_sim_link_down_drop;
    Alcotest.test_case "sim: link down, hold + recovery" `Quick
      test_sim_link_down_hold_recovers;
    Alcotest.test_case "sim: frame loss" `Quick test_sim_frame_loss;
    Alcotest.test_case "sim: switch stall" `Quick test_sim_switch_stall;
    Alcotest.test_case "sim: invalid schedule rejected" `Quick
      test_sim_rejects_invalid_schedule;
    Alcotest.test_case "survive: component enumeration" `Quick
      test_survive_components;
    Alcotest.test_case "survive: shed order" `Quick test_survive_shed_order;
    Alcotest.test_case "survive: fig1 reroutes re-check cold" `Slow
      test_survive_fig1_reroutes_check_cold;
    Alcotest.test_case "survive: matrix consistent with fates" `Slow
      test_survive_matrix_consistent;
    Alcotest.test_case "survive: k bounds" `Quick test_survive_k_bounds;
    Alcotest.test_case "survive: fates keep flow identity" `Quick
      test_survive_fates_keep_flow_identity;
  ]
