(* Repair R8: own-flow carry-in at the per-frame busy period.

   Setting: a two-frame GMF flow alone on a 10 Mbit/s path, where frame 0's
   transmission time exceeds its period, so frame 1 always queues behind
   frame 0's tail.  Hand-computed first-hop values:

   - frame 0: payload 44 kB -> C0 = 36.5984 ms, T0 = 30 ms
   - frame 1: payload 8 kB  -> C1 =  6.6848 ms, T1 = 270 ms

   First hop of frame 1 with carry-in (l = 1):
     w = C0 (no competitors), R = w + C1 - T0 = 36.5984 + 6.6848 - 30
       = 13.2832 ms,
   whereas the paper's l = 0 case gives only C1 = 6.6848 ms — less than
   what the simulator actually observes. *)
open Gmf_util

let c0 = 36_598_400
let c1 = 6_684_800
let t0 = Timeunit.ms 30

let scenario () =
  let topo, hosts, sw = Workload.Topologies.star ~hosts:2 () in
  let spec =
    Gmf.Spec.make
      [
        Gmf.Frame_spec.make ~period:t0 ~deadline:(Timeunit.ms 400) ~jitter:0
          ~payload_bits:(8 * 44_000);
        Gmf.Frame_spec.make ~period:(Timeunit.ms 270)
          ~deadline:(Timeunit.ms 400) ~jitter:0 ~payload_bits:(8 * 8_000);
      ]
  in
  let flow =
    Traffic.Flow.make ~id:0 ~name:"burst" ~spec ~encap:Ethernet.Encap.Udp
      ~route:(Network.Route.make topo [ hosts.(0); sw; hosts.(1) ])
      ~priority:5
  in
  Traffic.Scenario.make ~topo ~flows:[ flow ] ()

let first_link flow =
  List.hd (Analysis.Stage.stages_of_route flow.Traffic.Flow.route)

let first_hop_bound config =
  let scenario = scenario () in
  let ctx = Analysis.Ctx.create ~config scenario in
  let flow = Traffic.Scenario.flow scenario 0 in
  match
    Analysis.Stage_common.analyze ctx
      (Analysis.Ctx.node ctx flow ~stage:(first_link flow))
      ~frame:1
  with
  | Ok r -> r.Analysis.Result_types.response
  | Error f -> Alcotest.failf "failed: %a" Analysis.Result_types.pp_failure f

let test_repaired_includes_carry_in () =
  Alcotest.(check int) "R = C0 + C1 - T0"
    (c0 + c1 - t0)
    (first_hop_bound Analysis.Config.default)

let test_faithful_misses_it () =
  Alcotest.(check int) "paper rule sees only C1" c1
    (first_hop_bound Analysis.Config.faithful)

let test_simulator_exceeds_faithful () =
  let scenario = scenario () in
  let sim =
    Sim.Netsim.run
      ~config:{ Sim.Sim_config.default with duration = Timeunit.s 2 }
      scenario
  in
  let observed =
    Option.get
      (Sim.Collector.max_stage_span sim.Sim.Netsim.collector ~flow:0 ~frame:1
         ~stage:(Sim.Collector.S_first (1, 0)))
  in
  Alcotest.(check bool)
    (Printf.sprintf "observed %s exceeds the paper's %s"
       (Timeunit.to_string observed) (Timeunit.to_string c1))
    true (observed > c1);
  Alcotest.(check bool) "repaired bound dominates" true
    (observed <= c0 + c1 - t0)

let test_no_carry_in_when_fits () =
  (* Shrink frame 0 below its period: the carry-in term vanishes and both
     variants agree on frame 1's bound. *)
  let topo, hosts, sw = Workload.Topologies.star ~hosts:2 () in
  let spec =
    Gmf.Spec.make
      [
        Gmf.Frame_spec.make ~period:t0 ~deadline:(Timeunit.ms 400) ~jitter:0
          ~payload_bits:(8 * 20_000);
        Gmf.Frame_spec.make ~period:(Timeunit.ms 270)
          ~deadline:(Timeunit.ms 400) ~jitter:0 ~payload_bits:(8 * 8_000);
      ]
  in
  let flow =
    Traffic.Flow.make ~id:0 ~name:"calm" ~spec ~encap:Ethernet.Encap.Udp
      ~route:(Network.Route.make topo [ hosts.(0); sw; hosts.(1) ])
      ~priority:5
  in
  let scenario = Traffic.Scenario.make ~topo ~flows:[ flow ] () in
  let bound config =
    let ctx = Analysis.Ctx.create ~config scenario in
    match
      Analysis.Stage_common.analyze ctx
        (Analysis.Ctx.node ctx flow ~stage:(first_link flow))
        ~frame:1
    with
    | Ok r -> r.Analysis.Result_types.response
    | Error f -> Alcotest.failf "failed: %a" Analysis.Result_types.pp_failure f
  in
  Alcotest.(check int) "variants agree without backlog"
    (bound Analysis.Config.faithful)
    (bound Analysis.Config.default)

let tests =
  [
    Alcotest.test_case "repaired includes carry-in (R8)" `Quick
      test_repaired_includes_carry_in;
    Alcotest.test_case "faithful misses it" `Quick test_faithful_misses_it;
    Alcotest.test_case "simulator exceeds faithful" `Quick
      test_simulator_exceeds_faithful;
    Alcotest.test_case "no carry-in when frames fit" `Quick
      test_no_carry_in_when_fits;
  ]
