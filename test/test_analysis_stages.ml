(* Stage analyses checked against values computed by hand from the paper's
   equations (see the derivations in the comments).

   Common setting: a star with one switch (degree 2 -> CIRC = 2 * 3.7us =
   7.4us), 10 Mbit/s links, zero propagation delay.  Flows carry a single
   GMF frame of 1472 bytes of UDP payload, so nbits = 11840 bits exactly:
   one maximal Ethernet frame, C = MFT = 1.2304 ms.  Period 10 ms, zero
   jitter, deadline 50 ms. *)
open Gmf_util
open Analysis

let c_frame = 1_230_400 (* = MFT at 10 Mbit/s *)
let circ = 7_400
let period = Timeunit.ms 10

let one_frame_spec () =
  Gmf.Spec.make
    [
      Gmf.Frame_spec.make ~period ~deadline:(Timeunit.ms 50) ~jitter:0
        ~payload_bits:(8 * 1_472);
    ]

(* [nflows] identical single-frame flows from host 0 to host 1 via the
   switch, priorities given per flow. *)
let star_scenario priorities =
  let topo, hosts, sw = Workload.Topologies.star ~hosts:2 () in
  let flows =
    List.mapi
      (fun id priority ->
        Traffic.Flow.make ~id
          ~name:(Printf.sprintf "f%d" id)
          ~spec:(one_frame_spec ()) ~encap:Ethernet.Encap.Udp
          ~route:(Network.Route.make topo [ hosts.(0); sw; hosts.(1) ])
          ~priority)
      priorities
  in
  (Traffic.Scenario.make ~topo ~flows (), sw)

(* The flow's stages on the star: first link, then ingress and egress at
   the switch. *)
let first_link flow = List.hd (Stage.stages_of_route flow.Traffic.Flow.route)
let egress flow sw =
  Stage.Egress (sw, Network.Route.succ flow.Traffic.Flow.route sw)

(* The stage analysis at the flow's node of [stage]. *)
let analyze ctx ~flow ~frame stage =
  Stage_common.analyze ctx (Ctx.node ctx flow ~stage) ~frame

let get = function
  | Ok (r : Result_types.stage_response) -> r
  | Error f -> Alcotest.failf "stage failed: %a" Result_types.pp_failure f

let test_single_flow_first_hop () =
  let scenario, _ = star_scenario [ 5 ] in
  let ctx = Ctx.create scenario in
  let flow = Traffic.Scenario.flow scenario 0 in
  let r = get (analyze ctx ~flow ~frame:0 (first_link flow)) in
  (* Alone on the link: R = C (eqs 16-19 with empty interference). *)
  Alcotest.(check int) "R = C" c_frame r.Result_types.response;
  Alcotest.(check int) "busy = C" c_frame r.Result_types.busy_len;
  Alcotest.(check int) "Q = 1" 1 r.Result_types.q_count

let test_single_flow_ingress () =
  let scenario, sw = star_scenario [ 5 ] in
  let ctx = Ctx.create scenario in
  let flow = Traffic.Scenario.flow scenario 0 in
  let r = get (analyze ctx ~flow ~frame:0 (Stage.Ingress sw)) in
  (* One Ethernet frame, one task rotation: R = CIRC (eq 25). *)
  Alcotest.(check int) "R = CIRC" circ r.Result_types.response

let test_single_flow_egress () =
  let scenario, sw = star_scenario [ 5 ] in
  let ctx = Ctx.create scenario in
  let flow = Traffic.Scenario.flow scenario 0 in
  let r = get (analyze ctx ~flow ~frame:0 (egress flow sw)) in
  (* Repaired: w(0) = MFT + m*CIRC, R = w + C = 2*MFT + CIRC. *)
  Alcotest.(check int) "R = 2*MFT + CIRC"
    ((2 * c_frame) + circ)
    r.Result_types.response

let test_single_flow_egress_faithful () =
  let scenario, sw = star_scenario [ 5 ] in
  let ctx = Ctx.create ~config:Config.faithful scenario in
  let flow = Traffic.Scenario.flow scenario 0 in
  let r = get (analyze ctx ~flow ~frame:0 (egress flow sw)) in
  (* Faithful: no own-rotation charge, R = MFT + C = 2*MFT. *)
  Alcotest.(check int) "R = 2*MFT" (2 * c_frame) r.Result_types.response

let test_two_flow_first_hop () =
  let scenario, _ = star_scenario [ 5; 5 ] in
  let ctx = Ctx.create scenario in
  let flow = Traffic.Scenario.flow scenario 0 in
  let r = get (analyze ctx ~flow ~frame:0 (first_link flow)) in
  (* The work-conserving first hop sees the competitor's frame ahead:
     w(0) = C_B, R = C_B + C_A = 2C. *)
  Alcotest.(check int) "R = 2C" (2 * c_frame) r.Result_types.response;
  (* Busy period covers both flows' frames. *)
  Alcotest.(check int) "busy = 2C" (2 * c_frame) r.Result_types.busy_len

let test_two_flow_first_hop_faithful_degenerates () =
  (* Under the paper's literal MXS clamp (eq 10), zero jitter makes the
     competitor invisible in w(q): the documented repair-R7 defect. *)
  let scenario, _ = star_scenario [ 5; 5 ] in
  let ctx = Ctx.create ~config:Config.faithful scenario in
  let flow = Traffic.Scenario.flow scenario 0 in
  let r = get (analyze ctx ~flow ~frame:0 (first_link flow)) in
  Alcotest.(check int) "faithful loses the competitor" c_frame
    r.Result_types.response

let test_two_flow_ingress () =
  let scenario, sw = star_scenario [ 5; 5 ] in
  let ctx = Ctx.create scenario in
  let flow = Traffic.Scenario.flow scenario 0 in
  let r = get (analyze ctx ~flow ~frame:0 (Stage.Ingress sw)) in
  (* Competitor's Ethernet frame takes one rotation, ours the next:
     R = 2 * CIRC. *)
  Alcotest.(check int) "R = 2*CIRC" (2 * circ) r.Result_types.response

let test_two_flow_egress_equal_priority () =
  let scenario, sw = star_scenario [ 5; 5 ] in
  let ctx = Ctx.create scenario in
  let flow = Traffic.Scenario.flow scenario 0 in
  let r = get (analyze ctx ~flow ~frame:0 (egress flow sw)) in
  (* w(0) = MFT + CIRC + C_B + CIRC_B; R = w + C_A
         = MFT + 2C + 2*CIRC = 3*MFT + 2*CIRC. *)
  Alcotest.(check int) "R = 3*MFT + 2*CIRC"
    ((3 * c_frame) + (2 * circ))
    r.Result_types.response

let test_two_flow_egress_priority_shields () =
  (* Give the analyzed flow the higher priority: the competitor drops out of
     hep and only the MFT blocking term remains. *)
  let scenario, sw = star_scenario [ 6; 5 ] in
  let ctx = Ctx.create scenario in
  let flow = Traffic.Scenario.flow scenario 0 in
  let r = get (analyze ctx ~flow ~frame:0 (egress flow sw)) in
  Alcotest.(check int) "R = 2*MFT + CIRC (blocking only)"
    ((2 * c_frame) + circ)
    r.Result_types.response;
  (* The lower-priority flow conversely suffers from the high one. *)
  let low = Traffic.Scenario.flow scenario 1 in
  let r_low =
    get (analyze ctx ~flow:low ~frame:0 (egress low sw))
  in
  Alcotest.(check int) "lp flow sees hp interference"
    ((3 * c_frame) + (2 * circ))
    r_low.Result_types.response

let test_jitter_inflates_interference () =
  (* Give the competitor jitter at the egress stage: its extra term enlarges
     the interference window.  With extra = TSUM the competitor can hit the
     window twice. *)
  let scenario, sw = star_scenario [ 5; 5 ] in
  let ctx = Ctx.create scenario in
  let flow = Traffic.Scenario.flow scenario 0 in
  let competitor = Traffic.Scenario.flow scenario 1 in
  Ctx.set_jitter ctx competitor ~frame:0 ~stage:(Stage.Egress (sw, 2)) period;
  let r = get (analyze ctx ~flow ~frame:0 (egress flow sw)) in
  let no_jitter_bound = (3 * c_frame) + (2 * circ) in
  Alcotest.(check bool) "bound grows with jitter" true
    (r.Result_types.response > no_jitter_bound)

let test_overload_diverges () =
  (* Three flows of period 3ms and C = 1.2304ms each: utilization > 1 on the
     shared first link; the busy period must not converge (eq 20). *)
  let topo, hosts, sw = Workload.Topologies.star ~hosts:2 () in
  let spec =
    Gmf.Spec.make
      [
        Gmf.Frame_spec.make ~period:(Timeunit.ms 3) ~deadline:(Timeunit.ms 50)
          ~jitter:0 ~payload_bits:(8 * 1_472);
      ]
  in
  let flows =
    List.init 3 (fun id ->
        Traffic.Flow.make ~id
          ~name:(Printf.sprintf "f%d" id)
          ~spec ~encap:Ethernet.Encap.Udp
          ~route:(Network.Route.make topo [ hosts.(0); sw; hosts.(1) ])
          ~priority:5)
  in
  let scenario = Traffic.Scenario.make ~topo ~flows () in
  let ctx = Ctx.create scenario in
  let flow = Traffic.Scenario.flow scenario 0 in
  (match analyze ctx ~flow ~frame:0 (first_link flow) with
  | Ok _ -> Alcotest.fail "overloaded link must not converge"
  | Error f ->
      Alcotest.(check bool) "failure names the stage" true
        (f.Result_types.failed_stage = Some (Stage.First_link (hosts.(0), sw))));
  Alcotest.(check bool) "eq 20 violated" true
    (Traffic.Scenario.link_utilization scenario ~src:hosts.(0) ~dst:sw >= 1.)

let test_utilization_conditions () =
  let scenario, sw = star_scenario [ 5; 5 ] in
  let module Static_tests = Gmf_precheck.Static_tests in
  let flow = Traffic.Scenario.flow scenario 0 in
  let u_link = 2. *. (1_230_400. /. 10_000_000.) in
  let host = Network.Route.source flow.Traffic.Flow.route in
  Alcotest.(check (float 1e-6)) "first hop (eq 20)" u_link
    (Traffic.Scenario.link_utilization scenario ~src:host ~dst:sw);
  (* Ingress: 2 flows, 1 rotation per cycle each. *)
  Alcotest.(check (float 1e-6)) "ingress" (2. *. (7_400. /. 10_000_000.))
    (Traffic.Scenario.ingress_utilization scenario ~src:host ~node:sw);
  Alcotest.(check (float 1e-6)) "egress (eqs 34-35)" u_link
    (Static_tests.egress_utilization scenario flow ~node:sw)

let test_frame_index_validation () =
  let scenario, sw = star_scenario [ 5 ] in
  let ctx = Ctx.create scenario in
  let flow = Traffic.Scenario.flow scenario 0 in
  Alcotest.check_raises "first hop"
    (Invalid_argument "Stage_eq.make: frame index out of range") (fun () ->
      ignore (analyze ctx ~flow ~frame:1 (first_link flow)));
  Alcotest.check_raises "ingress off-route"
    (Invalid_argument "Stage_eq.make: node not on the flow's route")
    (fun () ->
      ignore
        (Gmf_precheck.Stage_eq.make ~config:Config.default scenario flow
           (Stage.Ingress 99) ~frame:0));
  Alcotest.check_raises "no node off the route"
    (Invalid_argument "Ctx.node: in(99) is not a stage of flow 0 here")
    (fun () -> ignore (analyze ctx ~flow ~frame:0 (Stage.Ingress 99)));
  ignore sw

let tests =
  [
    Alcotest.test_case "single flow: first hop" `Quick
      test_single_flow_first_hop;
    Alcotest.test_case "single flow: ingress" `Quick test_single_flow_ingress;
    Alcotest.test_case "single flow: egress" `Quick test_single_flow_egress;
    Alcotest.test_case "single flow: egress (faithful)" `Quick
      test_single_flow_egress_faithful;
    Alcotest.test_case "two flows: first hop" `Quick test_two_flow_first_hop;
    Alcotest.test_case "faithful variant degenerates (R7)" `Quick
      test_two_flow_first_hop_faithful_degenerates;
    Alcotest.test_case "two flows: ingress" `Quick test_two_flow_ingress;
    Alcotest.test_case "two flows: egress equal prio" `Quick
      test_two_flow_egress_equal_priority;
    Alcotest.test_case "priority shields egress" `Quick
      test_two_flow_egress_priority_shields;
    Alcotest.test_case "jitter inflates interference" `Quick
      test_jitter_inflates_interference;
    Alcotest.test_case "overload diverges" `Quick test_overload_diverges;
    Alcotest.test_case "utilization conditions" `Quick
      test_utilization_conditions;
    Alcotest.test_case "index validation" `Quick test_frame_index_validation;
  ]
