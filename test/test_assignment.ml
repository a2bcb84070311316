(* Priority assignment policies and rerouting admission. *)
open Gmf_util

let mixed_workload () =
  let topo, hosts, sw =
    Workload.Topologies.star ~rate_bps:100_000_000 ~hosts:4 ()
  in
  let route i = Network.Route.make topo [ hosts.(i); sw; hosts.(3) ] in
  let voip =
    Traffic.Flow.make ~id:0 ~name:"voip"
      ~spec:(Workload.Voip.g711_spec ~deadline:(Timeunit.ms 12) ())
      ~encap:Ethernet.Encap.Rtp_udp ~route:(route 0) ~priority:0
  in
  let video =
    Traffic.Flow.make ~id:1 ~name:"video"
      ~spec:
        (Workload.Mpeg.spec
           ~sizes:
             { Workload.Mpeg.i_plus_p_bytes = 22_000; p_bytes = 10_000;
               b_bytes = 4_000 }
           ~deadline:(Timeunit.ms 60) ())
      ~encap:Ethernet.Encap.Udp ~route:(route 1) ~priority:0
  in
  let bulk =
    Traffic.Flow.make ~id:2 ~name:"bulk"
      ~spec:
        (Gmf.Spec.make
           [
             Gmf.Frame_spec.make ~period:(Timeunit.ms 25)
               ~deadline:(Timeunit.ms 200) ~jitter:0
               ~payload_bits:(8 * 120_000);
           ])
      ~encap:Ethernet.Encap.Udp ~route:(route 2) ~priority:0
  in
  (topo, [ voip; video; bulk ])

let priorities flows =
  List.map (fun f -> (f.Traffic.Flow.id, f.Traffic.Flow.priority)) flows
  |> List.sort compare

let test_deadline_monotonic_order () =
  let _, flows = mixed_workload () in
  let assigned =
    Analysis.Priority_assign.assign Analysis.Priority_assign.Deadline_monotonic
      flows
  in
  let prio id = List.assoc id (priorities assigned) in
  (* voip (12ms) > video (60ms) > bulk (200ms). *)
  Alcotest.(check bool) "voip highest" true (prio 0 > prio 1);
  Alcotest.(check bool) "video above bulk" true (prio 1 > prio 2)

let test_two_levels () =
  let _, flows = mixed_workload () in
  let assigned =
    Analysis.Priority_assign.assign ~levels:2
      Analysis.Priority_assign.Deadline_monotonic flows
  in
  let classes =
    List.sort_uniq compare
      (List.map (fun f -> f.Traffic.Flow.priority) assigned)
  in
  Alcotest.(check bool) "at most two classes" true (List.length classes <= 2);
  List.iter
    (fun c ->
      Alcotest.(check bool) "classes are 0 or 7" true (c = 0 || c = 7))
    classes

let test_uniform () =
  let _, flows = mixed_workload () in
  let assigned =
    Analysis.Priority_assign.assign (Analysis.Priority_assign.Uniform 3) flows
  in
  List.iter
    (fun f -> Alcotest.(check int) "all class 3" 3 f.Traffic.Flow.priority)
    assigned

let test_assignment_preserves_everything_else () =
  let _, flows = mixed_workload () in
  let assigned =
    Analysis.Priority_assign.assign Analysis.Priority_assign.Rate_monotonic
      flows
  in
  List.iter2
    (fun before after ->
      Alcotest.(check int) "same id" before.Traffic.Flow.id
        after.Traffic.Flow.id;
      Alcotest.(check string) "same name" before.Traffic.Flow.name
        after.Traffic.Flow.name;
      Alcotest.(check bool) "same spec" true
        (Gmf.Spec.equal before.Traffic.Flow.spec after.Traffic.Flow.spec))
    flows assigned

let test_exhaustive_beats_policies () =
  let topo, flows = mixed_workload () in
  match
    Analysis.Priority_assign.best_exhaustive
      (Traffic.Scenario.make ~topo ~flows ())
  with
  | None -> Alcotest.fail "some assignment must be schedulable"
  | Some (best_flows, best_bound) ->
      Alcotest.(check int) "same flow count" (List.length flows)
        (List.length best_flows);
      (* No policy does better than the exhaustive optimum. *)
      List.iter
        (fun policy ->
          let assigned = Analysis.Priority_assign.assign policy flows in
          let report =
            Analysis.Holistic.analyze
              (Traffic.Scenario.make ~topo ~flows:assigned ())
          in
          if Analysis.Holistic.is_schedulable report then begin
            let worst =
              List.fold_left
                (fun acc r ->
                  max acc
                    (Analysis.Result_types.worst_frame r).Analysis
                      .Result_types.total)
                0 report.Analysis.Holistic.results
            in
            Alcotest.(check bool) "optimum is optimal" true
              (best_bound <= worst)
          end)
        [
          Analysis.Priority_assign.Deadline_monotonic;
          Analysis.Priority_assign.Rate_monotonic;
          Analysis.Priority_assign.Lightest_first;
        ]

let test_levels_validation () =
  let _, flows = mixed_workload () in
  Alcotest.check_raises "levels too big"
    (Invalid_argument "Priority_assign.assign: levels outside 1..8") (fun () ->
      ignore
        (Analysis.Priority_assign.assign ~levels:9
           Analysis.Priority_assign.Deadline_monotonic flows))

(* A generated flow: source (switch, host), destination (switch, host)
   and its frames as (period ms, deadline ms, payload bytes). *)
type gen_flow = {
  src : int * int;
  dst : int * int;
  frames : (int * int * int) list;
}

(* Two switches on a chain, three hosts each, 10 Mbit/s links: flows
   share a host link, a switch or the trunk depending on their ends. *)
let scenario_of_gen gflows =
  let topo, hosts, switches =
    Workload.Topologies.line ~rate_bps:10_000_000 ~hosts_per_switch:3
      ~switches:2 ()
  in
  let flows =
    List.mapi
      (fun id g ->
        let (ss, sh), (ds, dh) = (g.src, g.dst) in
        let path =
          (hosts.(ss).(sh) :: switches.(ss)
          :: (if ss = ds then [] else [ switches.(ds) ]))
          @ [ hosts.(ds).(dh) ]
        in
        Traffic.Flow.make ~id
          ~name:(Printf.sprintf "f%d" id)
          ~spec:
            (Gmf.Spec.make
               (List.map
                  (fun (period, deadline, bytes) ->
                    Gmf.Frame_spec.make ~period:(Timeunit.ms period)
                      ~deadline:(Timeunit.ms deadline) ~jitter:0
                      ~payload_bits:(8 * bytes))
                  g.frames))
          ~encap:Ethernet.Encap.Udp
          ~route:(Network.Route.make topo path)
          ~priority:0)
      gflows
  in
  Traffic.Scenario.make ~topo ~flows ()

let gen_flow =
  QCheck.Gen.(
    let endpoint = pair (int_range 0 1) (int_range 0 2) in
    let* src = endpoint in
    let* dst =
      endpoint >|= fun d -> if d = src then (1 - fst src, snd src) else d
    in
    let* frames =
      list_size (int_range 1 2)
        (triple (int_range 10 40) (int_range 8 60) (int_range 200 3_000))
    in
    return { src; dst; frames })

(* 3-5 flows at 2 or 3 levels, 3-4 at 8 levels: the oracle analyzes all
   [levels]^n vectors, so 8 levels stops at 4,096 of them (5 flows would
   be 32,768 analyses a case).  At 8 levels no order uses every level. *)
let gen_case =
  QCheck.Gen.(
    let* levels = oneofl [ 2; 3; 8 ] in
    let* n = if levels = 8 then int_range 3 4 else int_range 3 5 in
    let* flows = list_repeat n gen_flow in
    return (levels, flows))

let print_case (levels, flows) =
  Printf.sprintf "levels %d: %s" levels
    (String.concat "; "
       (List.map
          (fun g ->
            Printf.sprintf "(%d,%d)->(%d,%d) [%s]" (fst g.src) (snd g.src)
              (fst g.dst) (snd g.dst)
              (String.concat " "
                 (List.map
                    (fun (p, d, b) -> Printf.sprintf "%d/%d/%dB" p d b)
                    g.frames)))
          flows))

let show_best = function
  | None -> "none"
  | Some (flows, bound) ->
      Printf.sprintf "%s bound %d"
        (String.concat ","
           (List.map
              (fun (f : Traffic.Flow.t) ->
                string_of_int f.Traffic.Flow.priority)
              flows))
        bound

(* The search over dense vectors returns the winner, priorities and
   bound, of the search over every vector. *)
let prop_dense_equals_full =
  QCheck.Test.make ~name:"dense search == full enumeration" ~count:30
    (QCheck.make ~print:print_case gen_case)
    (fun (levels, gflows) ->
      let scenario = scenario_of_gen gflows in
      let dense =
        show_best (Analysis.Priority_assign.best_exhaustive ~levels scenario)
      in
      let full = show_best (Assign_oracle.best_exhaustive ~levels scenario) in
      if dense = full then true
      else QCheck.Test.fail_reportf "dense %s, full %s" dense full)

(* ---------------- rerouting ---------------- *)

(* A diamond: two disjoint switch paths between the hosts, the second with
   more hops. *)
let diamond () =
  let topo = Network.Topology.create () in
  let a = Network.Topology.add_node topo ~name:"a" ~kind:Network.Node.Endhost in
  let b = Network.Topology.add_node topo ~name:"b" ~kind:Network.Node.Endhost in
  let s1 = Network.Topology.add_node topo ~name:"s1" ~kind:Network.Node.Switch in
  let s2 = Network.Topology.add_node topo ~name:"s2" ~kind:Network.Node.Switch in
  let s3 = Network.Topology.add_node topo ~name:"s3" ~kind:Network.Node.Switch in
  let rate_bps = 10_000_000 in
  Network.Topology.add_duplex_link topo ~a ~b:s1 ~rate_bps ~prop:0;
  Network.Topology.add_duplex_link topo ~a:s1 ~b ~rate_bps ~prop:0;
  Network.Topology.add_duplex_link topo ~a ~b:s2 ~rate_bps ~prop:0;
  Network.Topology.add_duplex_link topo ~a:s2 ~b:s3 ~rate_bps ~prop:0;
  Network.Topology.add_duplex_link topo ~a:s3 ~b ~rate_bps ~prop:0;
  (topo, a, b, s1)

let heavy_flow topo a b s1 id =
  (* ~49% of a 10 Mbit/s link each: two cannot share a path. *)
  Traffic.Flow.make ~id
    ~name:(Printf.sprintf "heavy%d" id)
    ~spec:
      (Gmf.Spec.make
         [
           Gmf.Frame_spec.make ~period:(Timeunit.ms 20)
             ~deadline:(Timeunit.ms 60) ~jitter:0 ~payload_bits:(8 * 12_000);
         ])
    ~encap:Ethernet.Encap.Udp
    ~route:(Network.Route.make topo [ a; s1; b ])
    ~priority:5

let test_rerouting_admits_on_detour () =
  let topo, a, b, s1 = diamond () in
  let f0 = heavy_flow topo a b s1 0 in
  let f1 = heavy_flow topo a b s1 1 in
  let base = Traffic.Scenario.make ~topo ~flows:[ f0 ] () in
  (* Fixed-route admission of the second heavy flow on the same path
     fails... *)
  Alcotest.(check bool) "fixed rejects" false
    (Analysis.Admission.admit base ~candidate:f1).Analysis.Admission.admitted;
  (* ...but rerouting finds the detour via s2/s3. *)
  let decision = Analysis.Rerouting.admit base ~candidate:f1 in
  Alcotest.(check bool) "rerouting admits" true
    decision.Analysis.Rerouting.admitted;
  (match decision.Analysis.Rerouting.route with
  | Some route ->
      Alcotest.(check bool) "on the detour" true
        (List.length (Network.Route.nodes route) = 4)
  | None -> Alcotest.fail "expected a route");
  Alcotest.(check bool) "took more than one attempt" true
    (decision.Analysis.Rerouting.attempts > 1)

let test_rerouting_prefers_own_route () =
  let topo, a, b, s1 = diamond () in
  let f0 = heavy_flow topo a b s1 0 in
  let empty = Traffic.Scenario.make ~topo ~flows:[] () in
  let decision = Analysis.Rerouting.admit empty ~candidate:f0 in
  Alcotest.(check bool) "admitted" true decision.Analysis.Rerouting.admitted;
  Alcotest.(check int) "first attempt" 1 decision.Analysis.Rerouting.attempts;
  match decision.Analysis.Rerouting.route with
  | Some route ->
      Alcotest.(check (list int)) "kept its own route" [ a; s1; b ]
        (Network.Route.nodes route)
  | None -> Alcotest.fail "expected a route"

let test_rerouting_greedy_beats_fixed () =
  let topo, a, b, s1 = diamond () in
  let candidates = List.init 3 (heavy_flow topo a b s1) in
  let fixed, _ = Analysis.Admission.admit_greedily ~topo candidates in
  let rerouted, _ =
    Analysis.Rerouting.admit_greedily ~topo candidates
  in
  Alcotest.(check int) "fixed admits 1" 1 (List.length fixed);
  Alcotest.(check int) "rerouting admits 2" 2 (List.length rerouted)

let tests =
  [
    Alcotest.test_case "deadline-monotonic order" `Quick
      test_deadline_monotonic_order;
    Alcotest.test_case "two levels" `Quick test_two_levels;
    Alcotest.test_case "uniform" `Quick test_uniform;
    Alcotest.test_case "assignment preserves flows" `Quick
      test_assignment_preserves_everything_else;
    Alcotest.test_case "exhaustive is optimal" `Slow
      test_exhaustive_beats_policies;
    Alcotest.test_case "levels validation" `Quick test_levels_validation;
    QCheck_alcotest.to_alcotest prop_dense_equals_full;
    Alcotest.test_case "rerouting: detour" `Quick test_rerouting_admits_on_detour;
    Alcotest.test_case "rerouting: own route first" `Quick
      test_rerouting_prefers_own_route;
    Alcotest.test_case "rerouting: greedy beats fixed" `Quick
      test_rerouting_greedy_beats_fixed;
  ]
