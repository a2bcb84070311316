(* Ring topology: two disjoint switch paths everywhere — rerouting's home
   ground, plus an end-to-end analysis/simulation check. *)
open Gmf_util

let test_ring_shape () =
  let topo, hosts, sw = Workload.Topologies.ring ~switches:5 () in
  Alcotest.(check int) "10 nodes" 10 (Network.Topology.node_count topo);
  Alcotest.(check int) "5 hosts" 5 (Array.length hosts);
  (* Each switch: one host + two ring neighbours. *)
  Array.iter
    (fun s ->
      Alcotest.(check int)
        (Printf.sprintf "switch %d degree" s)
        3
        (Network.Topology.degree topo s))
    sw;
  Alcotest.check_raises "too small"
    (Invalid_argument "Topologies.ring: need three switches") (fun () ->
      ignore (Workload.Topologies.ring ~switches:2 ()))

let test_two_disjoint_paths () =
  let topo, hosts, _sw = Workload.Topologies.ring ~switches:5 () in
  let routes =
    Network.Pathfind.all_routes topo ~src:hosts.(0) ~dst:hosts.(2)
  in
  Alcotest.(check int) "exactly two routes" 2 (List.length routes);
  (* Clockwise via sw0,sw1,sw2 (3 switches); counter-clockwise via
     sw0,sw4,sw3,sw2 (4 switches). *)
  let hop_counts =
    List.map Network.Route.hop_count routes |> List.sort compare
  in
  Alcotest.(check (list int)) "hop counts" [ 4; 5 ] hop_counts;
  (* The interiors are disjoint except the shared attachment switches. *)
  match List.map Network.Route.intermediate_switches routes with
  | [ a; b ] ->
      let shared = List.filter (fun n -> List.mem n b) a in
      Alcotest.(check int) "only the two endpoints' switches shared" 2
        (List.length shared)
  | _ -> Alcotest.fail "expected two routes"

let test_ring_rerouting_gain () =
  (* Two heavy flows between the same hosts: one per direction fits, both on
     one direction does not. *)
  let topo, hosts, _sw = Workload.Topologies.ring ~switches:4 () in
  let spec =
    Gmf.Spec.make
      [
        Gmf.Frame_spec.make ~period:(Timeunit.ms 20) ~deadline:(Timeunit.ms 100)
          ~jitter:0 ~payload_bits:(8 * 8_000);
      ]
  in
  let shortest =
    List.hd (Network.Pathfind.all_routes topo ~src:hosts.(0) ~dst:hosts.(2))
  in
  let mk id =
    Traffic.Flow.make ~id ~name:(Printf.sprintf "f%d" id) ~spec
      ~encap:Ethernet.Encap.Udp ~route:shortest ~priority:5
  in
  let candidates = [ mk 0; mk 1 ] in
  let fixed, _ =
    Analysis.Admission.admit_greedily ~topo candidates
  in
  let rerouted, _ =
    Analysis.Rerouting.admit_greedily ~topo candidates
  in
  Alcotest.(check int) "fixed admits one" 1 (List.length fixed);
  Alcotest.(check int) "rerouting admits both" 2 (List.length rerouted)

let test_ring_validation () =
  (* Traffic around the ring: analysis bounds dominate simulation. *)
  let topo, hosts, _sw =
    Workload.Topologies.ring ~rate_bps:100_000_000 ~switches:4 ()
  in
  let flows =
    List.init 4 (fun i ->
        let src = hosts.(i) and dst = hosts.((i + 1) mod 4) in
        match Network.Topology.shortest_path topo ~src ~dst with
        | Some path ->
            Traffic.Flow.make ~id:i
              ~name:(Printf.sprintf "hop%d" i)
              ~spec:(Workload.Mpeg.spec ~deadline:(Timeunit.ms 260) ())
              ~encap:Ethernet.Encap.Udp
              ~route:(Network.Route.make topo path)
              ~priority:5
        | None -> Alcotest.fail "ring should be connected")
  in
  let scenario = Traffic.Scenario.make ~topo ~flows () in
  let report = Analysis.Holistic.analyze scenario in
  Alcotest.(check bool) "schedulable" true
    (Analysis.Holistic.is_schedulable report);
  let sim =
    Sim.Netsim.run
      ~config:{ Sim.Sim_config.default with duration = Timeunit.s 1 }
      scenario
  in
  List.iter
    (fun fid ->
      let observed =
        Option.get
          (Sim.Collector.max_response_flow sim.Sim.Netsim.collector ~flow:fid)
      in
      Alcotest.(check bool)
        (Printf.sprintf "flow %d dominated" fid)
        true
        (observed <= Experiments.Exp_common.worst_total report fid))
    [ 0; 1; 2; 3 ]

let tests =
  [
    Alcotest.test_case "shape" `Quick test_ring_shape;
    Alcotest.test_case "two disjoint paths" `Quick test_two_disjoint_paths;
    Alcotest.test_case "rerouting gain" `Quick test_ring_rerouting_gain;
    Alcotest.test_case "ring validation" `Quick test_ring_validation;
  ]
