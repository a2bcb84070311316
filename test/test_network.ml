open Gmf_util

let build_example () = Workload.Topologies.example ()

let test_node_kinds () =
  let open Network.Node in
  Alcotest.(check string) "endhost" "endhost" (kind_to_string Endhost);
  Alcotest.(check string) "switch" "switch" (kind_to_string Switch);
  Alcotest.(check string) "router" "router" (kind_to_string Router);
  let n = { id = 0; name = "x"; kind = Switch } in
  Alcotest.(check bool) "switch is switch" true (is_switch n);
  Alcotest.(check bool) "switch cannot terminate" false (may_terminate_flow n);
  let h = { n with kind = Endhost } and r = { n with kind = Router } in
  Alcotest.(check bool) "endhost terminates" true (may_terminate_flow h);
  Alcotest.(check bool) "router terminates" true (may_terminate_flow r)

let test_link () =
  let link = Network.Link.make ~src:0 ~dst:1 ~rate_bps:10_000_000 ~prop:50 in
  Alcotest.(check int) "mft" 1_230_400 (Network.Link.mft link);
  Alcotest.(check int) "tx of full frame" 1_230_400
    (Network.Link.tx_time link ~nbits:11_840);
  Alcotest.check_raises "self loop" (Invalid_argument "Link.make: self-loop")
    (fun () -> ignore (Network.Link.make ~src:1 ~dst:1 ~rate_bps:1 ~prop:0));
  Alcotest.check_raises "bad rate"
    (Invalid_argument "Link.make: non-positive rate") (fun () ->
      ignore (Network.Link.make ~src:0 ~dst:1 ~rate_bps:0 ~prop:0))

let test_topology_build () =
  let net = build_example () in
  let topo = net.Workload.Topologies.topo in
  Alcotest.(check int) "8 nodes" 8 (Network.Topology.node_count topo);
  Alcotest.(check int) "16 directed links (8 duplex)" 16
    (List.length (Network.Topology.links topo));
  (* Figure 5: switch 4 has four interfaces. *)
  Alcotest.(check int) "switch 4 degree" 4
    (Network.Topology.degree topo net.Workload.Topologies.switches.(0));
  Alcotest.(check bool) "link 0->4 exists" true
    (Option.is_some (Network.Topology.find_link topo ~src:0 ~dst:4));
  Alcotest.(check bool) "no link 0->3" true
    (Option.is_none (Network.Topology.find_link topo ~src:0 ~dst:3));
  Alcotest.check_raises "unknown node"
    (Invalid_argument "Topology.node: unknown node 99") (fun () ->
      ignore (Network.Topology.node topo 99))

let test_topology_duplicate_link () =
  let topo = Network.Topology.create () in
  let a = Network.Topology.add_node topo ~name:"a" ~kind:Network.Node.Endhost in
  let b = Network.Topology.add_node topo ~name:"b" ~kind:Network.Node.Switch in
  Network.Topology.add_link topo ~src:a ~dst:b ~rate_bps:10 ~prop:0;
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Topology.add_link: duplicate link 0->1") (fun () ->
      Network.Topology.add_link topo ~src:a ~dst:b ~rate_bps:10 ~prop:0)

let test_shortest_path () =
  let net = build_example () in
  let topo = net.Workload.Topologies.topo in
  let h = net.Workload.Topologies.endhosts in
  (* Figure 2's route is a shortest path. *)
  (match Network.Topology.shortest_path topo ~src:h.(0) ~dst:h.(3) with
  | Some path -> Alcotest.(check (list int)) "0->3 via 4,6" [ 0; 4; 6; 3 ] path
  | None -> Alcotest.fail "no path");
  (* Endhosts do not relay: no path may pass through an endhost. *)
  (match Network.Topology.shortest_path topo ~src:h.(0) ~dst:h.(1) with
  | Some path ->
      Alcotest.(check (list int)) "0->1 via switch only" [ 0; 4; 1 ] path
  | None -> Alcotest.fail "no path");
  (* Disconnected case. *)
  let lonely = Network.Topology.add_node topo ~name:"lonely"
      ~kind:Network.Node.Endhost in
  Alcotest.(check bool) "unreachable" true
    (Option.is_none (Network.Topology.shortest_path topo ~src:h.(0) ~dst:lonely))

let test_route_validation () =
  let net = build_example () in
  let topo = net.Workload.Topologies.topo in
  let ok = Network.Route.make topo [ 0; 4; 6; 3 ] in
  Alcotest.(check int) "source" 0 (Network.Route.source ok);
  Alcotest.(check int) "destination" 3 (Network.Route.destination ok);
  Alcotest.(check int) "hops" 3 (Network.Route.hop_count ok);
  Alcotest.check_raises "too short"
    (Invalid_argument "Route.make: fewer than two nodes") (fun () ->
      ignore (Network.Route.make topo [ 0 ]));
  Alcotest.check_raises "missing link"
    (Invalid_argument "Route.make: missing link 0->6") (fun () ->
      ignore (Network.Route.make topo [ 0; 6; 3 ]));
  Alcotest.check_raises "switch endpoint"
    (Invalid_argument "Route.make: source must be an endhost or router")
    (fun () -> ignore (Network.Route.make topo [ 4; 6; 3 ]));
  (* An endhost as destination is fine even when directly behind a switch. *)
  ignore (Network.Route.make topo [ 0; 4; 1 ]);
  (* But an endhost strictly inside a route is rejected. *)
  let chain = Network.Topology.create () in
  let a = Network.Topology.add_node chain ~name:"a" ~kind:Network.Node.Endhost in
  let b = Network.Topology.add_node chain ~name:"b" ~kind:Network.Node.Endhost in
  let c = Network.Topology.add_node chain ~name:"c" ~kind:Network.Node.Endhost in
  Network.Topology.add_duplex_link chain ~a ~b ~rate_bps:10 ~prop:0;
  Network.Topology.add_duplex_link chain ~a:b ~b:c ~rate_bps:10 ~prop:0;
  Alcotest.check_raises "endhost intermediate"
    (Invalid_argument "Route.make: intermediate node 1 is not a switch")
    (fun () -> ignore (Network.Route.make chain [ a; b; c ]));
  Alcotest.check_raises "repeated node"
    (Invalid_argument "Route.make: node 4 repeated") (fun () ->
      ignore (Network.Route.make topo [ 0; 4; 5; 4; 1 ]))

let test_route_navigation () =
  let net = build_example () in
  let topo = net.Workload.Topologies.topo in
  let route = Network.Route.make topo [ 0; 4; 6; 3 ] in
  Alcotest.(check int) "succ of source" 4 (Network.Route.succ route 0);
  Alcotest.(check int) "succ of 4" 6 (Network.Route.succ route 4);
  Alcotest.(check int) "prec of 6" 4 (Network.Route.prec route 6);
  Alcotest.(check int) "prec of destination" 6 (Network.Route.prec route 3);
  Alcotest.(check (list int)) "intermediates" [ 4; 6 ]
    (Network.Route.intermediate_switches route);
  Alcotest.(check bool) "mem" true (Network.Route.mem route 6);
  Alcotest.(check bool) "not mem" false (Network.Route.mem route 5);
  Alcotest.(check (list (pair int int))) "hops" [ (0, 4); (4, 6); (6, 3) ]
    (Network.Route.hops route);
  Alcotest.(check int) "3 links" 3 (List.length (Network.Route.links route topo));
  let crosses ~links ~nodes = Network.Route.crosses route ~links ~nodes in
  Alcotest.(check bool) "crosses a hop" true
    (crosses ~links:[ (1, 2); (4, 6) ] ~nodes:[]);
  Alcotest.(check bool) "links are directed" false
    (crosses ~links:[ (6, 4) ] ~nodes:[]);
  Alcotest.(check bool) "visits a node" true
    (crosses ~links:[] ~nodes:[ 5; 3 ]);
  Alcotest.(check bool) "avoids both" false
    (crosses ~links:[ (4, 5) ] ~nodes:[ 5 ]);
  Alcotest.check_raises "succ of destination"
    (Invalid_argument "Route.succ: destination has no successor") (fun () ->
      ignore (Network.Route.succ route 3));
  Alcotest.check_raises "prec of source"
    (Invalid_argument "Route.prec: source has no predecessor") (fun () ->
      ignore (Network.Route.prec route 0));
  Alcotest.check_raises "not on route"
    (Invalid_argument "Route: node 5 not on route") (fun () ->
      ignore (Network.Route.succ route 5))

let test_direct_route () =
  (* Source directly linked to destination: legal, no switches. *)
  let topo = Network.Topology.create () in
  let a = Network.Topology.add_node topo ~name:"a" ~kind:Network.Node.Endhost in
  let b = Network.Topology.add_node topo ~name:"b" ~kind:Network.Node.Endhost in
  Network.Topology.add_duplex_link topo ~a ~b ~rate_bps:10_000_000 ~prop:0;
  let route = Network.Route.make topo [ a; b ] in
  Alcotest.(check (list int)) "no intermediates" []
    (Network.Route.intermediate_switches route);
  Alcotest.(check int) "one hop" 1 (Network.Route.hop_count route)

let test_link_prop_units () =
  (* Propagation delays are plain nanoseconds. *)
  let link =
    Network.Link.make ~src:0 ~dst:1 ~rate_bps:1_000_000_000
      ~prop:(Timeunit.us 5)
  in
  Alcotest.(check int) "prop stored" 5_000 link.Network.Link.prop

let tests =
  [
    Alcotest.test_case "node kinds" `Quick test_node_kinds;
    Alcotest.test_case "link" `Quick test_link;
    Alcotest.test_case "topology build" `Quick test_topology_build;
    Alcotest.test_case "duplicate link" `Quick test_topology_duplicate_link;
    Alcotest.test_case "shortest path" `Quick test_shortest_path;
    Alcotest.test_case "route validation" `Quick test_route_validation;
    Alcotest.test_case "route navigation" `Quick test_route_navigation;
    Alcotest.test_case "direct route" `Quick test_direct_route;
    Alcotest.test_case "propagation units" `Quick test_link_prop_units;
  ]
