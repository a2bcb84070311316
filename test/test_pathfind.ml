(* Route search (Network.Pathfind). *)

let example () = Workload.Topologies.example ()

let test_all_routes_fig1 () =
  let net = example () in
  let topo = net.Workload.Topologies.topo in
  let routes = Network.Pathfind.all_routes topo ~src:0 ~dst:3 in
  let node_lists = List.map Network.Route.nodes routes in
  (* 0->4->6->3 (the Figure 2 route) and 0->4->5->6->3. *)
  Alcotest.(check int) "two routes" 2 (List.length routes);
  Alcotest.(check bool) "figure 2 route found" true
    (List.mem [ 0; 4; 6; 3 ] node_lists);
  Alcotest.(check bool) "detour found" true
    (List.mem [ 0; 4; 5; 6; 3 ] node_lists);
  (* Shortest first. *)
  Alcotest.(check (list int)) "ordered by hops" [ 0; 4; 6; 3 ]
    (List.hd node_lists)

(* A chain of switches with one host each: host 0 to the host of switch
   [s] is [s + 2] links.  Both searches stop at exactly max_hops. *)
let test_max_hops_filter () =
  let topo, hosts, _sw =
    Workload.Topologies.line ~hosts_per_switch:1 ~switches:8 ()
  in
  Alcotest.(check int) "the bound" 8 Network.Pathfind.max_hops;
  let lengths s =
    let src = hosts.(0).(0) and dst = hosts.(s).(0) in
    ( List.map Network.Route.hop_count
        (Network.Pathfind.all_routes topo ~src ~dst),
      Option.map Network.Route.hop_count
        (Network.Pathfind.first_route topo ~src ~dst) )
  in
  Alcotest.(check (pair (list int) (option int)))
    "an 8-link route is found" ([ 8 ], Some 8) (lengths 6);
  Alcotest.(check (pair (list int) (option int)))
    "a 9-link route is not" ([], None) (lengths 7)

let test_k_shortest () =
  let net = example () in
  let topo = net.Workload.Topologies.topo in
  Alcotest.(check int) "k=1" 1
    (List.length (Network.Pathfind.k_shortest ~k:1 topo ~src:0 ~dst:3));
  Alcotest.(check int) "k larger than available" 2
    (List.length (Network.Pathfind.k_shortest ~k:10 topo ~src:0 ~dst:3))

let test_endpoints_and_reachability () =
  let net = example () in
  let topo = net.Workload.Topologies.topo in
  (* A switch cannot terminate a flow. *)
  Alcotest.(check int) "switch destination rejected" 0
    (List.length (Network.Pathfind.all_routes topo ~src:0 ~dst:4));
  (* Router node 7 is a valid endpoint. *)
  Alcotest.(check bool) "router endpoint ok" true
    (List.length (Network.Pathfind.all_routes topo ~src:7 ~dst:0) >= 1);
  (* Unreachable node. *)
  let lonely =
    Network.Topology.add_node topo ~name:"lonely" ~kind:Network.Node.Endhost
  in
  Alcotest.(check int) "unreachable" 0
    (List.length (Network.Pathfind.all_routes topo ~src:0 ~dst:lonely))

let test_routes_are_valid () =
  (* Every enumerated route passes Route.make's validation by construction;
     double-check interior switch-ness on a richer topology. *)
  let topo, hosts, _sw =
    Workload.Topologies.line ~hosts_per_switch:2 ~switches:4 ()
  in
  let routes =
    Network.Pathfind.all_routes topo ~src:hosts.(0).(0) ~dst:hosts.(3).(1)
  in
  Alcotest.(check bool) "at least one route" true (List.length routes >= 1);
  List.iter
    (fun route ->
      List.iter
        (fun n ->
          Alcotest.(check bool) "interior is a switch" true
            (Network.Node.is_switch (Network.Topology.node topo n)))
        (Network.Route.intermediate_switches route))
    routes

(* first_route must be the head of all_routes: the fewest-hop route, least
   by node sequence.  Rings and fat-trees list some neighbours out of id
   order, so a walk that took the first closer neighbour in adjacency
   order would disagree; the 6x6 mesh has pairs beyond max_hops, and
   [src = dst] has no route. *)
let families =
  Gmf_topogen.Gen_spec.
    [
      Mesh { rows = 4; cols = 4; planes = 1 };
      Mesh { rows = 4; cols = 4; planes = 2 };
      Mesh { rows = 6; cols = 6; planes = 1 };
      Fat_tree { k = 4 };
      Ring_of_rings { rings = 4; ring_size = 4 };
      Ring_of_rings { rings = 3; ring_size = 5 };
    ]

let built =
  lazy
    (Array.of_list
       (List.map
          (Gmf_topogen.Builders.build ~rate_bps:100_000_000 ~prop:0
             ~hosts_per_switch:1)
          families))

let prop_first_route_is_head =
  QCheck.Test.make ~name:"first_route = head of all_routes" ~count:60
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let pick a = a.(Random.State.int st (Array.length a)) in
      let b = pick (Lazy.force built) in
      let topo = b.Gmf_topogen.Builders.topo in
      let links = Array.of_list (Network.Topology.links topo) in
      let switches =
        Network.Topology.nodes topo
        |> List.filter Network.Node.is_switch
        |> List.map (fun (n : Network.Node.t) -> n.Network.Node.id)
        |> Array.of_list
      in
      (* 0-2 failed duplex links and 0-1 failed switches. *)
      let avoid_links =
        List.concat
          (List.init (Random.State.int st 3) (fun _ ->
               let l = pick links in
               Network.Link.[ (l.src, l.dst); (l.dst, l.src) ]))
      in
      let avoid_nodes =
        List.init (Random.State.int st 2) (fun _ -> pick switches)
      in
      let show =
        Option.fold ~none:"none" ~some:(Format.asprintf "%a" Network.Route.pp)
      in
      List.for_all
        (fun _ ->
          let src = pick b.Gmf_topogen.Builders.hosts in
          let dst =
            if Random.State.int st 10 = 0 then src
            else pick b.Gmf_topogen.Builders.hosts
          in
          let head =
            match
              Network.Pathfind.all_routes ~avoid_links ~avoid_nodes topo ~src
                ~dst
            with
            | [] -> None
            | r :: _ -> Some r
          in
          let first =
            Network.Pathfind.first_route ~avoid_links ~avoid_nodes topo ~src
              ~dst
          in
          Option.map Network.Route.nodes head
          = Option.map Network.Route.nodes first
          || QCheck.Test.fail_reportf "%d -> %d: head %s, first_route %s" src
               dst (show head) (show first))
        (List.init 20 Fun.id))

(* [summarize] answers a batch of queries as the per-pair searches do
   ([Route_oracle.summary]): random endpoints, switches and [src = dst]
   among them, many sharing a destination, and depths past max_hops. *)
let prop_summarize_equals_searches =
  QCheck.Test.make ~name:"summarize == per-query searches" ~count:60
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let pick a = a.(Random.State.int st (Array.length a)) in
      let b = pick (Lazy.force built) in
      let topo = b.Gmf_topogen.Builders.topo in
      let nodes = Array.init (Network.Topology.node_count topo) Fun.id in
      let dsts = Array.init 3 (fun _ -> pick b.Gmf_topogen.Builders.hosts) in
      let queries =
        List.init 30 (fun _ ->
            let endpoint () =
              if Random.State.int st 8 = 0 then pick nodes
              else pick b.Gmf_topogen.Builders.hosts
            in
            let dst =
              if Random.State.bool st then pick dsts else endpoint ()
            in
            let src =
              if Random.State.int st 10 = 0 then dst else endpoint ()
            in
            (src, dst, Random.State.int st 14))
      in
      let show (s : Network.Pathfind.summary) =
        Printf.sprintf "{fewest %s; second %b}"
          (Option.fold ~none:"none" ~some:string_of_int
             s.Network.Pathfind.fewest)
          s.Network.Pathfind.second
      in
      List.for_all2
        (fun (src, dst, within) (got, want) ->
          got = want
          || QCheck.Test.fail_reportf "%d -> %d within %d: %s, searches %s"
               src dst within (show got) (show want))
        queries
        (List.combine
           (Network.Pathfind.summarize topo queries)
           (List.map (Route_oracle.summary topo) queries)))

let tests =
  [
    Alcotest.test_case "all routes on Figure 1" `Quick test_all_routes_fig1;
    Alcotest.test_case "max hops" `Quick test_max_hops_filter;
    Alcotest.test_case "k shortest" `Quick test_k_shortest;
    Alcotest.test_case "endpoints/reachability" `Quick
      test_endpoints_and_reachability;
    Alcotest.test_case "routes are valid" `Quick test_routes_are_valid;
    QCheck_alcotest.to_alcotest prop_first_route_is_head;
    QCheck_alcotest.to_alcotest prop_summarize_equals_searches;
  ]
