open Gmf_util

let fig1 () = Workload.Scenarios.fig1_videoconf ()

let video scenario =
  Traffic.Scenario.flow scenario Workload.Scenarios.video_flow_id

let test_flow_basics () =
  let scenario = fig1 () in
  let flow = video scenario in
  Alcotest.(check int) "n = 9 (Figure 3)" 9 (Traffic.Flow.n flow);
  Alcotest.(check int) "TSUM = 270ms (eq 6 example)" (Timeunit.ms 270)
    (Traffic.Flow.tsum flow);
  Alcotest.(check int) "source" 0 (Traffic.Flow.source flow);
  Alcotest.(check int) "destination" 3 (Traffic.Flow.destination flow)

let test_flow_validation () =
  let scenario = fig1 () in
  let flow = video scenario in
  Alcotest.check_raises "priority range"
    (Invalid_argument "Flow.make: priority outside the 802.1p range 0..7")
    (fun () ->
      ignore
        (Traffic.Flow.make ~id:9 ~name:"bad" ~spec:flow.Traffic.Flow.spec
           ~encap:Ethernet.Encap.Udp ~route:flow.Traffic.Flow.route
           ~priority:8))

let test_flow_nbits () =
  let scenario = fig1 () in
  let flow = video scenario in
  (* Frame 0 is the I+P packet: 44000 bytes payload + 8 bytes UDP header. *)
  Alcotest.(check int) "I+P nbits" ((44_000 * 8) + 64) (Traffic.Flow.nbits flow 0);
  (* Cyclic indexing mirrors the spec. *)
  Alcotest.(check int) "frame 9 wraps to 0" (Traffic.Flow.nbits flow 0)
    (Traffic.Flow.nbits flow 9);
  Alcotest.(check int) "9 frames" 9 (Array.length (Traffic.Flow.nbits_all flow))

let test_link_params_fig4 () =
  (* The worked example of Section 3.1 / Figure 4: the Figure 3 stream on
     link(0,4) at 10 Mbit/s. *)
  let scenario = fig1 () in
  let flow = video scenario in
  let p = Traffic.Scenario.params scenario flow ~src:0 ~dst:4 in
  Alcotest.(check int) "NSUM = 94 (paper)" 94 (Traffic.Link_params.nsum p);
  Alcotest.(check int) "MFT = 1.2304ms (eq 1)" 1_230_400
    (Traffic.Link_params.mft p);
  (* CSUM consistency: NSUM * MFT bounds CSUM from above. *)
  let csum = Traffic.Link_params.csum p in
  Alcotest.(check bool) "CSUM <= NSUM*MFT" true
    (csum <= 94 * 1_230_400);
  (* I+P packet: 30 Ethernet frames; B packet: 6; P packet: 14. *)
  Alcotest.(check (array int)) "per-frame Ethernet frames"
    [| 30; 6; 6; 14; 6; 6; 14; 6; 6 |]
    p.Traffic.Link_params.eth_frames

let test_nsum_equals_fragment_count () =
  (* Eq (5)'s ceil(C/MFT) must agree with direct fragment counting. *)
  let scenario = fig1 () in
  List.iter
    (fun flow ->
      List.iter
        (fun (src, dst) ->
          let p = Traffic.Scenario.params scenario flow ~src ~dst in
          Array.iteri
            (fun k via_c ->
              let direct =
                Ethernet.Fragment.fragment_count
                  ~nbits:(Traffic.Flow.nbits flow k)
              in
              Alcotest.(check int)
                (Printf.sprintf "flow %d frame %d on %d->%d"
                   flow.Traffic.Flow.id k src dst)
                direct via_c)
            p.Traffic.Link_params.eth_frames)
        (Network.Route.hops flow.Traffic.Flow.route))
    (Traffic.Scenario.flows scenario)

let test_scenario_flows_on () =
  let scenario = fig1 () in
  let on_04 = Traffic.Scenario.flows_on scenario ~src:0 ~dst:4 in
  Alcotest.(check (list int)) "flows on 0->4" [ 0; 1 ]
    (List.map (fun f -> f.Traffic.Flow.id) on_04);
  let on_46 = Traffic.Scenario.flows_on scenario ~src:4 ~dst:6 in
  Alcotest.(check (list int)) "flows on 4->6" [ 0; 1 ]
    (List.map (fun f -> f.Traffic.Flow.id) on_46);
  Alcotest.(check (list int)) "flows on 6->4 (reverse pair)" [ 2; 3 ]
    (List.map
       (fun f -> f.Traffic.Flow.id)
       (Traffic.Scenario.flows_on scenario ~src:6 ~dst:4))

let test_hep_lp () =
  let scenario = fig1 () in
  let flow_video = video scenario in
  (* On link 4->6 the audio flow (prio 6) outranks video (prio 5). *)
  let hep = Traffic.Scenario.hep scenario flow_video ~node:4 in
  Alcotest.(check (list int)) "hep of video at 4" [ 1 ]
    (List.map (fun f -> f.Traffic.Flow.id) hep);
  Alcotest.(check (list int)) "lp of video at 4" []
    (List.map
       (fun f -> f.Traffic.Flow.id)
       (Traffic.Scenario.lp scenario flow_video ~node:4));
  (* And from the audio flow's perspective the video flow is lp. *)
  let audio = Traffic.Scenario.flow scenario 1 in
  Alcotest.(check (list int)) "hep of audio at 4" []
    (List.map (fun f -> f.Traffic.Flow.id)
       (Traffic.Scenario.hep scenario audio ~node:4));
  Alcotest.(check (list int)) "lp of audio at 4" [ 0 ]
    (List.map (fun f -> f.Traffic.Flow.id)
       (Traffic.Scenario.lp scenario audio ~node:4))

let test_equal_priority_is_hep () =
  (* Eq (2): equal priority counts as interfering. *)
  let topo, hosts, sw = Workload.Topologies.star ~hosts:3 () in
  let spec = Workload.Voip.g711_spec () in
  let mk id src =
    Traffic.Flow.make ~id ~name:(Printf.sprintf "f%d" id) ~spec
      ~encap:Ethernet.Encap.Udp
      ~route:(Network.Route.make topo [ src; sw; hosts.(2) ])
      ~priority:4
  in
  let f0 = mk 0 hosts.(0) and f1 = mk 1 hosts.(1) in
  let scenario = Traffic.Scenario.make ~topo ~flows:[ f0; f1 ] () in
  Alcotest.(check (list int)) "equal prio interferes" [ 1 ]
    (List.map (fun f -> f.Traffic.Flow.id)
       (Traffic.Scenario.hep scenario f0 ~node:sw))

let test_scenario_validation () =
  let scenario = fig1 () in
  let flow = video scenario in
  Alcotest.check_raises "duplicate ids"
    (Invalid_argument "Scenario.make: duplicate flow id 0") (fun () ->
      ignore
        (Traffic.Scenario.make
           ~topo:(Traffic.Scenario.topo scenario)
           ~flows:[ flow; flow ] ()));
  Alcotest.check_raises "unknown flow"
    (Invalid_argument "Scenario.flow: unknown id 42") (fun () ->
      ignore (Traffic.Scenario.flow scenario 42))

let test_default_switch_models () =
  let scenario = fig1 () in
  (* Switch 4 has degree 4, so its defaulted model yields the paper's
     CIRC = 14.8 us. *)
  Alcotest.(check int) "CIRC(4)" (Timeunit.us_frac 14.8)
    (Traffic.Scenario.circ scenario 4);
  Alcotest.(check (list int)) "switch nodes with models" [ 4; 5; 6 ]
    (Traffic.Scenario.switch_nodes scenario)

let test_explicit_switch_model_validation () =
  let scenario = fig1 () in
  let topo = Traffic.Scenario.topo scenario in
  let flows = Traffic.Scenario.flows scenario in
  Alcotest.check_raises "model on endhost"
    (Invalid_argument "Scenario.make: node 0 is not a switch") (fun () ->
      ignore
        (Traffic.Scenario.make
           ~switches:[ (0, Click.Switch_model.make ~ninterfaces:4 ()) ]
           ~topo ~flows ()));
  Alcotest.check_raises "too few ports"
    (Invalid_argument
       "Scenario.make: switch 4 has 4 links but model has 2 ports") (fun () ->
      ignore
        (Traffic.Scenario.make
           ~switches:[ (4, Click.Switch_model.make ~ninterfaces:2 ()) ]
           ~topo ~flows ()))

let test_scale_payloads () =
  let scenario = fig1 () in
  let flow = video scenario in
  let doubled = Traffic.Flow.scale_payloads flow 2.0 in
  Alcotest.(check int) "payload doubled"
    (2 * (Gmf.Spec.frame flow.Traffic.Flow.spec 0).Gmf.Frame_spec.payload_bits)
    (Gmf.Spec.frame doubled.Traffic.Flow.spec 0).Gmf.Frame_spec.payload_bits;
  Alcotest.(check int) "period kept" (Traffic.Flow.tsum flow)
    (Traffic.Flow.tsum doubled);
  (* Tiny scales never reach zero. *)
  let tiny = Traffic.Flow.scale_payloads flow 1e-9 in
  Alcotest.(check bool) "at least one bit" true
    ((Gmf.Spec.frame tiny.Traffic.Flow.spec 0).Gmf.Frame_spec.payload_bits >= 1);
  Alcotest.check_raises "bad factor"
    (Invalid_argument "Flow.scale_payloads: non-positive factor") (fun () ->
      ignore (Traffic.Flow.scale_payloads flow 0.))

let test_map_flows () =
  let scenario = fig1 () in
  let promoted =
    Traffic.Scenario.map_flows scenario ~f:(fun f ->
        Traffic.Flow.make ~id:f.Traffic.Flow.id ~name:f.Traffic.Flow.name
          ~spec:f.Traffic.Flow.spec ~encap:f.Traffic.Flow.encap
          ~route:f.Traffic.Flow.route ~priority:7)
  in
  Alcotest.(check int) "same flow count"
    (Traffic.Scenario.flow_count scenario)
    (Traffic.Scenario.flow_count promoted);
  List.iter
    (fun f -> Alcotest.(check int) "all promoted" 7 f.Traffic.Flow.priority)
    (Traffic.Scenario.flows promoted);
  (* Switch models survive the rebuild. *)
  Alcotest.(check int) "CIRC preserved"
    (Traffic.Scenario.circ scenario 4)
    (Traffic.Scenario.circ promoted 4)

let test_link_utilization () =
  let scenario = fig1 () in
  let u = Traffic.Scenario.link_utilization scenario ~src:0 ~dst:4 in
  (* Video ~ 110ms/270ms plus a little audio. *)
  Alcotest.(check bool) "between 40% and 50%" true (u > 0.40 && u < 0.50);
  Alcotest.(check (float 1e-9)) "empty link" 0.
    (Traffic.Scenario.link_utilization scenario ~src:4 ~dst:5
     -. Traffic.Scenario.link_utilization scenario ~src:4 ~dst:5)

(* ------------------------------------------------------------------ *)
(* Params shared across a flow's hops at one link rate                *)
(* ------------------------------------------------------------------ *)

(* [p], the scenario's params of [flow] on [src -> dst], against a fresh
   [Link_params.make] on that link, field by field, with both demand
   tables evaluated capped and uncapped on a grid of windows. *)
let check_fresh what topo (flow : Traffic.Flow.t) (src, dst)
    (p : Traffic.Link_params.t) =
  let link = Network.Topology.link_exn topo ~src ~dst in
  let fresh = Traffic.Link_params.make ~flow ~link in
  let where =
    Printf.sprintf "%s: %s on %d->%d" what flow.Traffic.Flow.name src dst
  in
  let open Traffic.Link_params in
  Alcotest.(check bool) (where ^ ": link") true (p.link = link);
  Alcotest.(check (array int)) (where ^ ": C") fresh.c p.c;
  Alcotest.(check (array int)) (where ^ ": eth frames") fresh.eth_frames
    p.eth_frames;
  Alcotest.(check int) (where ^ ": CSUM") (csum fresh) (csum p);
  Alcotest.(check int) (where ^ ": NSUM") (nsum fresh) (nsum p);
  let step = (Traffic.Flow.tsum flow / 13) + 1 in
  let grid = List.init 40 (fun k -> k * step) @ Array.to_list fresh.c in
  List.iter
    (fun capped ->
      List.iter
        (fun dt ->
          let bound d = Gmf.Demand.bound d ~capped dt in
          Alcotest.(check int)
            (Printf.sprintf "%s: MX(%d) capped=%b" where dt capped)
            (bound fresh.time_demand) (bound p.time_demand);
          Alcotest.(check int)
            (Printf.sprintf "%s: NX(%d) capped=%b" where dt capped)
            (bound fresh.count_demand) (bound p.count_demand))
        grid)
    [ true; false ]

let rates topo (flow : Traffic.Flow.t) =
  List.map
    (fun (src, dst) ->
      (Network.Topology.link_exn topo ~src ~dst).Network.Link.rate_bps)
    (Network.Route.hops flow.Traffic.Flow.route)
  |> List.sort_uniq compare

(* Every (flow, hop) of every checked-in scenario, asked in route order,
   so each flow's later hops are relinked from its earlier ones. *)
let test_shared_params_corpus () =
  let mixed = ref 0 in
  List.iter
    (fun path ->
      match Scenario_io.Parse.scenario_of_file path with
      | Error e -> Alcotest.failf "%s: %a" path Scenario_io.Parse.pp_error e
      | Ok scenario ->
          let topo = Traffic.Scenario.topo scenario in
          List.iter
            (fun (flow : Traffic.Flow.t) ->
              if List.length (rates topo flow) > 1 then incr mixed;
              List.iter
                (fun (src, dst) ->
                  check_fresh (Filename.basename path) topo flow (src, dst)
                    (Traffic.Scenario.params scenario flow ~src ~dst))
                (Network.Route.hops flow.Traffic.Flow.route))
            (Traffic.Scenario.flows scenario))
    (Example_corpus.scenario_paths ());
  (* Sharing that ignored the rate would fail on these flows. *)
  Alcotest.(check bool) "some flows cross links of several rates" true
    (!mixed > 0)

(* A pooled derivation whose reroute leaves a 10 Mbit/s route for a
   detour over 1 Gbit/s and 100 Mbit/s links: the taken params of the
   first hop must not serve the new hops. *)
let test_shared_params_pooled_reroute () =
  let topo = Network.Topology.create () in
  let node name kind = Network.Topology.add_node topo ~name ~kind in
  let a = node "a" Network.Node.Endhost and b = node "b" Network.Node.Endhost in
  let s1 = node "s1" Network.Node.Switch and s2 = node "s2" Network.Node.Switch in
  let duplex x y rate_bps =
    Network.Topology.add_duplex_link topo ~a:x ~b:y ~rate_bps ~prop:1_000
  in
  duplex a s1 10_000_000;
  duplex s1 b 10_000_000;
  duplex s1 s2 1_000_000_000;
  duplex s2 b 100_000_000;
  let spec = (video (fig1 ())).Traffic.Flow.spec in
  let flow route =
    Traffic.Flow.make ~id:0 ~name:"f" ~spec ~encap:Ethernet.Encap.Udp
      ~route:(Network.Route.make topo route) ~priority:5
  in
  let direct = flow [ a; s1; b ] and detour = flow [ a; s1; s2; b ] in
  let base = Traffic.Scenario.make ~topo ~flows:[ direct ] () in
  let hops (f : Traffic.Flow.t) = Network.Route.hops f.Traffic.Flow.route in
  List.iter
    (fun (src, dst) ->
      check_fresh "base" topo direct (src, dst)
        (Traffic.Scenario.params base direct ~src ~dst))
    (hops direct);
  let pool = Traffic.Scenario.params_pool () in
  let rerouted = Traffic.Scenario.with_flows ~pool base [ detour ] in
  Alcotest.(check (list int)) "the detour crosses three rates"
    [ 10_000_000; 100_000_000; 1_000_000_000 ]
    (rates topo detour);
  List.iter
    (fun (src, dst) ->
      check_fresh "rerouted" topo detour (src, dst)
        (Traffic.Scenario.params rerouted detour ~src ~dst))
    (hops detour);
  (* The first hop is taken from the base, not built again. *)
  Alcotest.(check bool) "first hop shared" true
    (Traffic.Scenario.params rerouted detour ~src:a ~dst:s1
    == Traffic.Scenario.params base direct ~src:a ~dst:s1)

let tests =
  [
    Alcotest.test_case "flow basics" `Quick test_flow_basics;
    Alcotest.test_case "flow validation" `Quick test_flow_validation;
    Alcotest.test_case "flow nbits" `Quick test_flow_nbits;
    Alcotest.test_case "Figure 4 link params" `Quick test_link_params_fig4;
    Alcotest.test_case "NSUM = fragment count" `Quick
      test_nsum_equals_fragment_count;
    Alcotest.test_case "flows_on" `Quick test_scenario_flows_on;
    Alcotest.test_case "hep/lp (eqs 2-3)" `Quick test_hep_lp;
    Alcotest.test_case "equal priority interferes" `Quick
      test_equal_priority_is_hep;
    Alcotest.test_case "scenario validation" `Quick test_scenario_validation;
    Alcotest.test_case "default switch models" `Quick
      test_default_switch_models;
    Alcotest.test_case "explicit model validation" `Quick
      test_explicit_switch_model_validation;
    Alcotest.test_case "scale payloads" `Quick test_scale_payloads;
    Alcotest.test_case "map flows" `Quick test_map_flows;
    Alcotest.test_case "link utilization" `Quick test_link_utilization;
    Alcotest.test_case "shared params == fresh on the corpus" `Quick
      test_shared_params_corpus;
    Alcotest.test_case "shared params: pooled reroute across rates" `Quick
      test_shared_params_pooled_reroute;
  ]
