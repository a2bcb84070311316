(* Properties of the scenario generator (Gmf_topogen). *)

module Gen_spec = Gmf_topogen.Gen_spec
module Topogen = Gmf_topogen.Topogen

let specs =
  [
    ("mesh", Gen_spec.default);
    ( "dual-mesh",
      {
        Gen_spec.default with
        Gen_spec.family = Gen_spec.Mesh { rows = 3; cols = 3; planes = 2 };
        flows = 25;
        seed = 7;
      } );
    ( "fat-tree",
      {
        Gen_spec.default with
        Gen_spec.family = Gen_spec.Fat_tree { k = 4 };
        flows = 30;
        seed = 11;
      } );
    ( "rings",
      {
        Gen_spec.default with
        Gen_spec.family = Gen_spec.Ring_of_rings { rings = 4; ring_size = 3 };
        flows = 30;
        seed = 13;
      } );
  ]

let each f () = List.iter (fun (name, spec) -> f name spec) specs

(* Every generated topology is connected: an undirected reachability sweep
   from any node covers all of them. *)
let test_connected =
  each (fun name spec ->
      let r = Topogen.generate spec in
      let topo = Traffic.Scenario.topo r.Topogen.scenario in
      let n = Network.Topology.node_count topo in
      let seen = Array.make n false in
      let rec visit id =
        if not seen.(id) then begin
          seen.(id) <- true;
          List.iter visit (Network.Topology.out_neighbors topo id)
        end
      in
      visit 0;
      Alcotest.(check bool)
        (name ^ " connected") true
        (Array.for_all Fun.id seen))

(* Every flow's route runs host-to-host over existing links with only
   switches in between. *)
let test_routes_valid =
  each (fun name spec ->
      let r = Topogen.generate spec in
      let topo = Traffic.Scenario.topo r.Topogen.scenario in
      let kind id = (Network.Topology.node topo id).Network.Node.kind in
      List.iter
        (fun flow ->
          let route = flow.Traffic.Flow.route in
          Alcotest.(check bool)
            (name ^ " source is a host") true
            (kind (Network.Route.source route) = Network.Node.Endhost);
          Alcotest.(check bool)
            (name ^ " destination is a host") true
            (kind (Network.Route.destination route) = Network.Node.Endhost);
          List.iter
            (fun sw ->
              Alcotest.(check bool)
                (name ^ " interior is a switch") true
                (kind sw = Network.Node.Switch))
            (Network.Route.intermediate_switches route);
          List.iter
            (fun (src, dst) ->
              Alcotest.(check bool)
                (name ^ " hop is a link") true
                (Network.Topology.find_link topo ~src ~dst <> None))
            (Network.Route.hops route))
        (Traffic.Scenario.flows r.Topogen.scenario))

(* Fixed seed => byte-identical output; the stream is splitmix64, so this
   holds on any platform or backend, not just across two calls here. *)
let test_deterministic =
  each (fun name spec ->
      let a = Topogen.generate spec and b = Topogen.generate spec in
      Alcotest.(check string)
        (name ^ " byte-deterministic")
        (Topogen.to_string a.Topogen.scenario)
        (Topogen.to_string b.Topogen.scenario))

let test_seed_matters () =
  let a = Topogen.generate Gen_spec.default in
  let b =
    Topogen.generate { Gen_spec.default with Gen_spec.seed = 43 }
  in
  Alcotest.(check bool)
    "different seeds differ" false
    (String.equal
       (Topogen.to_string a.Topogen.scenario)
       (Topogen.to_string b.Topogen.scenario))

(* The generator's incremental utilization and response-floor tracking
   mirrors the lint rules, so the output passes --deny warning. *)
let test_lint_clean =
  each (fun name spec ->
      let r = Topogen.generate spec in
      let report = Gmf_lint.Lint.run r.Topogen.scenario in
      Alcotest.(check int)
        (name ^ " no lint errors") 0
        (List.length (Gmf_lint.Lint.errors report));
      Alcotest.(check int)
        (name ^ " no lint warnings") 0
        (List.length (Gmf_lint.Lint.warnings report));
      Alcotest.(check bool)
        (name ^ " passes --deny warning") false
        (Gmf_lint.Lint.fatal ~deny:Gmf_diag.Warning report))

(* Printed output reparses to the same population. *)
let test_roundtrip =
  each (fun name spec ->
      let r = Topogen.generate spec in
      let printed = Topogen.to_string r.Topogen.scenario in
      match Scenario_io.Parse.scenario_of_string printed with
      | Error e ->
          Alcotest.failf "%s does not reparse: %a" name
            Scenario_io.Parse.pp_error e
      | Ok reparsed ->
          let sig_of s =
            ( List.length (Network.Topology.links (Traffic.Scenario.topo s)),
              List.map
                (fun f ->
                  ( f.Traffic.Flow.name,
                    f.Traffic.Flow.priority,
                    Network.Route.hop_count f.Traffic.Flow.route,
                    Gmf.Spec.tsum f.Traffic.Flow.spec ))
                (Traffic.Scenario.flows s) )
          in
          Alcotest.(check bool)
            (name ^ " round-trips") true
            (sig_of r.Topogen.scenario = sig_of reparsed))

(* All requested flows are actually placed for the default parameters —
   the ceilings are loose enough that rejection is the exception. *)
let test_placement_fills () =
  let r = Topogen.generate Gen_spec.default in
  Alcotest.(check int) "all slots placed" Gen_spec.default.Gen_spec.flows
    r.Topogen.placed;
  Alcotest.(check int) "scenario holds them"
    r.Topogen.placed
    (List.length (Traffic.Scenario.flows r.Topogen.scenario))

(* The placement ceilings are real: no link and no ingress rotation of
   the generated scenario exceeds max_util (eqs 20 and 34-35). *)
let test_util_ceiling () =
  let spec = { Gen_spec.default with Gen_spec.flows = 80; max_util = 0.5 } in
  let r = Topogen.generate spec in
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Format.asprintf "%a under ceiling" Analysis.Conditions.pp_check c)
        true
        (c.Analysis.Conditions.utilization
        <= spec.Gen_spec.max_util +. 1e-9))
    (Analysis.Conditions.check_all r.Topogen.scenario)

let test_spec_parsers () =
  List.iter
    (fun s ->
      match Gen_spec.family_of_string s with
      | Ok f ->
          Alcotest.(check string)
            (s ^ " round-trips") s
            (Gen_spec.family_to_string f)
      | Error e -> Alcotest.failf "%s does not parse: %s" s e)
    [ "mesh:4x4"; "mesh:25x20x2"; "fat-tree:4"; "rings:4x3" ];
  (match Gen_spec.mix_of_string "voip=3,mpeg=1,sensor=2" with
  | Ok m ->
      Alcotest.(check string)
        "mix round-trips" "voip=3,mpeg=1,sensor=2" (Gen_spec.mix_to_string m)
  | Error e -> Alcotest.failf "mix does not parse: %s" e);
  List.iter
    (fun s ->
      match Gen_spec.family_of_string s with
      | Ok _ -> Alcotest.failf "%s should not parse" s
      | Error _ -> ())
    [ "mesh:4"; "torus:4x4"; "fat-tree:x"; "rings:4" ]

let test_validate_rejects () =
  List.iter
    (fun (what, spec) ->
      match Gen_spec.validate spec with
      | Ok () -> Alcotest.failf "%s should be rejected" what
      | Error _ -> ())
    [
      ( "3 planes",
        {
          Gen_spec.default with
          Gen_spec.family = Gen_spec.Mesh { rows = 2; cols = 2; planes = 3 };
        } );
      ( "odd fat-tree",
        { Gen_spec.default with Gen_spec.family = Gen_spec.Fat_tree { k = 3 } }
      );
      ("empty mix", { Gen_spec.default with Gen_spec.mix = [] });
      ("locality 2", { Gen_spec.default with Gen_spec.locality = 2. });
      ("util 0", { Gen_spec.default with Gen_spec.max_util = 0. });
      ( "inverted band",
        { Gen_spec.default with Gen_spec.prio_lo = 5; prio_hi = 2 } );
    ]

let tests =
  [
    Alcotest.test_case "generated topologies are connected" `Quick
      test_connected;
    Alcotest.test_case "routes are host-to-host over real links" `Quick
      test_routes_valid;
    Alcotest.test_case "fixed seed is byte-deterministic" `Quick
      test_deterministic;
    Alcotest.test_case "seed changes the population" `Quick test_seed_matters;
    Alcotest.test_case "output is lint-clean at --deny warning" `Quick
      test_lint_clean;
    Alcotest.test_case "output reparses to the same population" `Quick
      test_roundtrip;
    Alcotest.test_case "default parameters place every flow" `Quick
      test_placement_fills;
    Alcotest.test_case "stage utilizations respect max-util" `Quick
      test_util_ceiling;
    Alcotest.test_case "family and mix strings round-trip" `Quick
      test_spec_parsers;
    Alcotest.test_case "validate rejects bad parameters" `Quick
      test_validate_rejects;
  ]
