(* Static pre-analysis: interference-graph decomposition, certificate
   soundness against the holistic analysis, and the union of
   per-component fixpoints reproducing the monolithic fixpoint exactly. *)

module P = Gmf_precheck.Precheck
module Reuse = Gmf_precheck.Reuse
module Ig = Gmf_precheck.Igraph
module St = Gmf_precheck.Static_tests
module Delta = Analysis.Delta
module Rng = Gmf_util.Rng

let parse text =
  match Scenario_io.Parse.scenario_of_string text with
  | Ok s -> s
  | Error e ->
      Alcotest.failf "scenario parse: %a" Scenario_io.Parse.pp_error e

let verdict_kind = function
  | Analysis.Holistic.Schedulable -> "schedulable"
  | Analysis.Holistic.Deadline_miss _ -> "deadline-miss"
  | Analysis.Holistic.Analysis_failed _ -> "failed"
  | Analysis.Holistic.No_fixed_point _ -> "divergent"

let bounds_of report =
  List.map
    (fun res ->
      ( res.Analysis.Result_types.flow.Traffic.Flow.id,
        Array.to_list
          (Array.map
             (fun fr -> fr.Analysis.Result_types.total)
             res.Analysis.Result_types.frames) ))
    report.Analysis.Holistic.results

(* The sharding property the delta engine rests on: every interference
   component fixpointed on its own through [Sharded.sub_scenario], merged
   in scenario flow order — rounds the maximum over components, the
   verdict rebuilt from the parts.  Returns the component count too. *)
let component_union scenario =
  let reports =
    List.map
      (fun (c : Ig.component) ->
        Analysis.Holistic.analyze
          (Analysis.Sharded.sub_scenario scenario c.Ig.members))
      (Ig.components (Ig.build (Traffic.Scenario.flows scenario)))
  in
  let by_id = Hashtbl.create 16 in
  List.iter
    (fun (r : Analysis.Holistic.report) ->
      List.iter
        (fun res ->
          Hashtbl.replace by_id
            res.Analysis.Result_types.flow.Traffic.Flow.id res)
        r.Analysis.Holistic.results)
    reports;
  let results =
    List.filter_map
      (fun f -> Hashtbl.find_opt by_id f.Traffic.Flow.id)
      (Traffic.Scenario.flows scenario)
  in
  let failures =
    List.concat_map
      (fun (r : Analysis.Holistic.report) ->
        match r.Analysis.Holistic.verdict with
        | Analysis.Holistic.Analysis_failed fs -> fs
        | _ -> [])
      reports
  in
  let diverged =
    List.filter_map
      (fun (r : Analysis.Holistic.report) ->
        match r.Analysis.Holistic.verdict with
        | Analysis.Holistic.No_fixed_point n -> Some n
        | _ -> None)
      reports
  in
  let verdict =
    if failures <> [] then Analysis.Holistic.Analysis_failed failures
    else if diverged <> [] then
      Analysis.Holistic.No_fixed_point (List.fold_left max 0 diverged)
    else
      match Analysis.Holistic.deadline_misses results with
      | [] -> Analysis.Holistic.Schedulable
      | misses -> Analysis.Holistic.Deadline_miss misses
  in
  let rounds =
    List.fold_left
      (fun acc (r : Analysis.Holistic.report) ->
        max acc r.Analysis.Holistic.rounds)
      0 reports
  in
  (List.length reports, { Analysis.Holistic.verdict; rounds; results })

(* ------------------------------------------------------------------ *)
(* Interference graph                                                 *)
(* ------------------------------------------------------------------ *)

(* Two disjoint stars: the h-cluster flows and the g-cluster flow cannot
   share a node, so they must land in different components. *)
let two_clusters =
  "node h0 endhost\nnode h1 endhost\nnode h2 endhost\nnode sa switch\n\
   node g0 endhost\nnode g1 endhost\nnode sb switch\n\
   duplex h0 sa rate=100M\nduplex h1 sa rate=100M\nduplex h2 sa rate=100M\n\
   duplex g0 sb rate=100M\nduplex g1 sb rate=100M\n\
   switch sa ports=3 cpus=1 croute=2.7us csend=1us\n\
   switch sb ports=2 cpus=1 croute=2.7us csend=1us\n\
   flow a from=h0 to=h1 prio=5 encap=rtp\n\
   \  frame period=10ms deadline=10ms jitter=0 payload=500B\nend\n\
   flow b from=h1 to=h2 prio=4 encap=rtp\n\
   \  frame period=10ms deadline=10ms jitter=0 payload=500B\nend\n\
   flow c from=g0 to=g1 prio=3 encap=rtp\n\
   \  frame period=10ms deadline=10ms jitter=0 payload=500B\nend\n"

let test_igraph_components () =
  let scenario = parse two_clusters in
  let g = Ig.build (Traffic.Scenario.flows scenario) in
  let st = Ig.stats g in
  Alcotest.(check int) "flows" 3 st.Ig.flows;
  Alcotest.(check int) "components" 2 st.Ig.components;
  Alcotest.(check int) "largest" 2 st.Ig.largest;
  let comps = Ig.components g in
  Alcotest.(check int) "edges" 1 (Ig.edges comps);
  Alcotest.(check (list (list int)))
    "a and b together, c apart, members ascending"
    [ [ 0; 1 ]; [ 2 ] ]
    (List.map
       (fun c ->
         List.map (fun (f : Traffic.Flow.t) -> f.Traffic.Flow.id) c.Ig.members)
       comps)

(* A generated mesh, fat-tree or ring of rings, a random subset of its
   flows, and a second version of one of them (the same id on another
   route when one avoids a hop of its own, else on the same route). *)
let gen_flow_list rng =
  let module G = Gmf_topogen.Gen_spec in
  let family =
    match Rng.int rng 3 with
    | 0 ->
        G.Mesh { rows = 2 + Rng.int rng 3; cols = 2 + Rng.int rng 3; planes = 1 }
    | 1 -> G.Fat_tree { k = 4 }
    | _ -> G.Ring_of_rings { rings = 2 + Rng.int rng 3; ring_size = 4 }
  in
  let spec =
    { G.default with
      G.family; hosts_per_switch = 2; flows = 5 + Rng.int rng 56;
      seed = Rng.int rng 1_000_000 }
  in
  let scenario =
    (Gmf_topogen.Topogen.generate spec).Gmf_topogen.Topogen.scenario
  in
  let flows =
    List.filter (fun _ -> Rng.int rng 4 > 0) (Traffic.Scenario.flows scenario)
  in
  let second_version =
    match flows with
    | [] -> []
    | _ ->
        let f = List.nth flows (Rng.int rng (List.length flows)) in
        let route = f.Traffic.Flow.route in
        let hops = Network.Route.hops route in
        let alt =
          Network.Pathfind.first_route
            ~avoid_links:[ List.nth hops (Rng.int rng (List.length hops)) ]
            (Traffic.Scenario.topo scenario)
            ~src:(Network.Route.source route)
            ~dst:(Network.Route.destination route)
        in
        [ Analysis.Rerouting.with_route f (Option.value ~default:route alt) ]
  in
  (Traffic.Scenario.topo scenario, flows @ second_version)

let prop_igraph_equals_oracle =
  QCheck.Test.make ~name:"igraph == brute-force oracle on generated fabrics"
    ~count:30
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let topo, flows = gen_flow_list (Rng.create ~seed) in
      let g = Ig.build flows and oracle = Igraph_oracle.build flows in
      let position (f : Traffic.Flow.t) =
        let rec go i = function
          | [] -> Alcotest.fail "member not in the given list"
          | x :: rest -> if x == f then i else go (i + 1) rest
        in
        go 0 flows
      in
      let comps = Ig.components g in
      let st = Ig.stats g in
      let sizes = List.map List.length oracle.Igraph_oracle.components in
      Alcotest.(check (list int)) "cids number the components"
        (List.init (List.length comps) Fun.id)
        (List.map (fun c -> c.Ig.cid) comps);
      Alcotest.(check (list (list int))) "components"
        oracle.Igraph_oracle.components
        (List.map (fun c -> List.map position c.Ig.members) comps);
      Alcotest.(check (list int)) "flows/components/largest/singletons"
        [ List.length flows; List.length sizes;
          List.fold_left max 0 sizes;
          List.length (List.filter (( = ) 1) sizes) ]
        [ st.Ig.flows; st.Ig.components; st.Ig.largest; st.Ig.singletons ];
      Alcotest.(check int) "edges" oracle.Igraph_oracle.edges (Ig.edges comps);
      for node = -1 to Network.Topology.node_count topo do
        Alcotest.(check (option int))
          (Printf.sprintf "node %d" node)
          (oracle.Igraph_oracle.node_component node)
          (Option.map (fun c -> c.Ig.cid) (Ig.node_component g node))
      done;
      true)

(* ------------------------------------------------------------------ *)
(* Consolidated inequalities                                          *)
(* ------------------------------------------------------------------ *)

(* Conditions, lint and precheck all read the same Static_tests
   inequalities: the per-stage utilizations reported by
   Analysis.Conditions must be exactly Static_tests.stage_utilization. *)
let test_conditions_consolidated () =
  let scenario = Workload.Scenarios.fig1_videoconf () in
  let checks = Analysis.Conditions.check_all scenario in
  Alcotest.(check bool) "some checks" true (checks <> []);
  List.iter
    (fun (c : Analysis.Conditions.check) ->
      let flow = Traffic.Scenario.flow scenario c.Analysis.Conditions.flow_id in
      let u =
        St.stage_utilization scenario flow c.Analysis.Conditions.stage
      in
      Alcotest.(check (float 1e-12)) "same utilization" u
        c.Analysis.Conditions.utilization;
      Alcotest.(check bool) "same predicate" (u < 1.)
        c.Analysis.Conditions.satisfied)
    checks

(* A generated mesh, fat-tree or ring of rings on 2-9 Mb/s links, filled
   up to 90% of some links and ingresses. *)
let gen_loaded_fabric rng =
  let module G = Gmf_topogen.Gen_spec in
  let family =
    match Rng.int rng 3 with
    | 0 ->
        G.Mesh { rows = 2 + Rng.int rng 3; cols = 2 + Rng.int rng 3; planes = 1 }
    | 1 -> G.Fat_tree { k = 4 }
    | _ -> G.Ring_of_rings { rings = 2 + Rng.int rng 3; ring_size = 4 }
  in
  let spec =
    { G.default with
      G.family; hosts_per_switch = 2; flows = 5 + Rng.int rng 56;
      rate_bps = 1_000_000 * (2 + Rng.int rng 8); max_util = 0.9;
      seed = Rng.int rng 1_000_000 }
  in
  (Gmf_topogen.Topogen.generate spec).Gmf_topogen.Topogen.scenario

(* The scenario's load table against the folds over flows_on it replaced
   (test/load_oracle.ml), compared with [=], so bit for bit: every link
   and ingress sum, the listings in lint's order, and route_overloads of
   every flow.  Checked on a generated fabric, a pooled restriction to a
   random subset, a pooled scenario with up to three copies of each flow
   under fresh ids (past eq (20) on shared links), and a map_switches
   with other CROUTE and processor counts (CIRC changes, ingresses go
   past eqs (34)-(35)).
   Each source's table is read before a scenario derives from it. *)
let prop_loads_equal_folds =
  QCheck.Test.make ~name:"load table == flows_on folds on generated fabrics"
    ~count:30
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let base = gen_loaded_fabric rng in
      let flows = Traffic.Scenario.flows base in
      let check what s =
        let fail fmt = QCheck.Test.fail_reportf ("%s: " ^^ fmt) what in
        let oracle_links =
          List.map
            (fun (src, dst) ->
              ((src, dst), Load_oracle.link_utilization s ~src ~dst))
            (Load_oracle.used_links s)
        in
        if Traffic.Scenario.loaded_links s <> oracle_links then
          fail "loaded links differ from the eq-(20) folds";
        List.iter
          (fun ((src, dst), u) ->
            if Traffic.Scenario.link_utilization s ~src ~dst <> u then
              fail "link %d->%d" src dst)
          oracle_links;
        let oracle_ingresses =
          List.map
            (fun (src, node) ->
              ((src, node), Load_oracle.ingress_utilization s ~src ~node))
            (Load_oracle.crossed s)
        in
        if
          List.sort compare (Traffic.Scenario.loaded_ingresses s)
          <> oracle_ingresses
        then fail "loaded ingresses differ from the eqs-(34)-(35) folds";
        List.iter
          (fun ((src, node), u) ->
            if Traffic.Scenario.ingress_utilization s ~src ~node <> u then
              fail "ingress %d->%d" src node)
          oracle_ingresses;
        List.iter
          (fun (f : Traffic.Flow.t) ->
            if St.route_overloads s f <> Load_oracle.route_overloads s f then
              fail "route_overloads of flow %d" f.Traffic.Flow.id)
          (Traffic.Scenario.flows s)
      in
      check "base" base;
      let pool = Traffic.Scenario.params_pool () in
      check "restriction"
        (Traffic.Scenario.with_flows ~pool base
           (List.filter (fun _ -> Rng.int rng 3 > 0) flows));
      let next_id =
        ref (List.fold_left (fun m (f : Traffic.Flow.t) ->
                 max m f.Traffic.Flow.id) 0 flows)
      in
      let copies =
        List.concat_map
          (fun (f : Traffic.Flow.t) ->
            List.init (Rng.int rng 4) (fun _ ->
                incr next_id;
                Traffic.Flow.make ~id:!next_id
                  ~name:(Printf.sprintf "copy%d" !next_id)
                  ~spec:f.Traffic.Flow.spec ~encap:f.Traffic.Flow.encap
                  ~route:f.Traffic.Flow.route
                  ~priority:f.Traffic.Flow.priority))
          flows
      in
      check "copies" (Traffic.Scenario.with_flows ~pool base (flows @ copies));
      let remodel _ (m : Click.Switch_model.t) =
        let ports = m.Click.Switch_model.ninterfaces in
        let divisors = List.filter (fun d -> ports mod d = 0) [ 1; 2; 4 ] in
        Click.Switch_model.make
          ~croute:(m.Click.Switch_model.croute * (1 + Rng.int rng 2_000))
          ~csend:m.Click.Switch_model.csend
          ~processors:(List.nth divisors (Rng.int rng (List.length divisors)))
          ~ninterfaces:ports ()
      in
      check "map_switches" (Traffic.Scenario.map_switches base ~f:remodel);
      true)

(* ------------------------------------------------------------------ *)
(* Certificates and diagnostics                                       *)
(* ------------------------------------------------------------------ *)

(* 60 kB every 100 ms on a 100M link is harmless (~5 ms of transmission),
   but a 200 us deadline sits below the uncontended floor: statically
   infeasible via the demand floor, and provably rejected by the holistic
   analysis. *)
let infeasible_text =
  "node h0 endhost\nnode h1 endhost\nnode sw switch\n\
   duplex h0 sw rate=100M\nduplex h1 sw rate=100M\n\
   switch sw ports=2 cpus=1 croute=2.7us csend=1us\n\
   flow fat from=h0 to=h1 prio=5 encap=rtp\n\
   \  frame period=100ms deadline=200us jitter=0 payload=60000B\nend\n"

let test_infeasible_certificate () =
  let scenario = parse infeasible_text in
  let pre = P.run scenario in
  (match P.verdict_of pre 0 with
  | P.Infeasible cert ->
      Alcotest.(check bool) "negative slack" true (cert.P.slack < 0.)
  | v -> Alcotest.failf "expected infeasible, got %a" P.pp_verdict v);
  let diags = P.diagnostics pre in
  Alcotest.(check bool) "GMF018 fired" true
    (List.exists (fun d -> d.Gmf_diag.code = "GMF018") diags);
  (* Soundness on this instance: the holistic analysis rejects too, and
     so does admission (whether through lint or the precheck). *)
  let holistic = Analysis.Holistic.analyze scenario in
  Alcotest.(check bool) "holistic rejects" false
    (Analysis.Holistic.is_schedulable holistic);
  let d = Analysis.Admission.check scenario in
  Alcotest.(check bool) "admission rejects" false d.Analysis.Admission.admitted

let test_component_bound_warning () =
  let scenario = Workload.Scenarios.fig1_videoconf () in
  let pre = P.run scenario in
  let diags = P.diagnostics ~max_component:1 pre in
  Alcotest.(check bool) "GMF019 fired" true
    (List.exists
       (fun d ->
         d.Gmf_diag.code = "GMF019"
         && d.Gmf_diag.severity = Gmf_diag.Warning)
       diags);
  Alcotest.(check bool) "default bound quiet" true
    (List.for_all (fun d -> d.Gmf_diag.code <> "GMF019") (P.diagnostics pre))

(* ------------------------------------------------------------------ *)
(* Certified flows skip the fixpoint                                  *)
(* ------------------------------------------------------------------ *)

let test_certified_admission_skips_fixpoint () =
  let scenario = Workload.Scenarios.single_switch_voip () in
  let pre = P.run scenario in
  Alcotest.(check int) "all flows certified"
    (Traffic.Scenario.flow_count scenario)
    (List.length (P.certified pre));
  let d = Analysis.Admission.check scenario in
  Alcotest.(check bool) "admitted" true d.Analysis.Admission.admitted;
  Alcotest.(check int) "no fixpoint rounds" 0
    d.Analysis.Admission.report.Analysis.Holistic.rounds;
  Alcotest.(check int) "one result per flow"
    (Traffic.Scenario.flow_count scenario)
    (List.length d.Analysis.Admission.report.Analysis.Holistic.results);
  (* The certified ceilings really bound the holistic fixed point. *)
  let holistic = Analysis.Holistic.analyze scenario in
  Alcotest.(check bool) "holistic agrees" true
    (Analysis.Holistic.is_schedulable holistic);
  List.iter
    (fun res ->
      let id = res.Analysis.Result_types.flow.Traffic.Flow.id in
      match P.verdict_of pre id with
      | P.Schedulable _ ->
          let ceiling =
            List.find
              (fun v -> v.P.flow_id = id)
              (P.certified pre)
          in
          let ceilings = Option.get ceiling.P.ceilings in
          Array.iteri
            (fun k fr ->
              Alcotest.(check bool)
                (Printf.sprintf "flow %d frame %d bounded" id k)
                true
                (fr.Analysis.Result_types.total <= ceilings.(k)))
            res.Analysis.Result_types.frames
      | _ -> Alcotest.fail "voip flow not certified")
    holistic.Analysis.Holistic.results

(* ------------------------------------------------------------------ *)
(* Randomized scenarios                                               *)
(* ------------------------------------------------------------------ *)

(* Host-local clusters on a switch chain, with an occasional cross-cluster
   flow merging components; an occasionally hostile profile (tight
   deadlines, fat payloads) produces infeasible flows too. *)
let gen_scenario rng =
  let open Gmf_util in
  let topo, hosts, _sw =
    Workload.Topologies.line ~hosts_per_switch:3 ~switches:3 ()
  in
  let pairs = ref [] in
  for s = 0 to 2 do
    for h = 0 to 1 do
      if Rng.int rng 3 > 0 then
        pairs := (hosts.(s).(h), hosts.(s).(h + 1)) :: !pairs
    done
  done;
  if Rng.int rng 3 = 0 then
    pairs := (hosts.(0).(0), hosts.(2).(2)) :: !pairs;
  if !pairs = [] then pairs := [ (hosts.(1).(0), hosts.(1).(1)) ];
  let profile =
    if Rng.int rng 4 = 0 then
      {
        Workload.Random_gen.default_profile with
        Workload.Random_gen.deadline_factor = (0.0005, 0.6);
        payload_bytes = (10_000, 60_000);
      }
    else Workload.Random_gen.default_profile
  in
  let flows =
    Workload.Random_gen.flows_between rng ~profile ~topo ~pairs:!pairs ()
  in
  Traffic.Scenario.make ~topo ~flows ()

(* The tentpole property: per-component fixpoints, merged, reproduce the
   monolithic analysis — same verdict, same rounds, same per-frame
   bounds.  (On Analysis_failed the monolithic run stops every component
   at the failing round, so only the verdict kind is compared.) *)
let prop_sharded_equals_monolithic =
  QCheck.Test.make ~name:"sharded union == monolithic on random scenarios"
    ~count:40
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Gmf_util.Rng.create ~seed in
      let scenario = gen_scenario rng in
      let mono = Analysis.Holistic.analyze scenario in
      let components_run, merged = component_union scenario in
      if components_run < 1 then
        QCheck.Test.fail_report "no component ran";
      let mk = verdict_kind mono.Analysis.Holistic.verdict in
      if mk <> verdict_kind merged.Analysis.Holistic.verdict then
        QCheck.Test.fail_reportf "verdicts differ: %s vs %s" mk
          (verdict_kind merged.Analysis.Holistic.verdict);
      if mk <> "failed" then begin
        if mono.Analysis.Holistic.rounds <> merged.Analysis.Holistic.rounds
        then
          QCheck.Test.fail_reportf "rounds differ: %d vs %d"
            mono.Analysis.Holistic.rounds merged.Analysis.Holistic.rounds;
        if bounds_of mono <> bounds_of merged then
          QCheck.Test.fail_report "per-frame bounds differ"
      end;
      true)

(* Verdict soundness: an Infeasible certificate means the holistic
   analysis rejects; a fully certified scenario means it admits, with
   every per-frame bound below its certified ceiling. *)
let check_soundness ?config scenario =
  let pre = P.run ?config scenario in
  let holistic = Analysis.Holistic.analyze ?config scenario in
  let schedulable = Analysis.Holistic.is_schedulable holistic in
  if P.infeasible pre <> [] && schedulable then
    QCheck.Test.fail_reportf
      "infeasible certificate on a schedulable scenario: %a" P.pp_verdict
      (List.hd (P.infeasible pre)).P.verdict;
  if P.decided pre = List.length pre.P.verdicts && P.infeasible pre = []
  then begin
    if not schedulable then
      QCheck.Test.fail_reportf
        "fully certified scenario rejected by the holistic analysis (%s)"
        (verdict_kind holistic.Analysis.Holistic.verdict);
    List.iter
      (fun res ->
        let id = res.Analysis.Result_types.flow.Traffic.Flow.id in
        match P.verdict_of pre id with
        | P.Schedulable _ ->
            let v = List.find (fun v -> v.P.flow_id = id) (P.certified pre) in
            let ceilings = Option.get v.P.ceilings in
            Array.iteri
              (fun k fr ->
                if fr.Analysis.Result_types.total > ceilings.(k) then
                  QCheck.Test.fail_reportf
                    "flow %d frame %d: holistic %d above certified %d" id k
                    fr.Analysis.Result_types.total ceilings.(k))
              res.Analysis.Result_types.frames
        | _ -> ())
      holistic.Analysis.Holistic.results
  end;
  true

let prop_verdicts_sound =
  QCheck.Test.make ~name:"precheck verdicts sound on random scenarios"
    ~count:40
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Gmf_util.Rng.create ~seed in
      check_soundness (gen_scenario rng))

(* Same soundness over the randomized admission traces: whatever flow set
   a replayed session ends up committing, the precheck verdicts on it
   agree with a cold holistic run. *)
let prop_admtrace_sound =
  QCheck.Test.make ~name:"precheck verdicts sound on admtrace replays"
    ~count:25
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Gmf_util.Rng.create ~seed in
      let text = Test_admctl.gen_trace_text rng in
      let trace =
        match Scenario_io.Admtrace.of_string text with
        | Ok t -> t
        | Error e ->
            QCheck.Test.fail_reportf "trace parse: %s"
              (Format.asprintf "%a" Scenario_io.Parse.pp_error e)
      in
      let { Gmf_admctl.Replay.session; _ } = Gmf_admctl.Replay.run trace in
      match Gmf_admctl.Session.flows session with
      | [] -> true
      | flows ->
          check_soundness
            (Traffic.Scenario.make
               ~switches:trace.Scenario_io.Admtrace.switches
               ~topo:trace.Scenario_io.Admtrace.topo ~flows ()))

(* ------------------------------------------------------------------ *)
(* Example corpus                                                     *)
(* ------------------------------------------------------------------ *)

let test_example_corpus_sound () =
  let dir = Example_corpus.dir () in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".gmfnet")
    |> List.sort compare
  in
  Alcotest.(check bool) "corpus present" true (files <> []);
  List.iter
    (fun file ->
      match Scenario_io.Parse.scenario_of_file (Filename.concat dir file) with
      | Error e -> Alcotest.failf "%s: %a" file Scenario_io.Parse.pp_error e
      | Ok scenario ->
          Alcotest.(check bool) (file ^ ": sound") true
            (check_soundness scenario);
          (* And the sharded union matches the monolithic run. *)
          let mono = Analysis.Holistic.analyze scenario in
          let _, merged = component_union scenario in
          Alcotest.(check string) (file ^ ": same verdict kind")
            (verdict_kind mono.Analysis.Holistic.verdict)
            (verdict_kind merged.Analysis.Holistic.verdict);
          if verdict_kind mono.Analysis.Holistic.verdict <> "failed" then begin
            Alcotest.(check int) (file ^ ": same rounds")
              mono.Analysis.Holistic.rounds merged.Analysis.Holistic.rounds;
            Alcotest.(check bool) (file ^ ": same bounds") true
              (bounds_of mono = bounds_of merged)
          end)
    files

(* Both variants: the certificates are variant-aware (Repaired rotation
   charges, the uncapped MX of repair R7), so soundness must hold under
   Faithful too. *)
let prop_verdicts_sound_faithful =
  QCheck.Test.make ~name:"precheck verdicts sound under Faithful" ~count:20
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Gmf_util.Rng.create ~seed in
      check_soundness ~config:Analysis.Config.faithful (gen_scenario rng))

(* Each per-stage demand-floor term is one application of the stage's
   recurrence from the bottom jitters, so it never exceeds the converged
   response of the same (flow, frame, stage), in any variant. *)
let prop_demand_floor_below_responses =
  QCheck.Test.make ~name:"demand-floor terms below converged stage responses"
    ~count:8 Test_explain.generated_arb (fun case ->
      let scenario = Test_explain.generated_scenario case in
      List.iter
        (fun (cname, config) ->
          let report = Analysis.Holistic.analyze ~config scenario in
          if Test_explain.has_bounds report then
            List.iter
              (fun (res : Analysis.Result_types.flow_result) ->
                let flow = res.Analysis.Result_types.flow in
                let floors =
                  Gmf_precheck.Static_tests.demand_floor ~config scenario flow
                in
                Array.iteri
                  (fun k (fr : Analysis.Result_types.frame_result) ->
                    let _, terms = floors.(k) in
                    List.iter2
                      (fun (stage, floor)
                           (sr : Analysis.Result_types.stage_response) ->
                        let r = sr.Analysis.Result_types.response in
                        if
                          (not
                             (Analysis.Stage.equal stage
                                sr.Analysis.Result_types.stage))
                          || floor > r
                        then
                          QCheck.Test.fail_reportf
                            "%s/%s: flow %d frame %d %a: floor %d > \
                             response %d"
                            (Test_explain.print_generated case)
                            cname flow.Traffic.Flow.id k Analysis.Stage.pp
                            stage floor r)
                      terms fr.Analysis.Result_types.stages)
                  res.Analysis.Result_types.frames)
              report.Analysis.Holistic.results)
        Test_explain.configs;
      true)

(* ------------------------------------------------------------------ *)
(* Random edits, shared with test_delta.ml                            *)
(* ------------------------------------------------------------------ *)

(* The scenario an edit describes, built without Delta: the base's
   switch models, the base flows the edit leaves alone and the put
   records. *)
let materialize scenario (edit : Delta.edit) =
  let edited =
    edit.Delta.removed
    @ List.map (fun (f : Traffic.Flow.t) -> f.Traffic.Flow.id) edit.Delta.put
  in
  let switches =
    List.map
      (fun n -> (n, Traffic.Scenario.switch_model scenario n))
      (Traffic.Scenario.switch_nodes scenario)
  in
  Traffic.Scenario.make ~switches ~topo:(Traffic.Scenario.topo scenario)
    ~flows:
      (List.filter
         (fun (f : Traffic.Flow.t) -> not (List.mem f.Traffic.Flow.id edited))
         (Traffic.Scenario.flows scenario)
      @ edit.Delta.put)
    ()

(* One to three edits of distinct flows: a removal, a payload update, a
   reroute around one of the route's links, or an added copy of a flow
   under a fresh id — in one case of three under an existing name, which
   only the lint gate's GMF001 sees. *)
let random_edit rng scenario =
  let flows = Array.of_list (Traffic.Scenario.flows scenario) in
  let topo = Traffic.Scenario.topo scenario in
  let next_id =
    ref
      (1
      + Array.fold_left
          (fun m (f : Traffic.Flow.t) -> max m f.Traffic.Flow.id)
          0 flows)
  in
  let touched = Hashtbl.create 8 in
  let removed = ref [] and put = ref [] in
  for _ = 1 to 1 + Rng.int rng 3 do
    let f = flows.(Rng.int rng (Array.length flows)) in
    if not (Hashtbl.mem touched f.Traffic.Flow.id) then begin
      let replace g =
        Hashtbl.replace touched f.Traffic.Flow.id ();
        put := g :: !put
      in
      match Rng.int rng 4 with
      | 0 ->
          Hashtbl.replace touched f.Traffic.Flow.id ();
          removed := f.Traffic.Flow.id :: !removed
      | 1 -> (
          match Traffic.Flow.scale_payloads_checked f 1.25 with
          | Ok g -> replace g
          | Error _ -> ())
      | 2 -> (
          let route = f.Traffic.Flow.route in
          let hops = Network.Route.hops route in
          let hop = List.nth hops (Rng.int rng (List.length hops)) in
          match
            Network.Pathfind.first_route ~avoid_links:[ hop ] topo
              ~src:(Network.Route.source route)
              ~dst:(Network.Route.destination route)
          with
          | Some alt -> replace (Analysis.Rerouting.with_route f alt)
          | None -> ())
      | _ ->
          let id = !next_id in
          incr next_id;
          let name =
            if Rng.int rng 3 = 0 then
              flows.(Rng.int rng (Array.length flows)).Traffic.Flow.name
            else Printf.sprintf "added%d" id
          in
          put :=
            Traffic.Flow.make ~id ~name ~spec:f.Traffic.Flow.spec
              ~encap:f.Traffic.Flow.encap ~route:f.Traffic.Flow.route
              ~priority:f.Traffic.Flow.priority
            :: !put
    end
  done;
  { Delta.removed = !removed; put = !put }

(* ------------------------------------------------------------------ *)
(* One component table across an edit script                          *)
(* ------------------------------------------------------------------ *)

(* A topogen fabric — mesh, fat-tree or ring of rings — whose flows stay
   in their source's region, so most fabrics fall apart into several
   interference components, loaded up to 95% per resource. *)
let gen_fabric rng =
  let open Gmf_topogen.Gen_spec in
  let family =
    match Rng.int rng 3 with
    | 0 -> Mesh { rows = 4; cols = 4; planes = 1 }
    | 1 -> Fat_tree { k = 4 }
    | _ -> Ring_of_rings { rings = 4; ring_size = 3 }
  in
  let spec =
    {
      default with
      family;
      hosts_per_switch = 2;
      flows = 10 + Rng.int rng 21;
      locality = 1.0;
      max_util = 0.95;
      seed = Rng.int rng 1_000_000;
    }
  in
  (Gmf_topogen.Topogen.generate spec).Gmf_topogen.Topogen.scenario

(* Doubling CROUTE on the switches of one route raises their CIRC and
   the certified ceilings of every component crossing them, while every
   flow record and the topology stay physically the same. *)
let slow_switches scenario (f : Traffic.Flow.t) =
  let on_route = Network.Route.intermediate_switches f.Traffic.Flow.route in
  Traffic.Scenario.map_switches scenario ~f:(fun n m ->
      if not (List.mem n on_route) then m
      else
        Click.Switch_model.make
          ~croute:(2 * m.Click.Switch_model.croute)
          ~csend:m.Click.Switch_model.csend
          ~processors:m.Click.Switch_model.processors
          ~ninterfaces:m.Click.Switch_model.ninterfaces ())

(* One step of a script: {!random_edit}'s one to three removals,
   payload updates, reroutes and added copies, or — once each per
   script — a switch-model change, an update that keeps the flow's id
   and route but changes its record (a rename and smaller payloads), and
   a switch to the other variant.  Returns the new scenario and
   config. *)
let script_step rng ~once ~config scenario =
  let flows = Traffic.Scenario.flows scenario in
  let f = List.nth flows (Rng.int rng (List.length flows)) in
  let first tag =
    let fresh = not (Hashtbl.mem once tag) in
    Hashtbl.replace once tag ();
    fresh
  in
  let edit = materialize scenario in
  match Rng.int rng 6 with
  | 0 when first "models" -> (slow_switches scenario f, config)
  | 1 when first "record" -> (
      match Traffic.Flow.scale_payloads_checked f 0.8 with
      | Ok g ->
          ( edit
              {
                Delta.removed = [];
                put =
                  [
                    Traffic.Flow.make ~id:g.Traffic.Flow.id
                      ~name:(g.Traffic.Flow.name ^ "'")
                      ~spec:g.Traffic.Flow.spec ~encap:g.Traffic.Flow.encap
                      ~route:g.Traffic.Flow.route
                      ~priority:g.Traffic.Flow.priority;
                  ];
              },
            config )
      | Error _ -> (scenario, config))
  | 2 when first "variant" ->
      ( scenario,
        if config = Analysis.Config.faithful then Analysis.Config.default
        else Analysis.Config.faithful )
  | _ -> (edit (random_edit rng scenario), config)

(* What [f]'s runs read from a table: [name] is
   [precheck.components_reused] or [lint.flows_reused]. *)
let reused name f =
  let reg = Gmf_obs.Metrics.default in
  let counter = Gmf_obs.Metrics.counter reg name in
  let was = Gmf_obs.Metrics.enabled reg in
  let before = Gmf_obs.Metrics.counter_value counter in
  Gmf_obs.Metrics.set_enabled reg true;
  Fun.protect ~finally:(fun () -> Gmf_obs.Metrics.set_enabled reg was) f;
  Gmf_obs.Metrics.counter_value counter - before

(* A random edit script under Repaired or Faithful, every step prechecked
   through one table and linted through another, each shared by the
   whole script: each report equals a run from scratch.  A table that
   reused a component or a flow for its ids alone would return the stale
   verdicts or findings of an updated record, a slower switch or the
   other variant.  The lint table is trimmed after each step, as a
   session trims its tables; the precheck table, like a delta base's,
   is not. *)
let prop_table_equals_scratch =
  QCheck.Test.make ~name:"one table across an edit script == runs from scratch"
    ~count:20
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let config =
        ref
          (if Rng.int rng 2 = 0 then Analysis.Config.default
           else Analysis.Config.faithful)
      in
      let scenario = ref (gen_fabric rng) in
      let table = Reuse.create () and lint_table = Reuse.create () in
      let once = Hashtbl.create 4 in
      let lint ?table s =
        List.map Gmf_diag.to_string
          (Gmf_lint.Lint.run ~config:!config ?table s).Gmf_lint.Lint.diagnostics
      in
      for step = 0 to 11 do
        if step > 0 then begin
          let s, c = script_step rng ~once ~config:!config !scenario in
          scenario := s;
          config := c
        end;
        let scratch = P.to_json (P.run ~config:!config !scenario) in
        if P.to_json (P.run ~config:!config ~table !scenario) <> scratch then
          QCheck.Test.fail_reportf "step %d: report through the table differs"
            step;
        if lint ~table:lint_table !scenario <> lint !scenario then
          QCheck.Test.fail_reportf
            "step %d: lint through the table differs" step;
        Reuse.keep_latest lint_table;
        if Reuse.length lint_table <> Traffic.Scenario.flow_count !scenario
        then
          QCheck.Test.fail_reportf
            "step %d: the trimmed lint table holds %d entries for %d flows"
            step (Reuse.length lint_table)
            (Traffic.Scenario.flow_count !scenario)
      done;
      (* The tables hold every component and flow of the last step:
         running that step again tests none of them. *)
      let components = (P.run !scenario).P.stats.Ig.components in
      if
        reused "precheck.components_reused" (fun () ->
            ignore (P.run ~config:!config ~table !scenario))
        <> components
      then
        QCheck.Test.fail_report "a rerun of the last step tested a component";
      if
        reused "lint.flows_reused" (fun () ->
            ignore (lint ~table:lint_table !scenario))
        <> Traffic.Scenario.flow_count !scenario
      then QCheck.Test.fail_report "a rerun of the last step linted a flow";
      true)

let tests =
  [
    Alcotest.test_case "interference graph decomposes clusters" `Quick
      test_igraph_components;
    QCheck_alcotest.to_alcotest prop_igraph_equals_oracle;
    QCheck_alcotest.to_alcotest prop_loads_equal_folds;
    Alcotest.test_case "conditions read the consolidated inequalities"
      `Quick test_conditions_consolidated;
    Alcotest.test_case "infeasible certificate + GMF018" `Quick
      test_infeasible_certificate;
    Alcotest.test_case "GMF019 component bound" `Quick
      test_component_bound_warning;
    Alcotest.test_case "certified admission skips the fixpoint" `Quick
      test_certified_admission_skips_fixpoint;
    Alcotest.test_case "example corpus: sound and shard-exact" `Slow
      test_example_corpus_sound;
    QCheck_alcotest.to_alcotest prop_sharded_equals_monolithic;
    QCheck_alcotest.to_alcotest prop_verdicts_sound;
    QCheck_alcotest.to_alcotest prop_verdicts_sound_faithful;
    QCheck_alcotest.to_alcotest prop_admtrace_sound;
    QCheck_alcotest.to_alcotest prop_demand_floor_below_responses;
    QCheck_alcotest.to_alcotest prop_table_equals_scratch;
  ]
