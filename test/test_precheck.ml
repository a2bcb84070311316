(* Static pre-analysis: interference-graph decomposition, certificate
   soundness against the holistic analysis, and the union of
   per-component fixpoints reproducing the monolithic fixpoint exactly. *)

module P = Gmf_precheck.Precheck
module Ig = Gmf_precheck.Igraph
module St = Gmf_precheck.Static_tests

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
          (Analysis.Sharded.sub_scenario scenario c.Ig.flow_ids))
      (Ig.components (Ig.build scenario))
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
  let g = Ig.build scenario in
  let st = Ig.stats g in
  Alcotest.(check int) "flows" 3 st.Ig.flows;
  Alcotest.(check int) "components" 2 st.Ig.components;
  Alcotest.(check int) "largest" 2 st.Ig.largest;
  Alcotest.(check int) "edges" 1 st.Ig.edges;
  let comps = Ig.components g in
  Alcotest.(check (list (list int)))
    "a and b together, c apart, members ascending"
    [ [ 0; 1 ]; [ 2 ] ]
    (List.map (fun c -> c.Ig.flow_ids) comps)

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
(* Reuse across passes                                                *)
(* ------------------------------------------------------------------ *)

(* [run ~prev] equals a pass from scratch when the context of every
   component moved while every flow record stayed physically the same:
   the verdicts must differ from [prev]'s, or reuse is untested. *)
let check_prev_equals_scratch ~what ?config ~prev scenario =
  let scratch = P.run ?config scenario in
  Alcotest.(check bool) (what ^ ": verdicts moved") false
    (P.to_json scratch = P.to_json prev);
  Alcotest.(check string) (what ^ ": run ~prev == run") (P.to_json scratch)
    (P.to_json (P.run ?config ~prev scenario))

(* Doubling CROUTE raises CIRC and every certified ceiling. *)
let test_prev_switch_models () =
  let enterprise = Workload.Scenarios.enterprise () in
  let slow =
    Traffic.Scenario.map_switches enterprise ~f:(fun _ m ->
        Click.Switch_model.make
          ~croute:(2 * m.Click.Switch_model.croute)
          ~csend:m.Click.Switch_model.csend
          ~processors:m.Click.Switch_model.processors
          ~ninterfaces:m.Click.Switch_model.ninterfaces ())
  in
  check_prev_equals_scratch ~what:"CIRC" ~prev:(P.run enterprise) slow

(* The Repaired variant charges every own Ethernet frame a rotation. *)
let test_prev_variant () =
  let enterprise = Workload.Scenarios.enterprise () in
  check_prev_equals_scratch ~what:"variant"
    ~prev:(P.run ~config:Analysis.Config.faithful enterprise)
    enterprise

let tests =
  [
    Alcotest.test_case "interference graph decomposes clusters" `Quick
      test_igraph_components;
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
    Alcotest.test_case "run ~prev after a switch-model change" `Quick
      test_prev_switch_models;
    Alcotest.test_case "run ~prev under the other variant" `Quick
      test_prev_variant;
  ]
