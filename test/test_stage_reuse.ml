(* Stage-evaluation reuse inside the holistic round is exact: the analysis
   equals a round-robin that builds a fresh context for every flow of
   every round (so it can reuse nothing) in bounds, verdict, rounds and
   per-round convergence record, and a context reused across runs drops
   the evaluations of the jitters it held.  A run's report fixes the
   jitters the run left: seeding a context from it rebuilds them. *)

module Ctx = Analysis.Ctx
module Holistic = Analysis.Holistic
module Gen_spec = Gmf_topogen.Gen_spec

(* Every (flow, frame, stage) slot of the scenario, in a fixed order. *)
let slots scenario =
  List.concat_map
    (fun (flow : Traffic.Flow.t) ->
      List.concat_map
        (fun stage ->
          List.init (Traffic.Flow.n flow) (fun k -> (flow, k, stage)))
        (Analysis.Stage.stages_of_route flow.Traffic.Flow.route))
    (Traffic.Scenario.flows scenario)

let read_jitters ctx slots =
  List.map
    (fun (flow, frame, stage) -> Ctx.get_jitter ctx flow ~frame ~stage)
    slots

let write_jitters ctx slots values =
  List.iter2
    (fun (flow, frame, stage) v -> Ctx.set_jitter ctx flow ~frame ~stage v)
    slots values

(* Per flow, the largest change of one of its jitters between [before]
   and [after], for every flow holding a non-zero jitter on either side:
   the record the round observer reports. *)
let flow_deltas slots before after =
  let deltas = Hashtbl.create 64 in
  List.iter2
    (fun ((flow : Traffic.Flow.t), _, _) (b, a) ->
      let id = flow.Traffic.Flow.id in
      let d = abs (a - b) in
      let nonzero = a <> 0 || b <> 0 in
      match Hashtbl.find_opt deltas id with
      | Some (listed, cur) ->
          Hashtbl.replace deltas id (listed || nonzero, max cur d)
      | None -> Hashtbl.replace deltas id (nonzero, d))
    slots (List.combine before after);
  Hashtbl.fold
    (fun id (listed, d) acc -> if listed then (id, d) :: acc else acc)
    deltas []
  |> List.sort compare

(* The holistic iteration with nothing to reuse: each flow is analyzed on
   a fresh context loaded with the jitters the previous flow left behind,
   and the jitters move between contexts slot by slot. *)
let oracle ?(config = Analysis.Config.default) scenario =
  let flows = Traffic.Scenario.flows scenario in
  let slots = slots scenario in
  let round state =
    List.fold_left
      (fun (state, results, failures) flow ->
        let ctx = Ctx.create ~config scenario in
        write_jitters ctx slots state;
        let outcome = Analysis.Pipeline.analyze_flow ctx ~flow in
        let state = read_jitters ctx slots in
        match outcome with
        | Ok res -> (state, res :: results, failures)
        | Error f -> (state, results, f :: failures))
      (state, [], []) flows
  in
  let rec go n state deltas =
    let after, results, failures = round state in
    let results = List.rev results and failures = List.rev failures in
    let deltas = flow_deltas slots state after :: deltas in
    let report verdict = ({ Holistic.verdict; rounds = n; results }, deltas) in
    if failures <> [] then report (Holistic.Analysis_failed failures)
    else if state = after then
      match Holistic.deadline_misses results with
      | [] -> report Holistic.Schedulable
      | misses -> report (Holistic.Deadline_miss misses)
    else if n >= config.Analysis.Config.max_holistic_rounds then
      report (Holistic.No_fixed_point n)
    else go (n + 1) after deltas
  in
  let bottom = read_jitters (Ctx.create ~config scenario) slots in
  let report, deltas = go 1 bottom [] in
  (report, List.rev deltas)

(* [Holistic.analyze] with the flow deltas of each of its rounds. *)
let observed ~config scenario =
  let deltas = ref [] in
  let report =
    Fun.protect
      ~finally:(fun () -> Holistic.set_round_observer None)
      (fun () ->
        Holistic.set_round_observer
          (Some (fun o -> deltas := o.Holistic.obs_flow_deltas :: !deltas));
        Holistic.analyze ~config scenario)
  in
  (report, List.rev !deltas)

let same_report what (a : Holistic.report) (b : Holistic.report) =
  Alcotest.(check string) (what ^ ": frame csv")
    (Analysis.Report_io.frame_csv a) (Analysis.Report_io.frame_csv b);
  Alcotest.(check string) (what ^ ": stage csv")
    (Analysis.Report_io.stage_csv a) (Analysis.Report_io.stage_csv b);
  Alcotest.(check string) (what ^ ": verdict")
    (Format.asprintf "%a" Holistic.pp_verdict a.Holistic.verdict)
    (Format.asprintf "%a" Holistic.pp_verdict b.Holistic.verdict);
  Alcotest.(check bool) (what ^ ": verdict failures") true
    (a.Holistic.verdict = b.Holistic.verdict);
  Alcotest.(check int) (what ^ ": rounds") a.Holistic.rounds b.Holistic.rounds

(* ------------------------------------------------------------------ *)
(* No-reuse oracle over generated scenarios                           *)
(* ------------------------------------------------------------------ *)

(* Rings are the family whose stage graph has cycles. *)
let families =
  [
    Gen_spec.Mesh { rows = 5; cols = 5; planes = 1 };
    Gen_spec.Fat_tree { k = 4 };
    Gen_spec.Ring_of_rings { rings = 4; ring_size = 4 };
    Gen_spec.Ring_of_rings { rings = 6; ring_size = 8 };
  ]

let modes =
  [
    ("repaired", Analysis.Config.default);
    ("faithful", Analysis.Config.faithful);
    ("tight", Analysis.Config.tight);
    (* Busy periods that need more iterations fail: failure verdicts. *)
    ("capped", { Analysis.Config.default with max_busy_iters = 4 });
  ]

(* A utilization ceiling near 1 lets the generator place flows whose
   contended bounds miss deadlines or whose busy periods diverge. *)
let case_gen =
  QCheck.Gen.(
    pair
      (quad (oneofl families) (int_range 20 200) (int_bound 9_999)
         (oneofl modes))
      (oneofl [ 0.7; 0.98 ]))

let print_case ((family, flows, seed, (mode, _)), max_util) =
  Printf.sprintf "%s -n %d --seed %d --max-util %g (%s)"
    (Gen_spec.family_to_string family)
    flows seed max_util mode

let matches_oracle ((family, flows, seed, (_, config)), max_util) =
  let spec =
    { Gen_spec.default with Gen_spec.family; flows; seed; max_util }
  in
  let scenario =
    (Gmf_topogen.Topogen.generate spec).Gmf_topogen.Topogen.scenario
  in
  let report, deltas = observed ~config scenario in
  let expected, expected_deltas = oracle ~config scenario in
  same_report "analyze vs oracle" expected report;
  Alcotest.(check (list (list (pair int int))))
    "per-round flow deltas" expected_deltas deltas;
  true

let prop_matches_oracle =
  QCheck.Test.make ~name:"holistic == no-reuse round-robin oracle" ~count:12
    (QCheck.make ~print:print_case case_gen)
    matches_oracle

(* Every family in every mode, whatever the random draws cover. *)
let test_matrix () =
  List.iteri
    (fun i family ->
      List.iter
        (fun mode ->
          List.iter
            (fun max_util ->
              ignore (matches_oracle ((family, 60, 100 + i, mode), max_util)))
            [ 0.7; 0.98 ])
        modes)
    families

(* ------------------------------------------------------------------ *)
(* A reused context drops the evaluations of the jitters it held      *)
(* ------------------------------------------------------------------ *)

let test_rerun_drops_nodes () =
  let spec =
    {
      Gen_spec.default with
      Gen_spec.family = Gen_spec.Ring_of_rings { rings = 6; ring_size = 8 };
      flows = 60;
      seed = 103;
    }
  in
  let scenario =
    (Gmf_topogen.Topogen.generate spec).Gmf_topogen.Topogen.scenario
  in
  let used = Ctx.create scenario in
  let cold = Holistic.run used in
  Alcotest.(check bool) "cold run takes several rounds" true
    (cold.Holistic.rounds > 2);
  let fixpoint = cold.Holistic.results in
  let half =
    List.filter
      (fun (r : Analysis.Result_types.flow_result) ->
        r.Analysis.Result_types.flow.Traffic.Flow.id mod 2 = 0)
      fixpoint
  in
  List.iter
    (fun (what, init) ->
      let warm = Holistic.run_from used ~init in
      let fresh = Holistic.run_from (Ctx.create scenario) ~init in
      same_report what fresh warm)
    [
      ("from source jitters", []);
      ("from half the fixpoint", half);
      ("from the fixpoint", fixpoint);
    ]

(* ------------------------------------------------------------------ *)
(* A round is quiet only when no jitter moved                         *)
(* ------------------------------------------------------------------ *)

(* Round 2 moves some of f0's jitters but none of its extras, which its
   jitter-heavy frames set: the round is not quiet, and a third one
   confirms the fixed point.  A quiet test that looked at the extras
   alone would stop after two rounds. *)
let quiet_case =
  "node sa switch\nnode sb switch\nnode sc switch\n\
   node h0 endhost\nnode h1 endhost\nnode h2 endhost\n\
   node h5 endhost\n\
   duplex h0 sa rate=10M\nduplex h1 sa rate=10M\nduplex h2 sb rate=10M\n\
   duplex h5 sc rate=10M\nduplex sa sb rate=10M\nduplex sb sc rate=10M\n\
   switch sa ports=4 cpus=1 croute=2.7us csend=1us\n\
   switch sb ports=4 cpus=1 croute=2.7us csend=1us\n\
   switch sc ports=4 cpus=1 croute=2.7us csend=1us\n\
   flow f0 from=h5 to=h0 prio=3 encap=udp\n\
  \  frame period=7ms deadline=500ms jitter=0us payload=10862B\n\
  \  frame period=8ms deadline=500ms jitter=16981us payload=10834B\n\
  \  frame period=16ms deadline=500ms jitter=6501us payload=8450B\n\
  \  frame period=19ms deadline=500ms jitter=0us payload=130B\n\
   end\n\
   flow f1 from=h2 to=h1 prio=4 encap=udp\n\
  \  frame period=30ms deadline=500ms jitter=4238us payload=8718B\n\
   end\n"

let test_quiet_round_needs_still_jitters () =
  let scenario =
    match Scenario_io.Parse.scenario_of_string quiet_case with
    | Ok s -> s
    | Error e -> Alcotest.failf "%a" Scenario_io.Parse.pp_error e
  in
  let report, deltas = observed ~config:Analysis.Config.default scenario in
  let expected, expected_deltas = oracle scenario in
  same_report "analyze vs oracle" expected report;
  Alcotest.(check (list (list (pair int int))))
    "per-round flow deltas" expected_deltas deltas;
  Alcotest.(check int) "three rounds" 3 report.Holistic.rounds;
  Alcotest.(check bool) "round 2 moves f0" true
    (List.assoc 0 (List.nth deltas 1) > 0)

(* ------------------------------------------------------------------ *)
(* The report is the warm-start seed                                  *)
(* ------------------------------------------------------------------ *)

let seed_modes =
  [
    ("repaired", Analysis.Config.default);
    ("faithful", Analysis.Config.faithful);
    ("tight", Analysis.Config.tight);
    (* Stops most multi-round runs early: No_fixed_point verdicts. *)
    ("2 rounds", { Analysis.Config.default with max_holistic_rounds = 2 });
  ]

let seed_families =
  [
    Gen_spec.Mesh { rows = 5; cols = 5; planes = 1 };
    Gen_spec.Fat_tree { k = 4 };
    Gen_spec.Ring_of_rings { rings = 4; ring_size = 4 };
  ]

(* A context seeded from a run's report holds exactly the jitters the
   run left, for converged and round-capped runs alike; and a warm start
   from a converged report takes one round and reproduces it. *)
let seed_rebuilds_run ((family, flows, seed, (mode, config)), max_util) =
  let spec =
    { Gen_spec.default with Gen_spec.family; flows; seed; max_util }
  in
  let scenario =
    (Gmf_topogen.Topogen.generate spec).Gmf_topogen.Topogen.scenario
  in
  let slots = slots scenario in
  let ran = Ctx.create ~config scenario in
  let report = Holistic.run ran in
  let what = Printf.sprintf "%s, %d rounds" mode report.Holistic.rounds in
  (match report.Holistic.verdict with
  | Holistic.Analysis_failed _ -> ()
  | Holistic.Schedulable | Holistic.Deadline_miss _ | Holistic.No_fixed_point _
    ->
      let seeded = Ctx.create ~config scenario in
      Analysis.Pipeline.seed seeded report.Holistic.results;
      Alcotest.(check (list int))
        (what ^ ": seeded jitters == the run's")
        (read_jitters ran slots) (read_jitters seeded slots));
  if Holistic.converged report.Holistic.verdict then begin
    let warm =
      Holistic.run_from (Ctx.create ~config scenario)
        ~init:report.Holistic.results
    in
    Alcotest.(check int) (what ^ ": warm start from the report") 1
      warm.Holistic.rounds;
    same_report what { report with Holistic.rounds = 1 } warm
  end;
  true

let prop_seed_rebuilds_run =
  QCheck.Test.make ~name:"seeding from the report == the run's jitters"
    ~count:16
    (QCheck.make ~print:print_case
       QCheck.Gen.(
         pair
           (quad (oneofl seed_families) (int_range 20 120) (int_bound 9_999)
              (oneofl seed_modes))
           (oneofl [ 0.7; 0.98 ])))
    seed_rebuilds_run

let test_seed_matrix () =
  List.iteri
    (fun i family ->
      List.iter
        (fun mode ->
          ignore (seed_rebuilds_run ((family, 80, 200 + i, mode), 0.98)))
        seed_modes)
    seed_families

let tests =
  [
    QCheck_alcotest.to_alcotest prop_matches_oracle;
    Alcotest.test_case "oracle matrix: family x mode" `Quick test_matrix;
    Alcotest.test_case "run then run_from == fresh run_from" `Quick
      test_rerun_drops_nodes;
    Alcotest.test_case "quiet round needs still jitters" `Quick
      test_quiet_round_needs_still_jitters;
    QCheck_alcotest.to_alcotest prop_seed_rebuilds_run;
    Alcotest.test_case "seed matrix: family x mode" `Quick test_seed_matrix;
  ]
