(* Stage-evaluation reuse inside the holistic round is exact: the analysis
   equals a round-robin that builds a fresh context for every flow of
   every round (so it can reuse nothing) in bounds, verdict, rounds and
   per-round convergence record, and a context reused across runs drops
   the evaluations of the state it was built on. *)

module Ctx = Analysis.Ctx
module Holistic = Analysis.Holistic
module Jitter_state = Analysis.Jitter_state
module Gen_spec = Gmf_topogen.Gen_spec

(* The holistic iteration with nothing to reuse: each flow is analyzed on
   a fresh context restored from the jitter state the previous flow left
   behind. *)
let oracle ?(config = Analysis.Config.default) scenario =
  let flows = Traffic.Scenario.flows scenario in
  let fresh state =
    let ctx = Ctx.create ~config scenario in
    Ctx.restore ctx state;
    ctx
  in
  let round state =
    List.fold_left
      (fun (state, results, failures) flow ->
        let ctx = fresh state in
        let outcome = Analysis.Pipeline.analyze_flow ctx ~flow in
        let state = Ctx.snapshot ctx in
        match outcome with
        | Ok res -> (state, res :: results, failures)
        | Error f -> (state, results, f :: failures))
      (state, [], []) flows
  in
  let rec go n state deltas =
    let after, results, failures = round state in
    let results = List.rev results and failures = List.rev failures in
    let deltas = Jitter_state.flow_deltas state after :: deltas in
    let report verdict = ({ Holistic.verdict; rounds = n; results }, deltas) in
    if failures <> [] then report (Holistic.Analysis_failed failures)
    else if Jitter_state.equal state after then
      match Holistic.deadline_misses results with
      | [] -> report Holistic.Schedulable
      | misses -> report (Holistic.Deadline_miss misses)
    else if n >= config.Analysis.Config.max_holistic_rounds then
      report (Holistic.No_fixed_point n)
    else go (n + 1) after deltas
  in
  let report, deltas = go 1 (Ctx.snapshot (Ctx.create ~config scenario)) [] in
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
(* A reused context drops the nodes of the state it replaces          *)
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
  let fixpoint = Ctx.snapshot used in
  let half =
    Jitter_state.filter_flows fixpoint ~keep:(fun id -> id mod 2 = 0)
  in
  List.iter
    (fun (what, init) ->
      let warm = Holistic.run_from used ~init in
      let fresh = Holistic.run_from (Ctx.create scenario) ~init in
      same_report what fresh warm)
    [
      ("from source jitters", Jitter_state.create ());
      ("from half the fixpoint", half);
      ("from the fixpoint", fixpoint);
    ]

let tests =
  [
    QCheck_alcotest.to_alcotest prop_matches_oracle;
    Alcotest.test_case "oracle matrix: family x mode" `Quick test_matrix;
    Alcotest.test_case "run then run_from == fresh run_from" `Quick
      test_rerun_drops_nodes;
  ]
