(* Delta fixpoint engine: incremental re-analysis must be observationally
   identical to a cold run — same schedulability, same per-frame bounds,
   identical survive matrices — while provably-untouched flows are never
   recomputed (their result records are carried over physically). *)

open Gmf_util
module Delta = Analysis.Delta
module Survive = Gmf_faults.Survive
module Session = Gmf_admctl.Session
module Replay = Gmf_admctl.Replay

let bounds_of (report : Analysis.Holistic.report) =
  List.map
    (fun res ->
      ( res.Analysis.Result_types.flow.Traffic.Flow.id,
        Array.map
          (fun fr -> fr.Analysis.Result_types.total)
          res.Analysis.Result_types.frames ))
    report.Analysis.Holistic.results

let schedulable_of v =
  match v with Analysis.Holistic.Schedulable -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Directed: untouched flows are carried over, not recomputed          *)
(* ------------------------------------------------------------------ *)

(* Two host clusters on a two-switch line; the clusters' flows stay
   inside their own switch, so editing one cluster must leave the
   other's results physically intact. *)
let two_cluster_scenario () =
  let topo, hosts, _sw =
    Workload.Topologies.line ~hosts_per_switch:3 ~switches:2 ()
  in
  let rng = Rng.create ~seed:7 in
  let pairs =
    [
      (hosts.(0).(0), hosts.(0).(1));
      (hosts.(0).(1), hosts.(0).(2));
      (hosts.(1).(0), hosts.(1).(1));
    ]
  in
  let flows = Workload.Random_gen.flows_between rng ~topo ~pairs () in
  Traffic.Scenario.make ~topo ~flows ()

let drop_flow scenario id =
  let switches =
    List.map
      (fun n -> (n, Traffic.Scenario.switch_model scenario n))
      (Traffic.Scenario.switch_nodes scenario)
  in
  Traffic.Scenario.make ~switches ~topo:(Traffic.Scenario.topo scenario)
    ~flows:
      (List.filter
         (fun (f : Traffic.Flow.t) -> f.Traffic.Flow.id <> id)
         (Traffic.Scenario.flows scenario))
    ()

let result_of (report : Analysis.Holistic.report) id =
  List.find
    (fun r -> r.Analysis.Result_types.flow.Traffic.Flow.id = id)
    report.Analysis.Holistic.results

let test_untouched_carried_over () =
  let scenario = two_cluster_scenario () in
  let base = Delta.compute_base scenario in
  Alcotest.(check bool) "base converged" true (Delta.base_ok base);
  (* Remove flow 0 (first cluster): flow 1 shares its cluster, flow 2
     lives on the other switch. *)
  let target = drop_flow scenario 0 in
  let d = Delta.analyze base { Delta.removed = [ 0 ]; put = [] } in
  Alcotest.(check bool) "flow 2 certified untouched" true
    (List.mem 2 d.Delta.d_untouched);
  Alcotest.(check bool) "flow 1 not certified" false
    (List.mem 1 d.Delta.d_untouched);
  Alcotest.(check bool) "untouched result record carried over physically"
    true
    (result_of (Delta.base_report base) 2 == result_of d.Delta.d_report 2);
  Alcotest.(check int) "stats closure" 1 d.Delta.d_stats.Delta.closure_flows;
  Alcotest.(check int) "stats skipped" 1 d.Delta.d_stats.Delta.skipped_flows;
  Alcotest.(check bool) "no fallback" false
    d.Delta.d_stats.Delta.cold_fallback;
  (* The merged report equals a cold analysis of the target. *)
  let cold = Analysis.Holistic.analyze target in
  Alcotest.(check bool) "bounds equal cold" true
    (bounds_of cold = bounds_of d.Delta.d_report);
  Alcotest.(check bool) "verdict class equals cold" true
    (schedulable_of cold.Analysis.Holistic.verdict
    = schedulable_of d.Delta.d_report.Analysis.Holistic.verdict)

let test_identity_edit_free () =
  let scenario = two_cluster_scenario () in
  let base = Delta.compute_base scenario in
  let d = Delta.analyze base { Delta.removed = []; put = [] } in
  Alcotest.(check int) "no closure" 0 d.Delta.d_stats.Delta.closure_flows;
  Alcotest.(check int) "no rounds" 0 d.Delta.d_stats.Delta.rounds;
  Alcotest.(check int) "everything untouched" 3
    (List.length d.Delta.d_untouched);
  Alcotest.(check bool) "report reused" true
    (Delta.base_report base == d.Delta.d_report)

(* At 2 Mb/s the fig1 base does not converge: an edit against it
   certifies nothing and analyzes the whole target cold. *)
let test_non_converged_base_falls_back () =
  let scenario = Workload.Scenarios.fig1_videoconf ~rate_bps:2_000_000 () in
  let base = Delta.compute_base scenario in
  Alcotest.(check bool) "base not converged" false (Delta.base_ok base);
  let victim = List.hd (Traffic.Scenario.flows scenario) in
  let edit = { Delta.removed = [ victim.Traffic.Flow.id ]; put = [] } in
  let d = Delta.analyze base edit in
  Alcotest.(check bool) "cold fallback" true
    d.Delta.d_stats.Delta.cold_fallback;
  Alcotest.(check bool) "nothing certified" true (d.Delta.d_untouched = []);
  let cold =
    Analysis.Holistic.analyze (drop_flow scenario victim.Traffic.Flow.id)
  in
  Alcotest.(check string) "fallback verdict equals cold"
    (Analysis.Holistic.verdict_tag cold.Analysis.Holistic.verdict)
    (Analysis.Holistic.verdict_tag d.Delta.d_report.Analysis.Holistic.verdict);
  Alcotest.(check bool) "fallback bounds equal cold" true
    (bounds_of cold = bounds_of d.Delta.d_report)

(* A name clash crosses interference components: renaming flow rnd0 of
   the 6x6 tile mesh to rnd107, a flow of another tile, leaves the
   closure at rnd0's tile, yet the target must be rejected exactly as a
   full lint pass rejects it. *)
let test_lint_gate_duplicate_name_across_components () =
  let scenario, _ = Test_gates.tile_mesh ~rows:6 ~cols:6 in
  let rnd0 =
    List.find
      (fun (f : Traffic.Flow.t) -> f.Traffic.Flow.name = "rnd0")
      (Traffic.Scenario.flows scenario)
  in
  let renamed =
    Traffic.Flow.make ~id:rnd0.Traffic.Flow.id ~name:"rnd107"
      ~spec:rnd0.Traffic.Flow.spec ~encap:rnd0.Traffic.Flow.encap
      ~route:rnd0.Traffic.Flow.route ~priority:rnd0.Traffic.Flow.priority
  in
  let edit = { Delta.removed = []; put = [ renamed ] } in
  let base = Delta.compute_base scenario in
  let target = Delta.target base edit in
  let full = Gmf_lint.Lint.errors (Gmf_lint.Lint.run target) in
  Alcotest.(check (list string)) "full pass: one GMF001" [ "GMF001" ]
    (List.map (fun d -> d.Gmf_diag.code) full);
  let d = Delta.analyze ~lint:true base edit in
  Alcotest.(check int) "closure is rnd0's tile" 6
    d.Delta.d_stats.Delta.closure_flows;
  Alcotest.(check int) "over the whole mesh" 108
    d.Delta.d_stats.Delta.total_flows;
  match d.Delta.d_report.Analysis.Holistic.verdict with
  | Analysis.Holistic.Analysis_failed _ ->
      Alcotest.(check string) "rejected as the full pass rejects"
        (Format.asprintf "%a" Analysis.Holistic.pp_verdict
           (Analysis.Admission.rejected full).Analysis.Holistic.verdict)
        (Format.asprintf "%a" Analysis.Holistic.pp_verdict
           d.Delta.d_report.Analysis.Holistic.verdict)
  | v ->
      Alcotest.failf "expected a lint rejection, got %a"
        Analysis.Holistic.pp_verdict v

(* ------------------------------------------------------------------ *)
(* Survive sweeps: delta engine vs the cold test oracle                *)
(* ------------------------------------------------------------------ *)

let fates_key (c : Survive.case_result) =
  List.map
    (fun ((f : Traffic.Flow.t), fate) -> (f.Traffic.Flow.id, fate))
    c.Survive.fates

(* [fail] so the same comparison serves Alcotest and QCheck callers. *)
let check_sweeps_agree ~what ~fail (d : Survive.report) (c : Survive.report) =
  if List.length d.Survive.cases <> List.length c.Survive.cases then
    fail (Printf.sprintf "%s: case counts differ" what);
  List.iteri
    (fun i ((dc : Survive.case_result), (cc : Survive.case_result)) ->
      if dc.Survive.case <> cc.Survive.case then
        fail (Printf.sprintf "%s: case order differs at #%d" what i);
      if schedulable_of dc.Survive.verdict <> schedulable_of cc.Survive.verdict
      then fail (Printf.sprintf "%s: schedulability differs at #%d" what i);
      if fates_key dc <> fates_key cc then
        fail (Printf.sprintf "%s: fates differ at #%d" what i))
    (List.combine d.Survive.cases c.Survive.cases);
  (* Matrix and shed set are functions of the fates, but compare them
     directly too — they are what the golden files render. *)
  let matrix_key (r : Survive.report) =
    List.map
      (fun ((f : Traffic.Flow.t), v) -> (f.Traffic.Flow.id, v))
      r.Survive.matrix
  in
  let shed_key (r : Survive.report) =
    List.map (fun (f : Traffic.Flow.t) -> f.Traffic.Flow.id) r.Survive.shed_set
  in
  if matrix_key d <> matrix_key c then
    fail (Printf.sprintf "%s: matrices differ" what);
  if shed_key d <> shed_key c then
    fail (Printf.sprintf "%s: shed sets differ" what)

(* A redundant topogen fabric — mesh, fat-tree or ring of rings — with
   20 to 80 flows loaded up to 85% per resource: fabric failures
   reroute flows onto already busy links instead of only shedding. *)
let gen_fabric rng =
  let open Gmf_topogen.Gen_spec in
  let family =
    match Rng.int rng 3 with
    | 0 -> Mesh { rows = 3; cols = 3; planes = 1 }
    | 1 -> Fat_tree { k = 4 }
    | _ -> Ring_of_rings { rings = 3; ring_size = 3 }
  in
  let spec =
    {
      default with
      family;
      hosts_per_switch = 2;
      flows = 20 + Rng.int rng 61;
      max_util = 0.85;
      seed = Rng.int rng 1_000_000;
    }
  in
  (Gmf_topogen.Topogen.generate spec).Gmf_topogen.Topogen.scenario

(* Rename the first flow of the shed order after another flow.
   Duplicate names (GMF001) are an error only the lint gate sees — the
   analysis ignores names — so every attempt that keeps the renamed flow
   fails lint and sheds it first: a sweep that skipped the gate, or shed
   in another order, settles on different fates.  Renaming the first
   victim keeps the oracle's extra attempts to one per case. *)
let with_duplicate_name rng scenario =
  match Traffic.Scenario.flows scenario with
  | [] | [ _ ] -> scenario
  | flows ->
      let victim = List.hd (Survive.shed_order flows) in
      let others =
        List.filter
          (fun (f : Traffic.Flow.t) ->
            f.Traffic.Flow.id <> victim.Traffic.Flow.id)
          flows
      in
      let name =
        (List.nth others (Rng.int rng (List.length others))).Traffic.Flow.name
      in
      let switches =
        List.map
          (fun s -> (s, Traffic.Scenario.switch_model scenario s))
          (Traffic.Scenario.switch_nodes scenario)
      in
      Traffic.Scenario.make ~switches ~topo:(Traffic.Scenario.topo scenario)
        ~flows:
          (List.map
             (fun (f : Traffic.Flow.t) ->
               if f != victim then f
               else
                 Traffic.Flow.make ~id:f.Traffic.Flow.id ~name
                   ~spec:f.Traffic.Flow.spec ~encap:f.Traffic.Flow.encap
                   ~route:f.Traffic.Flow.route
                   ~priority:f.Traffic.Flow.priority)
             flows)
        ()

(* ------------------------------------------------------------------ *)
(* Edits: delta == cold analysis of the materialized target            *)
(* ------------------------------------------------------------------ *)

(* The closure as a union-find over the union of the base flows and the
   put records defines it: the target ids in a node-sharing component
   that holds a seed (an old or new version of an edited flow). *)
let union_find_closure scenario (edit : Delta.edit) target =
  let seeds =
    edit.Delta.removed
    @ List.map (fun (f : Traffic.Flow.t) -> f.Traffic.Flow.id) edit.Delta.put
  in
  let closure =
    List.concat_map
      (fun group ->
        let ids =
          List.map (fun (f : Traffic.Flow.t) -> f.Traffic.Flow.id) group
        in
        if List.exists (fun id -> List.mem id seeds) ids then ids else [])
      (List.map
         (fun (c : Gmf_precheck.Igraph.component) ->
           c.Gmf_precheck.Igraph.members)
         (Gmf_precheck.Igraph.components
            (Gmf_precheck.Igraph.build
               (Traffic.Scenario.flows scenario @ edit.Delta.put))))
  in
  List.filter_map
    (fun (f : Traffic.Flow.t) ->
      if List.mem f.Traffic.Flow.id closure then Some f.Traffic.Flow.id
      else None)
    (Traffic.Scenario.flows target)

let prop_edit_equals_cold =
  QCheck.Test.make ~name:"edit delta == cold analysis of the target"
    ~count:20
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let scenario = gen_fabric rng in
      let config =
        if Rng.int rng 2 = 0 then Analysis.Config.default
        else Analysis.Config.faithful
      in
      let base = Delta.compute_base ~config scenario in
      let edit = Test_precheck.random_edit rng scenario in
      let target = Test_precheck.materialize scenario edit in
      let cold = Analysis.Holistic.analyze ~config target in
      let d = Delta.analyze base edit in
      let report = d.Delta.d_report in
      if report.Analysis.Holistic.verdict <> cold.Analysis.Holistic.verdict
      then
        QCheck.Test.fail_reportf "verdicts differ: %a vs cold %a"
          Analysis.Holistic.pp_verdict report.Analysis.Holistic.verdict
          Analysis.Holistic.pp_verdict cold.Analysis.Holistic.verdict;
      if
        Analysis.Holistic.converged cold.Analysis.Holistic.verdict
        && bounds_of report <> bounds_of cold
      then QCheck.Test.fail_report "bounds differ from the cold analysis";
      (if not d.Delta.d_stats.Delta.cold_fallback then
         let closure =
           List.filter_map
             (fun (f : Traffic.Flow.t) ->
               if List.mem f.Traffic.Flow.id d.Delta.d_untouched then None
               else Some f.Traffic.Flow.id)
             (Traffic.Scenario.flows target)
         in
         if closure <> union_find_closure scenario edit target then
           QCheck.Test.fail_report "closure differs from the union-find one");
      (* The gate: a lint rejection exactly when the whole target's error
         gate rejects, with the same errors. *)
      let expected =
        match Gmf_lint.Lint.gate ~config target with
        | [] -> cold.Analysis.Holistic.verdict
        | errors ->
            (Analysis.Admission.rejected errors).Analysis.Holistic.verdict
      in
      let gated = (Delta.analyze ~lint:true base edit).Delta.d_report in
      if gated.Analysis.Holistic.verdict <> expected then
        QCheck.Test.fail_reportf "gated verdict %a, expected %a"
          Analysis.Holistic.pp_verdict gated.Analysis.Holistic.verdict
          Analysis.Holistic.pp_verdict expected;
      true)

let prop_survive_delta_equals_cold =
  QCheck.Test.make ~name:"survive delta == cold on random scenarios"
    ~count:15
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let scenario =
        if Rng.int rng 2 = 0 then Test_precheck.gen_scenario rng
        else gen_fabric rng
      in
      let scenario =
        if Rng.int rng 2 = 0 then with_duplicate_name rng scenario
        else scenario
      in
      let d = Survive.run ~k:1 scenario in
      let c = Survive_oracle.run ~k:1 scenario in
      check_sweeps_agree ~what:"k=1"
        ~fail:(fun msg -> QCheck.Test.fail_report msg)
        d c;
      true)

(* Pairs of failures over a random domain of at most 6 components,
   switches included: a case can fail a switch and a link its reroutes
   need, or two links of one detour. *)
let prop_survive_delta_equals_cold_k2 =
  QCheck.Test.make ~name:"k=2 sweeps on random domains: delta == cold"
    ~count:4
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let scenario =
        if Rng.int rng 2 = 0 then Test_precheck.gen_scenario rng
        else gen_fabric rng
      in
      let comps = Survive.components scenario in
      let switches, links =
        List.partition
          (function Survive.Switch _ -> true | Survive.Link _ -> false)
          comps
      in
      (* Up to 2 switches and 4 links, drawn without replacement, kept in
         component order. *)
      let pick n pool =
        let keyed = List.map (fun c -> (Rng.int rng 1_000_000, c)) pool in
        List.filteri (fun i _ -> i < n)
          (List.map snd (List.sort (fun (a, _) (b, _) -> compare a b) keyed))
      in
      let chosen = pick 2 switches @ pick 4 links in
      let domain = List.filter (fun c -> List.mem c chosen) comps in
      let d = Survive.run ~k:2 ~domain scenario in
      let c = Survive_oracle.run ~k:2 ~domain scenario in
      check_sweeps_agree ~what:"k=2"
        ~fail:(fun msg -> QCheck.Test.fail_report msg)
        d c;
      true)

let test_survive_delta_equals_cold_k2 () =
  let scenario = Workload.Scenarios.fig1_videoconf () in
  let d = Survive.run ~k:2 scenario in
  let c = Survive_oracle.run ~k:2 scenario in
  check_sweeps_agree ~what:"k=2" ~fail:Alcotest.fail d c;
  match d.Survive.delta_totals with
  | Some totals ->
      Alcotest.(check bool) "delta certified untouched flows" true
        (totals.Survive.d_skipped > 0)
  | None -> Alcotest.fail "delta_totals: expected Some on a converged base"

(* ------------------------------------------------------------------ *)
(* Admission churn: delta-driven session vs cold shadow                *)
(* ------------------------------------------------------------------ *)

let prop_churn_delta_sound =
  QCheck.Test.make ~name:"delta session == cold shadow on admtrace churn"
    ~count:25
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let text = Test_admctl.gen_trace_text rng in
      let trace = Test_admctl.trace_of_string text in
      let { Replay.outcomes; session } = Replay.run ~shadow:true trace in
      (* Every remove/update/fail now routes through Analysis.Delta; the
         cold shadow is the soundness oracle. *)
      List.iter
        (fun (o : Session.outcome) ->
          match o.Session.shadow with
          | Some { Session.equivalent = false; cold_rounds } ->
              QCheck.Test.fail_reportf
                "event #%d (%s): delta disagrees with cold shadow (%d \
                 rounds)@\n\
                 %s"
                o.Session.seq o.Session.label cold_rounds text
          | _ -> ())
        outcomes;
      (* The committed state doubles as a valid delta base: re-analyzing
         the committed set against itself is free and exact. *)
      (match Session.flows session with
      | [] -> ()
      | flows ->
          let scenario =
            Traffic.Scenario.make
              ~switches:trace.Scenario_io.Admtrace.switches
              ~topo:trace.Scenario_io.Admtrace.topo ~flows ()
          in
          let base = Delta.compute_base scenario in
          if Delta.base_ok base then begin
            let d = Delta.analyze base { Delta.removed = []; put = [] } in
            if d.Delta.d_stats.Delta.rounds <> 0 then
              QCheck.Test.fail_reportf "identity edit burned rounds@\n%s"
                text;
            if
              bounds_of (Session.report session) <> bounds_of d.Delta.d_report
            then
              QCheck.Test.fail_reportf
                "committed bounds differ from a fresh base@\n%s" text
          end);
      true)

(* ------------------------------------------------------------------ *)
(* Enumeration order and shed-order determinism                        *)
(* ------------------------------------------------------------------ *)

let rec binom n t =
  if t < 0 || t > n then 0
  else if t = 0 || t = n then 1
  else binom (n - 1) (t - 1) + binom (n - 1) t

let component_key c =
  match c with
  | Survive.Link (a, b) -> Printf.sprintf "L%d-%d" a b
  | Survive.Switch n -> Printf.sprintf "S%d" n

let test_gray_code_walk () =
  let comps = List.init 6 (fun i -> Survive.Link (i, i + 100)) in
  let sym_diff a b =
    List.length (List.filter (fun x -> not (List.mem x b)) a)
    + List.length (List.filter (fun x -> not (List.mem x a)) b)
  in
  List.iter
    (fun k ->
      let cases = Survive.failure_cases ~k comps in
      let expected =
        List.fold_left ( + ) 0 (List.init k (fun t -> binom 6 (t + 1)))
      in
      Alcotest.(check int)
        (Printf.sprintf "k=%d case count" k)
        expected (List.length cases);
      (* Unique, sizes ascending, and revolving-door adjacency: two
         consecutive same-size cases swap exactly one component. *)
      let seen = Hashtbl.create 64 in
      List.iter
        (fun case ->
          let key = String.concat "+" (List.map component_key case) in
          if Hashtbl.mem seen key then
            Alcotest.failf "k=%d: duplicate case %s" k key;
          Hashtbl.replace seen key ())
        cases;
      ignore
        (List.fold_left
           (fun prev case ->
             (match prev with
             | Some p when List.length p = List.length case ->
                 Alcotest.(check int)
                   (Printf.sprintf "k=%d adjacent swap" k)
                   2 (sym_diff p case)
             | Some p ->
                 Alcotest.(check bool)
                   (Printf.sprintf "k=%d sizes ascend" k)
                   true
                   (List.length p < List.length case)
             | None -> ());
             Some case)
           None cases))
    [ 1; 2; 3; 4 ];
  (* The size-1 class is the component list itself — k=1 sweeps (and
     their goldens) are order-stable under the Gray walk. *)
  Alcotest.(check bool) "k=1 order is the component order" true
    (Survive.failure_cases ~k:1 comps = List.map (fun c -> [ c ]) comps)

let test_shed_order_permutation_invariant () =
  let scenario = Workload.Scenarios.fig1_videoconf () in
  (* Force priority ties so the id tie-break actually decides. *)
  let flows =
    List.map
      (fun (f : Traffic.Flow.t) ->
        Traffic.Flow.make ~id:f.Traffic.Flow.id ~name:f.Traffic.Flow.name
          ~spec:f.Traffic.Flow.spec ~encap:f.Traffic.Flow.encap
          ~route:f.Traffic.Flow.route
          ~priority:(f.Traffic.Flow.id mod 2))
      (Traffic.Scenario.flows scenario)
  in
  let expected = Survive.shed_order flows in
  let rng = Rng.create ~seed:11 in
  for _ = 1 to 10 do
    (* Deterministic shuffle: sort by a fresh random key each round. *)
    let keyed = List.map (fun f -> (Rng.int rng 1_000_000, f)) flows in
    let shuffled =
      List.map snd (List.sort (fun (a, _) (b, _) -> compare a b) keyed)
    in
    Alcotest.(check bool) "same victims in the same order" true
      (Survive.shed_order shuffled = expected)
  done

let tests =
  [
    Alcotest.test_case "untouched flows carried over" `Quick
      test_untouched_carried_over;
    Alcotest.test_case "identity edit is free" `Quick test_identity_edit_free;
    Alcotest.test_case "non-converged base falls back cold" `Quick
      test_non_converged_base_falls_back;
    Alcotest.test_case "lint gate: duplicate name across components" `Quick
      test_lint_gate_duplicate_name_across_components;
    Alcotest.test_case "survive delta == cold at k=2 (fig1)" `Quick
      test_survive_delta_equals_cold_k2;
    Alcotest.test_case "gray-code failure walk" `Quick test_gray_code_walk;
    Alcotest.test_case "shed order permutation-invariant" `Quick
      test_shed_order_permutation_invariant;
    QCheck_alcotest.to_alcotest prop_survive_delta_equals_cold;
    QCheck_alcotest.to_alcotest prop_survive_delta_equals_cold_k2;
    QCheck_alcotest.to_alcotest prop_edit_equals_cold;
    QCheck_alcotest.to_alcotest prop_churn_delta_sound;
  ]
