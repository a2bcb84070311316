(* Golden tests for Gmf_lint: one scenario per diagnostic code, the JSON
   round-trip, and the admission gate that must reject lint errors without
   entering the holistic fixpoint. *)

let parse text =
  match Scenario_io.Parse.scenario_of_string text with
  | Ok s -> s
  | Error e ->
      Alcotest.failf "test scenario does not parse: %a"
        Scenario_io.Parse.pp_error e

let lint ?config text =
  (Gmf_lint.Lint.run ?config (parse text)).Gmf_lint.Lint.diagnostics

let codes ds =
  List.sort_uniq compare (List.map (fun d -> d.Gmf_diag.code) ds)

let find_code code ds = List.find_opt (fun d -> d.Gmf_diag.code = code) ds

let check_fires ?config ~code ~severity text =
  let ds = lint ?config text in
  match find_code code ds with
  | None ->
      Alcotest.failf "expected %s, got {%s}" code
        (String.concat ", " (codes ds))
  | Some d ->
      Alcotest.(check string)
        (code ^ " severity")
        (Gmf_diag.severity_to_string severity)
        (Gmf_diag.severity_to_string d.Gmf_diag.severity);
      (* every emitted code must exist in the rule catalog, at the
         catalog's default severity *)
      (match Gmf_lint.Rules.find code with
      | None -> Alcotest.failf "%s missing from Rules.catalog" code
      | Some _ -> ())

let clean =
  "node a endhost\nnode b endhost\nlink a b rate=100M\n\
   flow f from=a to=b\n  frame period=1ms deadline=1ms payload=100B\nend"

let frame1 = "  frame period=1ms deadline=1ms payload=100B\n"

(* ---------------- GMF0xx: structural ---------------- *)

let test_clean_scenario () =
  let ds = lint clean in
  Alcotest.(check (list string)) "no diagnostics" [] (codes ds);
  Alcotest.(check bool) "not fatal" false
    (Gmf_lint.Lint.fatal ~deny:Gmf_diag.Hint
       (Gmf_lint.Lint.run (parse clean)))

let test_gmf001_duplicate_flow_name () =
  check_fires ~code:"GMF001" ~severity:Gmf_diag.Error
    ("node a endhost\nnode b endhost\nlink a b rate=100M\n\
      flow f from=a to=b\n" ^ frame1 ^ "end\nflow f from=a to=b\n" ^ frame1
   ^ "end")

let test_gmf002_redundant_remark () =
  check_fires ~code:"GMF002" ~severity:Gmf_diag.Hint
    ("node a endhost\nnode b endhost\nlink a b rate=100M\n\
      flow f from=a to=b prio=3 remark=a/b:3\n" ^ frame1 ^ "end")

let test_gmf003_isolated_node () =
  check_fires ~code:"GMF003" ~severity:Gmf_diag.Warning
    ("node a endhost\nnode b endhost\nnode c endhost\nlink a b rate=100M\n\
      flow f from=a to=b\n" ^ frame1 ^ "end")

let test_gmf004_unused_link () =
  check_fires ~code:"GMF004" ~severity:Gmf_diag.Hint
    ("node a endhost\nnode b endhost\nlink a b rate=100M\n\
      link b a rate=100M\nflow f from=a to=b\n" ^ frame1 ^ "end")

let test_gmf005_detour_route () =
  check_fires ~code:"GMF005" ~severity:Gmf_diag.Hint
    ("node a endhost\nnode b endhost\nnode c switch\nlink a b rate=100M\n\
      link a c rate=100M\nlink c b rate=100M\n\
      flow f from=a to=b route=a,c,b\n" ^ frame1 ^ "end")

let test_gmf006_unused_switch () =
  check_fires ~code:"GMF006" ~severity:Gmf_diag.Hint
    ("node a endhost\nnode b endhost\nnode sw switch\nlink a b rate=100M\n\
      duplex a sw rate=100M\nswitch sw\nflow f from=a to=b\n" ^ frame1 ^ "end")

(* GMF007 counts routes of up to Pathfind.max_hops links only. *)
let test_gmf007_single_route () =
  let gmf007 ds = List.filter (fun d -> d.Gmf_diag.code = "GMF007") ds in
  let fig1 = Workload.Scenarios.fig1_videoconf () in
  Alcotest.(check int) "fig1: every relayed flow has a second route" 0
    (List.length (gmf007 (Gmf_lint.Lint.run fig1).Gmf_lint.Lint.diagnostics));
  let expect_one label text =
    match gmf007 (lint text) with
    | [ d ] ->
        Alcotest.(check string) label
          "single point of failure: at most one route of up to 8 links from \
           a to b"
          d.Gmf_diag.message
    | ds -> Alcotest.failf "%s: expected one GMF007, got %d" label (List.length ds)
  in
  expect_one "line: the one route"
    ("node a endhost\nnode b endhost\nnode sw switch\n\
      duplex a sw rate=100M\nduplex sw b rate=100M\n\
      flow f from=a to=b\n" ^ frame1 ^ "end");
  (* a-s1-h-b is one link closer from s1 than a-s1-s2-b is, but the host
     h cannot relay: a-s1-s2-b stays the only route. *)
  expect_one "a host beside the route does not relay"
    ("node a endhost\nnode b endhost\nnode h endhost\nnode s1 switch\n\
      node s2 switch\nduplex a s1 rate=100M\nduplex s1 s2 rate=100M\n\
      duplex s2 b rate=100M\nduplex s1 h rate=100M\nduplex h b rate=100M\n\
      flow f from=a to=b route=a,s1,s2,b\n" ^ frame1 ^ "end");
  (* Two disjoint 9-link routes a-s0..s7-b and a-t0..t7-b: neither is
     within the bound, so the flow has at most one (none). *)
  let path p = ("a" :: List.init 8 (Printf.sprintf "%s%d" p)) @ [ "b" ] in
  let rec duplexes = function
    | x :: (y :: _ as rest) ->
        Printf.sprintf "duplex %s %s rate=100M\n" x y :: duplexes rest
    | _ -> []
  in
  let switches p =
    List.init 8 (fun i -> Printf.sprintf "node %s%d switch\n" p i)
  in
  expect_one "9-link routes lie beyond the bound"
    (String.concat ""
       (("node a endhost\nnode b endhost\n" :: switches "s")
       @ switches "t"
       @ duplexes (path "s")
       @ duplexes (path "t")
       @ [
           "flow f from=a to=b route=" ^ String.concat "," (path "s") ^ "\n";
           frame1;
           "end";
         ]))

(* GMF010-013 come from the checked constructors of Traffic.Flow: the DSL
   rejects them before a scenario exists, so exercise the API directly. *)

let mini_flow () =
  let topo = Network.Topology.create () in
  let a = Network.Topology.add_node topo ~name:"a" ~kind:Network.Node.Endhost in
  let b = Network.Topology.add_node topo ~name:"b" ~kind:Network.Node.Endhost in
  Network.Topology.add_link topo ~src:a ~dst:b ~rate_bps:100_000_000 ~prop:0;
  let spec =
    Gmf.Spec.make
      [
        Gmf.Frame_spec.make
          ~period:(Gmf_util.Timeunit.ms 1)
          ~deadline:(Gmf_util.Timeunit.ms 1) ~jitter:0 ~payload_bits:800;
      ]
  in
  let route = Network.Route.make topo [ a; b ] in
  let make priority =
    Traffic.Flow.make_checked ~id:0 ~name:"f" ~spec ~encap:Ethernet.Encap.Udp
      ~route ~priority
  in
  let make_raising priority =
    ignore
      (Traffic.Flow.make ~id:0 ~name:"f" ~spec ~encap:Ethernet.Encap.Udp
         ~route ~priority)
  in
  (make, make_raising, a, b)

let expect_diag ~code = function
  | Ok _ -> Alcotest.failf "expected Error %s, got Ok" code
  | Error d ->
      Alcotest.(check string) "code" code d.Gmf_diag.code;
      Alcotest.(check string) "severity" "error"
        (Gmf_diag.severity_to_string d.Gmf_diag.severity)

let test_gmf010_priority_range () =
  let make, make_raising, _, _ = mini_flow () in
  expect_diag ~code:"GMF010" (make 9);
  expect_diag ~code:"GMF010" (make (-1));
  (* the raising variant preserves the historical exception string *)
  Alcotest.check_raises "legacy exception"
    (Invalid_argument "Flow.make: priority outside the 802.1p range 0..7")
    (fun () -> make_raising 9)

let test_gmf011_remark_off_route () =
  let make, _, a, b = mini_flow () in
  match make 5 with
  | Error d -> Alcotest.failf "flow should build: %s" d.Gmf_diag.message
  | Ok f -> expect_diag ~code:"GMF011"
      (Traffic.Flow.with_remarks_checked f [ ((b, a), 3) ])

let test_gmf012_hop_remarked_twice () =
  let make, _, a, b = mini_flow () in
  match make 5 with
  | Error d -> Alcotest.failf "flow should build: %s" d.Gmf_diag.message
  | Ok f ->
      expect_diag ~code:"GMF012"
        (Traffic.Flow.with_remarks_checked f [ ((a, b), 3); ((a, b), 2) ]);
      (* a remark with an out-of-range priority is GMF010 again *)
      expect_diag ~code:"GMF010"
        (Traffic.Flow.with_remarks_checked f [ ((a, b), 99) ])

let test_gmf013_scale_factor () =
  let make, _, _, _ = mini_flow () in
  match make 5 with
  | Error d -> Alcotest.failf "flow should build: %s" d.Gmf_diag.message
  | Ok f ->
      expect_diag ~code:"GMF013" (Traffic.Flow.scale_payloads_checked f 0.);
      Alcotest.check_raises "legacy exception"
        (Invalid_argument "Flow.scale_payloads: non-positive factor")
        (fun () -> ignore (Traffic.Flow.scale_payloads f (-1.)))

(* ---------------- GMF1xx: model preconditions ---------------- *)

let test_gmf101_deadline_over_period () =
  check_fires ~code:"GMF101" ~severity:Gmf_diag.Hint
    "node a endhost\nnode b endhost\nlink a b rate=100M\n\
     flow f from=a to=b\n  frame period=1ms deadline=2ms payload=100B\nend"

let test_gmf102_jitter_over_period () =
  check_fires ~code:"GMF102" ~severity:Gmf_diag.Warning
    "node a endhost\nnode b endhost\nlink a b rate=100M\n\
     flow f from=a to=b\n\
    \  frame period=1ms deadline=1ms jitter=1ms payload=100B\nend"

let fragmented =
  "node a endhost\nnode b endhost\nlink a b rate=100M\n\
   flow f from=a to=b\n  frame period=1ms deadline=1ms payload=3000B\nend"

let test_gmf103_fragmentation () =
  (* severity depends on the analysis variant: the Faithful analysis
     under-charges rotations for fragmented frames (DESIGN.md R2-R3) *)
  check_fires ~code:"GMF103" ~severity:Gmf_diag.Hint fragmented;
  check_fires ~config:Analysis.Config.faithful ~code:"GMF103"
    ~severity:Gmf_diag.Warning fragmented

let test_gmf104_priority_tie () =
  check_fires ~code:"GMF104" ~severity:Gmf_diag.Hint
    ("node a endhost\nnode b endhost\nlink a b rate=100M\n\
      flow f from=a to=b prio=3\n" ^ frame1
   ^ "end\nflow g from=a to=b prio=3\n" ^ frame1 ^ "end")

let test_gmf105_overprovisioned_switch () =
  check_fires ~code:"GMF105" ~severity:Gmf_diag.Hint
    ("node a endhost\nnode b endhost\nnode sw switch\nlink a sw rate=100M\n\
      link sw b rate=100M\nswitch sw ports=8\nflow f from=a to=b\n" ^ frame1
   ^ "end")

(* ---------------- GMF2xx: utilization / config ---------------- *)

let test_gmf201_link_overload () =
  check_fires ~code:"GMF201" ~severity:Gmf_diag.Error
    "node a endhost\nnode b endhost\nlink a b rate=1M\n\
     flow f from=a to=b\n  frame period=1ms deadline=1ms payload=1000B\nend"

let test_gmf202_impossible_deadline () =
  (* C of a 1000 B datagram at 1 Mbit/s is ~8.5 ms, far above 10 us, but
     the 1 s period keeps the link utilization negligible. *)
  check_fires ~code:"GMF202" ~severity:Gmf_diag.Error
    "node a endhost\nnode b endhost\nlink a b rate=1M\n\
     flow f from=a to=b\n  frame period=1s deadline=10us payload=1000B\nend"

let test_gmf203_ingress_overload () =
  (* circ = (2 ports / 1 cpu) * (croute + csend) > 2 ms per frame, one
     frame per 1 ms period: rotation utilization > 1 (eqs 34-35). *)
  check_fires ~code:"GMF203" ~severity:Gmf_diag.Error
    "node a endhost\nnode b endhost\nnode sw switch\nlink a sw rate=100M\n\
     link sw b rate=100M\nswitch sw cpus=1 croute=1ms\n\
     flow f from=a to=b\n  frame period=1ms deadline=100ms payload=100B\nend"

let test_gmf204_near_saturation () =
  let text =
    "node a endhost\nnode b endhost\nlink a b rate=10M\n\
     flow f from=a to=b\n  frame period=1ms deadline=1ms payload=1100B\nend"
  in
  let scenario = parse text in
  let u = Traffic.Scenario.link_utilization scenario ~src:0 ~dst:1 in
  if not (u >= 0.9 && u < 1.) then
    Alcotest.failf "fixture drifted: utilization %.3f not in [0.9, 1)" u;
  check_fires ~code:"GMF204" ~severity:Gmf_diag.Hint text

let test_gmf205_short_horizon () =
  let config =
    { Analysis.Config.default with
      Analysis.Config.horizon = Gmf_util.Timeunit.ms 1 }
  in
  check_fires ~config ~code:"GMF205" ~severity:Gmf_diag.Warning
    "node a endhost\nnode b endhost\nlink a b rate=100M\n\
     flow f from=a to=b\n  frame period=20ms deadline=10ms payload=100B\nend";
  (* A 200 s deadline over one switch, under the 100 s default horizon:
     the suggestion names what a user can change. *)
  match
    find_code "GMF205"
      (lint
         "node a endhost\nnode b endhost\nnode sw switch\n\
          duplex a sw rate=100M\nduplex b sw rate=100M\n\
          flow f from=a to=b\n\
         \  frame period=300s deadline=200s payload=100B\nend")
  with
  | None -> Alcotest.fail "expected GMF205 under the default horizon"
  | Some d ->
      Alcotest.(check (option string))
        "GMF205 suggestion"
        (Some
           "shorten the deadline to the horizon or less; the horizon is \
            Config.horizon (100 s by default), which no command-line option \
            sets")
        d.Gmf_diag.suggestion

let test_gmf206_nonpositive_caps () =
  let config =
    { Analysis.Config.default with Analysis.Config.max_busy_iters = 0 }
  in
  check_fires ~config ~code:"GMF206" ~severity:Gmf_diag.Error clean

(* ---------------- catalog invariants ---------------- *)

let test_catalog () =
  let cs = List.map (fun r -> r.Gmf_lint.Rules.code) Gmf_lint.Rules.catalog in
  Alcotest.(check int) "codes are unique" (List.length cs)
    (List.length (List.sort_uniq compare cs));
  Alcotest.(check bool) "at least 12 rules" true (List.length cs >= 12);
  List.iter
    (fun c ->
      match Gmf_lint.Rules.find c with
      | Some r -> Alcotest.(check string) "find" c r.Gmf_lint.Rules.code
      | None -> Alcotest.failf "find %s = None" c)
    cs;
  (* all three categories are populated *)
  List.iter
    (fun cat ->
      Alcotest.(check bool)
        (Gmf_lint.Rules.category_to_string cat ^ " populated")
        true
        (List.exists
           (fun r -> r.Gmf_lint.Rules.category = cat)
           Gmf_lint.Rules.catalog))
    [ Gmf_lint.Rules.Structural; Gmf_lint.Rules.Model;
      Gmf_lint.Rules.Utilization ]

(* ---------------- JSON round-trip ---------------- *)

let diag = Alcotest.testable Gmf_diag.pp ( = )

let test_json_roundtrip () =
  let ds =
    [
      Gmf_diag.error ~code:"GMF201"
        ~subject:(Gmf_diag.Link { src = 0; dst = 1 })
        ~suggestion:"shed flows" "utilization %.3f" 1.25;
      Gmf_diag.warning ~code:"GMF205" ~subject:Gmf_diag.Config
        "horizon too short";
      Gmf_diag.hint ~code:"GMF002"
        ~subject:(Gmf_diag.Flow { id = 3; name = "voip \"a\"\\b" })
        "tricky\nmessage\twith\rescapes";
      Gmf_diag.error ~code:"GMF202"
        ~subject:(Gmf_diag.Frame { id = 1; name = "f"; frame = 2 })
        ~suggestion:"relax the deadline" "floor above deadline";
      Gmf_diag.warning ~code:"GMF003"
        ~subject:(Gmf_diag.Node { id = 7; name = "sw0" })
        "node has no links";
      Gmf_diag.hint ~code:"GMF999" ~subject:Gmf_diag.Scenario "whole-set note";
    ]
  in
  match Gmf_lint.Lint_json.of_jsonl (Gmf_lint.Lint_json.to_jsonl ds) with
  | Error e -> Alcotest.failf "round-trip parse failed: %s" e
  | Ok ds' -> Alcotest.(check (list diag)) "round-trip" ds ds'

let test_json_rejects_garbage () =
  (* Malformed lines are an [Error], never an exception. *)
  List.iter
    (fun line ->
      match Gmf_lint.Lint_json.of_jsonl_line line with
      | Ok _ -> Alcotest.failf "accepted malformed JSON %S" line
      | Error _ -> ())
    [ "{\"code\":}"; "{\"id\":-}"; "{\"tid\":99999999999999999999}" ];
  match Gmf_lint.Lint_json.of_jsonl_line "{\"code\":\"GMF001\"}" with
  | Ok _ -> Alcotest.fail "accepted incomplete diagnostic"
  | Error _ -> ()

let test_json_of_real_run () =
  let report =
    Gmf_lint.Lint.run
      (parse
         ("node a endhost\nnode b endhost\nlink a b rate=100M\n\
           flow f from=a to=b\n" ^ frame1 ^ "end\nflow f from=a to=b\n"
        ^ frame1 ^ "end"))
  in
  let ds = report.Gmf_lint.Lint.diagnostics in
  Alcotest.(check bool) "run has diagnostics" true (ds <> []);
  match Gmf_lint.Lint_json.of_jsonl (Gmf_lint.Lint_json.to_jsonl ds) with
  | Error e -> Alcotest.failf "round-trip parse failed: %s" e
  | Ok ds' -> Alcotest.(check (list diag)) "round-trip" ds ds'

(* ---------------- the admission gate ---------------- *)

let with_metrics f =
  let reg = Gmf_obs.Metrics.default in
  let was = Gmf_obs.Metrics.enabled reg in
  Gmf_obs.Metrics.set_enabled reg true;
  Gmf_obs.Metrics.reset reg;
  Fun.protect
    ~finally:(fun () ->
      Gmf_obs.Metrics.reset reg;
      Gmf_obs.Metrics.set_enabled reg was)
    f

let test_admission_rejects_without_fixpoint () =
  with_metrics @@ fun () ->
  let fixpoint_calls =
    Gmf_obs.Metrics.counter Gmf_obs.Metrics.default "fixpoint.calls"
  in
  let bad =
    parse
      ("node a endhost\nnode b endhost\nlink a b rate=100M\n\
        flow f from=a to=b\n" ^ frame1 ^ "end\nflow f from=a to=b\n" ^ frame1
     ^ "end")
  in
  let d = Analysis.Admission.check bad in
  Alcotest.(check bool) "rejected" false d.Analysis.Admission.admitted;
  Alcotest.(check int) "no holistic rounds" 0
    d.Analysis.Admission.report.Analysis.Holistic.rounds;
  (match d.Analysis.Admission.report.Analysis.Holistic.verdict with
  | Analysis.Holistic.Analysis_failed (_ :: _) -> ()
  | v ->
      Alcotest.failf "expected Analysis_failed, got %a"
        Analysis.Holistic.pp_verdict v);
  Alcotest.(check bool) "lint diagnostics attached" true
    (Gmf_diag.has_errors d.Analysis.Admission.diagnostics);
  Alcotest.(check int) "fixpoint never entered" 0
    (Gmf_obs.Metrics.counter_value fixpoint_calls);
  (* lint rule counters are visible on the default registry *)
  Alcotest.(check bool) "lint.runs counted" true
    (Gmf_obs.Metrics.counter_value
       (Gmf_obs.Metrics.counter Gmf_obs.Metrics.default "lint.runs")
    > 0);
  Alcotest.(check bool) "lint.hits.GMF001 counted" true
    (Gmf_obs.Metrics.counter_value
       (Gmf_obs.Metrics.counter Gmf_obs.Metrics.default "lint.hits.GMF001")
    > 0);
  (* control: a clean scenario is actually analyzed — the precheck either
     certifies every flow statically (no fixpoint at all) or the fixpoint
     runs; both produce per-flow results. *)
  let d2 = Analysis.Admission.check (parse clean) in
  Alcotest.(check bool) "clean scenario admitted" true
    d2.Analysis.Admission.admitted;
  let certified_statically =
    d2.Analysis.Admission.report.Analysis.Holistic.rounds = 0
    && d2.Analysis.Admission.report.Analysis.Holistic.results <> []
  in
  Alcotest.(check bool) "clean scenario analyzed" true
    (certified_statically || Gmf_obs.Metrics.counter_value fixpoint_calls > 0)

(* ---------------- reuse across passes ---------------- *)

(* [run ~table] equals a pass from scratch when the context of the
   per-flow findings moved while every flow record stayed physically the
   same.  [fill] runs lint through the table first; its findings must
   differ from the scratch pass's, or reuse is untested. *)
let check_table_equals_scratch ~what ?config ~fill scenario =
  let render r = List.map Gmf_diag.to_string r.Gmf_lint.Lint.diagnostics in
  let table = Gmf_precheck.Reuse.create () in
  let filled = fill table in
  Alcotest.(check int) (what ^ ": table filled")
    (Traffic.Scenario.flow_count scenario)
    (Gmf_precheck.Reuse.length table);
  let scratch = Gmf_lint.Lint.run ?config scenario in
  Alcotest.(check bool) (what ^ ": findings moved") false
    (render scratch = render filled);
  Alcotest.(check (list string)) (what ^ ": run ~table == run")
    (render scratch)
    (render (Gmf_lint.Lint.run ?config ~table scenario))

(* A slower switch CPU raises CIRC on every route and pushes fig1's
   uncontended floors past their deadlines (GMF202). *)
let test_table_switch_models () =
  let fig1 = Workload.Scenarios.fig1_videoconf () in
  let slow =
    Traffic.Scenario.map_switches fig1 ~f:(fun _ m ->
        Click.Switch_model.make ~croute:50_000_000
          ~csend:m.Click.Switch_model.csend
          ~processors:m.Click.Switch_model.processors
          ~ninterfaces:m.Click.Switch_model.ninterfaces ())
  in
  Alcotest.(check bool) "GMF202 fires" true
    (find_code "GMF202" (Gmf_lint.Lint.run slow).Gmf_lint.Lint.diagnostics
    <> None);
  check_table_equals_scratch ~what:"CIRC"
    ~fill:(fun table -> Gmf_lint.Lint.run ~table fig1)
    slow

(* GMF103 is a warning under Faithful and a hint under Repaired. *)
let test_table_variant () =
  let fig1 = Workload.Scenarios.fig1_videoconf () in
  check_table_equals_scratch ~what:"variant"
    ~fill:(fun table ->
      Gmf_lint.Lint.run ~config:Analysis.Config.faithful ~table fig1)
    fig1

(* A second route through a new switch clears GMF007 while the flow
   record stays physically the same: only the topology moved. *)
let test_table_topology () =
  let line =
    "node a endhost\nnode b endhost\nnode sw switch\n\
     duplex a sw rate=100M\nduplex sw b rate=100M\n"
  in
  let flow = "flow f from=a to=b route=a,sw,b\n" ^ frame1 ^ "end" in
  let one = parse (line ^ flow) in
  let two =
    Traffic.Scenario.with_flows
      (parse
         (line
        ^ "node sw2 switch\nduplex a sw2 rate=100M\nduplex sw2 b rate=100M\n"
        ^ flow))
      (Traffic.Scenario.flows one)
  in
  check_table_equals_scratch ~what:"topology"
    ~fill:(fun table -> Gmf_lint.Lint.run ~table one)
    two

(* ---------------- the error gate ---------------- *)

(* [Lint.gate] runs only the rules that can emit an error; it must equal
   the errors of the full pass, as a list. *)
let check_gate ~what ~config scenario =
  Alcotest.(check (list diag))
    (what ^ ": gate == errors of run")
    (Gmf_lint.Lint.errors (Gmf_lint.Lint.run ~config scenario))
    (Gmf_lint.Lint.gate ~config scenario)

let gate_configs =
  [
    ("default", Analysis.Config.default);
    ("faithful", Analysis.Config.faithful);
    ("tight", Analysis.Config.tight);
  ]

(* The checked-in scenarios: the linted examples and the corpus of
   scenarios that fail the analysis on purpose. *)
let test_gate_equals_run_corpus () =
  let paths = Example_corpus.scenario_paths () in
  Alcotest.(check bool) "corpus scenarios present" true
    (List.exists
       (fun p -> Filename.basename p = "split_overload.gmfnet")
       paths);
  List.iter
    (fun path ->
      match Scenario_io.Parse.scenario_of_file path with
      | Error e -> Alcotest.failf "%s: %a" path Scenario_io.Parse.pp_error e
      | Ok scenario ->
          List.iter
            (fun (name, config) ->
              check_gate
                ~what:(Filename.basename path ^ " " ^ name)
                ~config scenario)
            gate_configs)
    paths

(* A flow rebuilt with another name or spec, remarks kept. *)
let rebuild ?name ?spec (f : Traffic.Flow.t) =
  let g =
    Traffic.Flow.make ~id:f.Traffic.Flow.id
      ~name:(Option.value name ~default:f.Traffic.Flow.name)
      ~spec:(Option.value spec ~default:f.Traffic.Flow.spec)
      ~encap:f.Traffic.Flow.encap ~route:f.Traffic.Flow.route
      ~priority:f.Traffic.Flow.priority
  in
  if f.Traffic.Flow.remarks = [] then g
  else Traffic.Flow.with_remarks g f.Traffic.Flow.remarks

(* A generated mesh, fat-tree or ring of rings with 20 to 200 flows,
   loaded up to 0.7 or 1 per resource, and errors injected at random: a
   flow whose payloads grow 2000 to 32000 times, loading its links past 1
   at 100 Mbit/s (GMF201) and its ingresses past 1 at 10 Gbit/s (GMF203),
   a duplicated name (GMF001) and a frame deadline of 1 ns, far below
   its uncontended floor (GMF202). *)
let gen_erroneous rng =
  let module G = Gmf_topogen.Gen_spec in
  let family =
    match Gmf_util.Rng.int rng 3 with
    | 0 -> G.Mesh { rows = 4; cols = 4; planes = 1 }
    | 1 -> G.Fat_tree { k = 4 }
    | _ -> G.Ring_of_rings { rings = 4; ring_size = 4 }
  in
  let spec =
    {
      G.default with
      G.family;
      hosts_per_switch = 2;
      rate_bps =
        (if Gmf_util.Rng.int rng 2 = 0 then 100_000_000 else 10_000_000_000);
      flows = 20 + Gmf_util.Rng.int rng 181;
      max_util = (if Gmf_util.Rng.int rng 2 = 0 then 0.7 else 1.);
      seed = Gmf_util.Rng.int rng 1_000_000;
    }
  in
  let scenario =
    (Gmf_topogen.Topogen.generate spec).Gmf_topogen.Topogen.scenario
  in
  let flows = Array.of_list (Traffic.Scenario.flows scenario) in
  let n = Array.length flows in
  let pick () = Gmf_util.Rng.int rng n in
  if n >= 1 && Gmf_util.Rng.int rng 2 = 0 then begin
    let i = pick () in
    flows.(i) <-
      Traffic.Flow.scale_payloads flows.(i)
        (float_of_int (2000 lsl (2 * Gmf_util.Rng.int rng 3)))
  end;
  if n >= 2 && Gmf_util.Rng.int rng 2 = 0 then begin
    let a = pick () and b = pick () in
    if a <> b then
      flows.(b) <- rebuild ~name:flows.(a).Traffic.Flow.name flows.(b)
  end;
  if n >= 1 && Gmf_util.Rng.int rng 2 = 0 then begin
    let i = pick () in
    let f = flows.(i) in
    let k = Gmf_util.Rng.int rng (Traffic.Flow.n f) in
    let frames =
      Array.to_list (Gmf.Spec.frames f.Traffic.Flow.spec)
      |> List.mapi (fun j (fr : Gmf.Frame_spec.t) ->
             if j <> k then fr
             else
               Gmf.Frame_spec.make ~period:fr.Gmf.Frame_spec.period
                 ~deadline:1 ~jitter:fr.Gmf.Frame_spec.jitter
                 ~payload_bits:fr.Gmf.Frame_spec.payload_bits)
    in
    flows.(i) <- rebuild ~spec:(Gmf.Spec.make frames) f
  end;
  Traffic.Scenario.with_flows scenario (Array.to_list flows)

(* Every generated scenario under the default, faithful and tight
   configs, one of them with a non-positive cap (GMF206) or a horizon
   under the deadlines (the GMF205 warning the gate drops).  Between
   them the cases raise every code the gate can emit. *)
let test_gate_equals_run_generated () =
  let rng = Gmf_util.Rng.create ~seed:30 in
  let seen = Hashtbl.create 8 in
  for i = 1 to 20 do
    let scenario = gen_erroneous rng in
    let capped =
      match Gmf_util.Rng.int rng 3 with
      | 0 -> { Analysis.Config.default with max_q = 0 }
      | 1 -> { Analysis.Config.default with max_busy_iters = -1 }
      | _ -> { Analysis.Config.default with horizon = 1 }
    in
    List.iter
      (fun (name, config) ->
        check_gate ~what:(Printf.sprintf "generated #%d %s" i name) ~config
          scenario;
        List.iter
          (fun d -> Hashtbl.replace seen d.Gmf_diag.code ())
          (Gmf_lint.Lint.gate ~config scenario))
      (("capped", capped) :: gate_configs)
  done;
  Alcotest.(check (list string)) "every gate code raised"
    Gmf_lint.Rules.gate_codes
    (List.sort compare (List.of_seq (Hashtbl.to_seq_keys seen)))

(* The gate's rules are those of the table that can emit an error: every
   Error code of the catalog but the ones no scenario rule produces
   (constructors, admission, precheck: GMF010-GMF018).  A new error rule
   cannot be left out of the gate. *)
let test_gate_codes () =
  let non_scenario code = code >= "GMF010" && code <= "GMF019" in
  let catalog_codes p =
    List.filter_map
      (fun r -> if p r then Some r.Gmf_lint.Rules.code else None)
      Gmf_lint.Rules.catalog
  in
  Alcotest.(check (list string))
    "gate codes == catalog errors - GMF010..GMF018"
    (catalog_codes (fun r ->
         r.Gmf_lint.Rules.default_severity = Gmf_diag.Error
         && not (non_scenario r.Gmf_lint.Rules.code)))
    Gmf_lint.Rules.gate_codes;
  Alcotest.(check (list string)) "gate codes"
    [ "GMF001"; "GMF201"; "GMF202"; "GMF203"; "GMF206" ]
    Gmf_lint.Rules.gate_codes;
  Alcotest.(check (list string))
    "scenario rule codes == catalog - GMF010..GMF019"
    (catalog_codes (fun r -> not (non_scenario r.Gmf_lint.Rules.code)))
    Gmf_lint.Rules.scenario_codes

(* ---------------- the route rules against per-flow searches ---------------- *)

(* [topo] without the [gone] links and every link of the [dead]
   switches: the same nodes under the same ids. *)
let degrade topo ~gone ~dead =
  let t = Network.Topology.create () in
  List.iter
    (fun (n : Network.Node.t) ->
      ignore
        (Network.Topology.add_node t ~name:n.Network.Node.name
           ~kind:n.Network.Node.kind))
    (Network.Topology.nodes topo);
  List.iter
    (fun (l : Network.Link.t) ->
      let open Network.Link in
      if
        not
          (List.mem (l.src, l.dst) gone
          || List.mem l.src dead || List.mem l.dst dead)
      then
        Network.Topology.add_link t ~src:l.src ~dst:l.dst ~rate_bps:l.rate_bps
          ~prop:l.prop)
    (Network.Topology.links topo);
  t

(* [f] on a route of [topo]: its own if it survived, else the shortest;
   one flow in four takes a later [all_routes] entry instead, and
   another one in four (and every flow whose shortcut runs past
   max_hops) a detour through a random switch, the first of eight draws
   whose legs join into a route, so that GMF005 fires. *)
let reroute rng topo switches (f : Traffic.Flow.t) =
  let route nodes =
    match Network.Route.make topo nodes with
    | r -> Some r
    | exception Invalid_argument _ -> None
  in
  let src = Network.Route.source f.Traffic.Flow.route
  and dst = Network.Route.destination f.Traffic.Flow.route in
  let path a b = Network.Topology.shortest_path topo ~src:a ~dst:b in
  let later () =
    match Network.Pathfind.all_routes topo ~src ~dst with
    | _ :: (_ :: _ as rest) -> Some (Gmf_util.Rng.pick rng (Array.of_list rest))
    | _ -> None
  in
  let rec via tries =
    if tries = 0 then None
    else
      let w = Gmf_util.Rng.pick rng switches in
      match (path src w, path w dst) with
      | Some a, Some (_ :: b) when route (a @ b) <> None -> route (a @ b)
      | _ -> via (tries - 1)
  in
  let far =
    match path src dst with
    | Some p -> List.length p - 1 > Network.Pathfind.max_hops
    | None -> false
  in
  let pick =
    match Gmf_util.Rng.int rng 8 with
    | _ when far -> via 8
    | 0 | 1 -> later ()
    | 2 | 3 -> via 8
    | _ -> None
  in
  let chosen =
    match pick with
    | Some r -> Some r
    | None -> (
        match route (Network.Route.nodes f.Traffic.Flow.route) with
        | Some r -> Some r
        | None -> Option.bind (path src dst) route)
  in
  Option.map
    (fun route ->
      Traffic.Flow.make ~id:f.Traffic.Flow.id ~name:f.Traffic.Flow.name
        ~spec:f.Traffic.Flow.spec ~encap:f.Traffic.Flow.encap ~route
        ~priority:f.Traffic.Flow.priority)
    chosen

(* A generated mesh (one or two planes), fat-tree or ring of rings with
   0-3 duplex links and 0-1 switches taken out, its flows rerouted as
   [reroute] does, and a random subset of them (every flow in one case
   of three). *)
let gen_rerouted seed =
  let module G = Gmf_topogen.Gen_spec in
  let rng = Gmf_util.Rng.create ~seed in
  let family =
    Gmf_util.Rng.pick rng
      [|
        G.Mesh { rows = 4; cols = 4; planes = 1 };
        G.Mesh { rows = 6; cols = 6; planes = 1 };
        G.Mesh { rows = 3; cols = 4; planes = 2 };
        G.Fat_tree { k = 4 };
        G.Ring_of_rings { rings = 4; ring_size = 4 };
        G.Ring_of_rings { rings = 3; ring_size = 5 };
      |]
  in
  let spec =
    {
      G.default with
      G.family;
      hosts_per_switch = 1 + Gmf_util.Rng.int rng 2;
      flows = 20 + Gmf_util.Rng.int rng 81;
      (* the 6x6 mesh draws its pairs anywhere, for shortcuts past
         max_hops *)
      locality =
        (match family with
        | G.Mesh { rows = 6; _ } -> 0.
        | _ -> if Gmf_util.Rng.bool rng then 0.8 else 0.);
      max_util = 1.;
      seed = Gmf_util.Rng.int rng 1_000_000;
    }
  in
  let scenario =
    (Gmf_topogen.Topogen.generate spec).Gmf_topogen.Topogen.scenario
  in
  let topo = Traffic.Scenario.topo scenario in
  let links = Array.of_list (Network.Topology.links topo) in
  let switches =
    Array.of_list
      (List.filter_map
         (fun (n : Network.Node.t) ->
           if Network.Node.is_switch n then Some n.Network.Node.id else None)
         (Network.Topology.nodes topo))
  in
  let gone =
    List.concat
      (List.init (Gmf_util.Rng.int rng 4) (fun _ ->
           let l = Gmf_util.Rng.pick rng links in
           Network.Link.[ (l.src, l.dst); (l.dst, l.src) ]))
  in
  let dead =
    List.init (Gmf_util.Rng.int rng 2) (fun _ -> Gmf_util.Rng.pick rng switches)
  in
  let topo = degrade topo ~gone ~dead in
  let flows =
    List.filter_map (reroute rng topo switches) (Traffic.Scenario.flows scenario)
  in
  let scenario = Traffic.Scenario.make ~topo ~flows () in
  let every = Gmf_util.Rng.int rng 3 = 0 in
  (scenario, List.filter (fun _ -> every || Gmf_util.Rng.bool rng) flows)

let route_findings scenario flows =
  List.map
    (List.filter (fun d -> d.Gmf_diag.code = "GMF005" || d.Gmf_diag.code = "GMF007"))
    (Gmf_lint.Rules.flow_rules ~config:Analysis.Config.default scenario flows)

let prop_route_rules_equal_oracle =
  QCheck.Test.make ~name:"GMF005/GMF007 == per-flow search oracle" ~count:40
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let scenario, flows = gen_rerouted seed in
      let oracle =
        Route_oracle.findings (Traffic.Scenario.topo scenario) flows
      in
      List.for_all2
        (fun (f : Traffic.Flow.t) (got, want) ->
          got = want
          || QCheck.Test.fail_reportf "flow %s: batched [%s], oracle [%s]"
               f.Traffic.Flow.name
               (String.concat "; " (List.map Gmf_diag.to_string got))
               (String.concat "; " (List.map Gmf_diag.to_string want)))
        flows
        (List.combine (route_findings scenario flows) oracle))

(* The generator above reaches every branch of the batched search on
   fixed seeds: GMF005 with a shortcut past max_hops, GMF007, and flows
   with one shortest route and a longer second one (the spur search). *)
let test_route_oracle_coverage () =
  let detours = ref 0 and far = ref 0 and singles = ref 0 and spurs = ref 0 in
  for seed = 1 to 30 do
    let scenario, flows = gen_rerouted seed in
    let topo = Traffic.Scenario.topo scenario in
    List.iter2
      (fun (f : Traffic.Flow.t) ds ->
        List.iter
          (fun d ->
            if d.Gmf_diag.code = "GMF007" then incr singles
            else begin
              incr detours;
              Scanf.sscanf d.Gmf_diag.message "route takes %d hops where %d"
                (fun _ n -> if n > Network.Pathfind.max_hops then incr far)
            end)
          ds;
        let route = f.Traffic.Flow.route in
        match
          Network.Pathfind.all_routes topo
            ~src:(Network.Route.source route)
            ~dst:(Network.Route.destination route)
        with
        | a :: b :: _
          when Network.Route.hop_count a < Network.Route.hop_count b ->
            incr spurs
        | _ -> ())
      flows
      (route_findings scenario flows)
  done;
  List.iter
    (fun (what, n) ->
      Alcotest.(check bool) (Printf.sprintf "%s (%d)" what n) true (n > 0))
    [
      ("GMF005", !detours);
      ("GMF005 past max_hops", !far);
      ("GMF007", !singles);
      ("one shortest route, a longer second", !spurs);
    ]

let tests =
  [
    Alcotest.test_case "clean scenario is diagnostic-free" `Quick
      test_clean_scenario;
    Alcotest.test_case "GMF001 duplicate flow name" `Quick
      test_gmf001_duplicate_flow_name;
    Alcotest.test_case "GMF002 redundant remark" `Quick
      test_gmf002_redundant_remark;
    Alcotest.test_case "GMF003 isolated node" `Quick test_gmf003_isolated_node;
    Alcotest.test_case "GMF004 unused link" `Quick test_gmf004_unused_link;
    Alcotest.test_case "GMF005 detour route" `Quick test_gmf005_detour_route;
    Alcotest.test_case "GMF006 unused switch" `Quick test_gmf006_unused_switch;
    Alcotest.test_case "GMF007 single route" `Quick test_gmf007_single_route;
    QCheck_alcotest.to_alcotest prop_route_rules_equal_oracle;
    Alcotest.test_case "route oracle cases reach every branch" `Quick
      test_route_oracle_coverage;
    Alcotest.test_case "GMF010 priority range" `Quick test_gmf010_priority_range;
    Alcotest.test_case "GMF011 remark off route" `Quick
      test_gmf011_remark_off_route;
    Alcotest.test_case "GMF012 hop remarked twice" `Quick
      test_gmf012_hop_remarked_twice;
    Alcotest.test_case "GMF013 scale factor" `Quick test_gmf013_scale_factor;
    Alcotest.test_case "GMF101 deadline over period" `Quick
      test_gmf101_deadline_over_period;
    Alcotest.test_case "GMF102 jitter over period" `Quick
      test_gmf102_jitter_over_period;
    Alcotest.test_case "GMF103 fragmentation by variant" `Quick
      test_gmf103_fragmentation;
    Alcotest.test_case "GMF104 priority tie" `Quick test_gmf104_priority_tie;
    Alcotest.test_case "GMF105 overprovisioned switch" `Quick
      test_gmf105_overprovisioned_switch;
    Alcotest.test_case "GMF201 link overload" `Quick test_gmf201_link_overload;
    Alcotest.test_case "GMF202 impossible deadline" `Quick
      test_gmf202_impossible_deadline;
    Alcotest.test_case "GMF203 ingress overload" `Quick
      test_gmf203_ingress_overload;
    Alcotest.test_case "GMF204 near saturation" `Quick
      test_gmf204_near_saturation;
    Alcotest.test_case "GMF205 short horizon" `Quick test_gmf205_short_horizon;
    Alcotest.test_case "GMF206 non-positive caps" `Quick
      test_gmf206_nonpositive_caps;
    Alcotest.test_case "rule catalog invariants" `Quick test_catalog;
    Alcotest.test_case "JSON round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "JSON rejects garbage" `Quick test_json_rejects_garbage;
    Alcotest.test_case "JSON round-trip of a real run" `Quick
      test_json_of_real_run;
    Alcotest.test_case "admission rejects without fixpoint" `Quick
      test_admission_rejects_without_fixpoint;
    Alcotest.test_case "run ~table after a switch-model change" `Quick
      test_table_switch_models;
    Alcotest.test_case "run ~table across the two variants" `Quick
      test_table_variant;
    Alcotest.test_case "run ~table after a topology change" `Quick
      test_table_topology;
    Alcotest.test_case "gate == errors of run on the corpus" `Quick
      test_gate_equals_run_corpus;
    Alcotest.test_case "gate == errors of run on generated fabrics" `Quick
      test_gate_equals_run_generated;
    Alcotest.test_case "gate codes are the catalog's errors" `Quick
      test_gate_codes;
  ]
