(* Exact counter gates on fixed inputs: the fig1 k=2 and rings4x4 k=1
   sweeps' counts, survive sweeps == the cold test oracle, session
   admits as delta runs, precheck coverage of the example workloads,
   the end-to-end m250 admission path and the failover session's
   recovery cost.  Every
   expected number below is an exact count, not a timing: a change that
   moves one is either a bug or a deliberate change to the analysis, and
   must update the number here with a reason.

   Wall time is measured only by perfbench (see perfbench/README.md). *)

module Survive = Gmf_faults.Survive
module Metrics = Gmf_obs.Metrics
module Scenarios = Workload.Scenarios

(* Run [f] with the default registry on and freshly reset; return its
   result and the counters it bumped (0 for one it never touched). *)
let with_counters f =
  let reg = Metrics.default in
  let was = Metrics.enabled reg in
  Metrics.set_enabled reg true;
  Metrics.reset reg;
  let r = Fun.protect ~finally:(fun () -> Metrics.set_enabled reg was) f in
  let counters = (Metrics.snapshot reg).Metrics.counters in
  (r, fun name -> Option.value ~default:0 (List.assoc_opt name counters))

(* ------------------------------------------------------------------ *)
(* The fig1 k=2 sweep's case counts                                  *)
(* ------------------------------------------------------------------ *)

(* The sweep makes 78 evaluations: the 66 cases plus the 12 component
   fixpoints its base's report table did not already hold (30 undecided
   components in all, 18 read back). *)
let test_fig1_k2_counters () =
  let scenario = Scenarios.fig1_videoconf () in
  let _, counter =
    with_counters (fun () -> Survive.run ~k:2 scenario)
  in
  Alcotest.(check int) "survive.cases" 66 (counter "survive.cases");
  Alcotest.(check int) "exec.cases" 78 (counter "exec.cases")

(* ------------------------------------------------------------------ *)
(* Component fixpoints read back on a rings sweep                      *)
(* ------------------------------------------------------------------ *)

(* The committed rings:4x4 scenario (test/corpus/rings4x4.gmfnet) is the
   one family where the cases of a sweep meet the same degraded
   components over and over.  Its k=1 sweep over the first 4 components
   runs 63 evaluations: the 4 cases plus the 59 component fixpoints the
   base's report table did not already hold; a further 141 undecided
   components are read back from it. *)
let test_rings_k1_counters () =
  let path =
    List.find
      (fun p -> Filename.basename p = "rings4x4.gmfnet")
      (Example_corpus.scenario_paths ())
  in
  let scenario =
    match Scenario_io.Parse.scenario_of_file path with
    | Ok s -> s
    | Error e -> Alcotest.failf "%a" Scenario_io.Parse.pp_error e
  in
  let domain =
    List.filteri (fun i _ -> i < 4) (Survive.components scenario)
  in
  let _, counter =
    with_counters (fun () -> Survive.run ~k:1 ~domain scenario)
  in
  Alcotest.(check int) "survive.cases" 4 (counter "survive.cases");
  Alcotest.(check int) "exec.cases" 63 (counter "exec.cases")

(* ------------------------------------------------------------------ *)
(* Survive sweeps agree with the cold test oracle on a tiled mesh     *)
(* ------------------------------------------------------------------ *)

(* A software-switch mesh where every flow stays inside a 2-cell tile
   (its own two access switches and the fabric link between them), so
   the interference graph falls apart into one component per tile: the
   regime the delta engine exists for.  The failure domain is the
   intra-tile fabric links. *)
let tile_mesh ~rows ~cols =
  let built =
    Gmf_topogen.Builders.build ~rate_bps:100_000_000
      ~prop:Gmf_topogen.Gen_spec.default.Gmf_topogen.Gen_spec.prop
      ~hosts_per_switch:4
      (Gmf_topogen.Gen_spec.Mesh { rows; cols; planes = 1 })
  in
  let topo = built.Gmf_topogen.Builders.topo in
  let hosts_of = Hashtbl.create 64 in
  Array.iteri
    (fun i h ->
      let c = built.Gmf_topogen.Builders.host_region.(i) in
      Hashtbl.replace hosts_of c
        (h :: Option.value ~default:[] (Hashtbl.find_opt hosts_of c)))
    built.Gmf_topogen.Builders.hosts;
  let switch_of h = List.hd (Network.Topology.out_neighbors topo h) in
  let rng = Gmf_util.Rng.create ~seed:42 in
  let pairs = ref [] and domain = ref [] in
  (* Tiles pair horizontally adjacent cells (r, 2t)-(r, 2t+1). *)
  for r = 0 to rows - 1 do
    for t = 0 to (cols / 2) - 1 do
      let ca = (r * cols) + (2 * t) in
      match (Hashtbl.find_opt hosts_of ca, Hashtbl.find_opt hosts_of (ca + 1))
      with
      | Some (a0 :: a1 :: a2 :: a3 :: _), Some (b0 :: b1 :: b2 :: b3 :: _) ->
          pairs :=
            (b0, a3) :: (a2, b3) :: (b2, a2) :: (a1, b1) :: (b1, a0)
            :: (a0, b0) :: !pairs;
          let sa = switch_of a0 and sb = switch_of b0 in
          domain := Survive.Link (min sa sb, max sa sb) :: !domain
      | _ -> Alcotest.fail "tile mesh: tile missing hosts"
    done
  done;
  (* Light frames with generous deadlines: most tiles certify
     statically, the detour-merged ones run real fixpoints. *)
  let profile =
    {
      Workload.Random_gen.default_profile with
      Workload.Random_gen.payload_bytes = (2_000, 6_000);
      deadline_factor = (1.5, 2.2);
      jitter = (0, 50_000);
    }
  in
  let flows =
    Workload.Random_gen.flows_between rng ~profile ~topo
      ~pairs:(List.rev !pairs) ()
  in
  (Traffic.Scenario.make ~topo ~flows (), List.rev !domain)

(* The observable part of a sweep: fates, matrix and shed set.  Rounds
   and delta statistics are engine-dependent and left out. *)
let sweep_signature scenario (r : Survive.report) =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (c : Survive.case_result) ->
      List.iter
        (fun comp ->
          Buffer.add_string buf (Survive.component_name scenario comp);
          Buffer.add_char buf '+')
        c.Survive.case;
      Buffer.add_char buf '|';
      List.iter
        (fun ((f : Traffic.Flow.t), fate) ->
          Printf.bprintf buf "%d=%s;" f.Traffic.Flow.id
            (match fate with
            | Survive.Unaffected -> "u"
            | Survive.Rerouted _ -> "r"
            | Survive.Shed -> "s"))
        c.Survive.fates;
      Buffer.add_char buf '\n')
    r.Survive.cases;
  List.iter
    (fun ((f : Traffic.Flow.t), v) ->
      Printf.bprintf buf "%d:%s;" f.Traffic.Flow.id
        (match v with
        | Survive.Survives -> "ok"
        | Survive.Survives_with_reroute -> "rr"
        | Survive.Must_shed -> "shed"))
    r.Survive.matrix;
  List.iter
    (fun (f : Traffic.Flow.t) -> Printf.bprintf buf "!%d" f.Traffic.Flow.id)
    r.Survive.shed_set;
  Buffer.contents buf

let test_delta_equals_cold_tiles () =
  let scenario, domain = tile_mesh ~rows:6 ~cols:6 in
  Alcotest.(check int) "flows" 108
    (List.length (Traffic.Scenario.flows scenario));
  Alcotest.(check int) "tile links" 18 (List.length domain);
  (* The first 8 tile links (rows 0-2) keep the sweep at 36 cases. *)
  let domain = List.filteri (fun i _ -> i < 8) domain in
  let d, counter =
    with_counters (fun () -> Survive.run ~k:2 ~domain scenario)
  in
  let c = Survive_oracle.run ~k:2 ~domain scenario in
  Alcotest.(check int) "cases" 36 (List.length d.Survive.cases);
  (* One error gate for the base and one per case, since every case
     settles on its first delta attempt; the gates build no hint and no
     warning. *)
  Alcotest.(check int) "lint.runs" 37 (counter "lint.runs");
  (* Every case's attempt is a mixed edit (its reroutes), so its closure
     restarts through the precheck-guided engine: 36 precheck runs, one
     per case.  A single failure reroutes its tile across a neighbouring
     tile, so each of the 8 tests one 12-flow component (two neighbours
     failing alone give the same ids with different records: two
     entries).  Of the 28 pairs, 5 merge into one 18-flow component and
     23 hold two 12-flow components: 8 + 5 + 46 = 59.  44 of the 46 are
     a single failure's component with the same records, read from the
     base's table; the other 2 belong to a tile whose detour crossed the
     pair's other failed link, so it detours elsewhere.  The sweep tests
     8 + 5 + 2 = 15 components. *)
  Alcotest.(check (list int))
    "precheck.runs/components/components_reused" [ 36; 59; 44 ]
    [
      counter "precheck.runs"; counter "precheck.components";
      counter "precheck.components_reused";
    ];
  Alcotest.(check int) "hint and warning lint.hits" 0
    (List.fold_left
       (fun acc (r : Gmf_lint.Rules.rule) ->
         if r.Gmf_lint.Rules.default_severity = Gmf_diag.Error then acc
         else acc + counter ("lint.hits." ^ r.Gmf_lint.Rules.code))
       0 Gmf_lint.Rules.catalog);
  Alcotest.(check string) "delta signature == oracle signature"
    (sweep_signature scenario c)
    (sweep_signature scenario d);
  (* Each reroute record and its link parameters are built once per
     sweep: the base's own params serve every hop a reroute keeps, and
     the sweep's pool builds each (flow, hop) a reroute adds exactly
     once, however many cases take that reroute.  No case sheds, so the
     fates name every reroute the sweep made. *)
  let added = Hashtbl.create 64 and reroutes = ref 0 in
  List.iter
    (fun (c : Survive.case_result) ->
      List.iter
        (fun ((f : Traffic.Flow.t), fate) ->
          match fate with
          | Survive.Rerouted route ->
              incr reroutes;
              List.iter
                (fun hop ->
                  if
                    not
                      (List.mem hop (Network.Route.hops f.Traffic.Flow.route))
                  then Hashtbl.replace added (f.Traffic.Flow.id, hop) ())
                (Network.Route.hops route)
          | Survive.Shed -> Alcotest.fail "tile sweep: a case shed a flow"
          | Survive.Unaffected -> ())
        c.Survive.fates)
    d.Survive.cases;
  Alcotest.(check (list int))
    "reroutes, added (flow, hop) pairs, traffic.params_built"
    [ 384; 288; 288 ]
    [ !reroutes; Hashtbl.length added; counter "traffic.params_built" ];
  match d.Survive.delta_totals with
  | None -> Alcotest.fail "delta sweep reported no delta totals"
  | Some t ->
      Alcotest.(check (list int))
        "delta closure/skipped/saved/fallbacks/warm"
        [ 738; 3150; 68; 0; 0 ]
        [
          t.Survive.d_closure; t.Survive.d_skipped; t.Survive.d_saved;
          t.Survive.d_fallbacks; t.Survive.d_warm;
        ]

(* ------------------------------------------------------------------ *)
(* Session admits are delta runs                                      *)
(* ------------------------------------------------------------------ *)

(* The 6x6 tile mesh admitted into a session one flow at a time.  Every
   admit is one warm-seeded, pure-growth delta run against the committed
   base, whose closure is the candidate's tile rather than the whole
   admitted set: 18 tiles of 6 flows re-analyze 18 x (1 + ... + 6) = 378
   flows.  Each admit's gates reuse the results of the last ones: lint
   reruns the per-flow rules of the candidate alone (the k-th admit
   reuses k - 1 flows, 0 + 1 + ... + 107 = 5778 in all) and precheck
   tests only the component the candidate joins, so of the 1026
   components the 108 passes see, 108 are tested and 918 reused.  The
   committed verdict and results end equal to a cold analysis of the
   full population. *)
let admit_all scenario =
  let module Session = Gmf_admctl.Session in
  let session = Session.create ~topo:(Traffic.Scenario.topo scenario) () in
  let outcomes, counter =
    with_counters (fun () ->
        List.map
          (fun f -> Session.apply session (Session.Admit f))
          (Traffic.Scenario.flows scenario))
  in
  (session, outcomes, counter)

let test_session_admits_tiles () =
  let module Session = Gmf_admctl.Session in
  let scenario, _domain = tile_mesh ~rows:6 ~cols:6 in
  let session, outcomes, counter = admit_all scenario in
  let count p = List.length (List.filter p outcomes) in
  Alcotest.(check (list int))
    "admits/accepted/warm" [ 108; 108; 108 ]
    [
      List.length outcomes;
      count (fun (o : Session.outcome) -> o.Session.accepted);
      count (fun (o : Session.outcome) -> o.Session.start = Session.Warm);
    ];
  Alcotest.(check (list int))
    "delta.runs/cold_fallbacks/closure_flows, fixpoint.calls"
    [ 108; 0; 378; 96_130 ]
    [
      counter "delta.runs"; counter "delta.cold_fallbacks";
      counter "delta.closure_flows"; counter "fixpoint.calls";
    ];
  Alcotest.(check (list int))
    "lint.runs/flows_reused, precheck.runs/components/components_reused"
    [ 108; 5778; 108; 1026; 918 ]
    [
      counter "lint.runs"; counter "lint.flows_reused"; counter "precheck.runs";
      counter "precheck.components"; counter "precheck.components_reused";
    ];
  (* The session's precheck table keeps the latest run's components only:
     the 18 tiles of the full population, not the 108 member sets its
     admits tested. *)
  Alcotest.(check int) "precheck table entries" 18
    (Session.precheck_entries session);
  let cold = Analysis.Holistic.analyze scenario
  and committed = Session.report session in
  Alcotest.(check bool) "committed verdict and results == cold analysis" true
    (committed.Analysis.Holistic.verdict = cold.Analysis.Holistic.verdict
    && committed.Analysis.Holistic.results = cold.Analysis.Holistic.results)

(* ------------------------------------------------------------------ *)
(* Precheck coverage and sharded verdicts                             *)
(* ------------------------------------------------------------------ *)

(* Four switch-local clusters on one fabric: the flows of different
   switches share no node, so the interference graph has four
   components. *)
let clusters () =
  let topo, hosts, _sw =
    Workload.Topologies.line ~hosts_per_switch:4 ~switches:4 ()
  in
  let rng = Gmf_util.Rng.create ~seed:7 in
  let pairs =
    List.concat_map
      (fun s ->
        [
          (hosts.(s).(0), hosts.(s).(1));
          (hosts.(s).(1), hosts.(s).(2));
          (hosts.(s).(2), hosts.(s).(3));
        ])
      [ 0; 1; 2; 3 ]
  in
  let flows = Workload.Random_gen.flows_between rng ~topo ~pairs () in
  Traffic.Scenario.make ~topo ~flows ()

(* name, scenario, [flows; components; decided; certified; mono rounds] *)
let precheck_workloads =
  [
    ("fig1", (fun () -> Scenarios.fig1_videoconf ()), [ 6; 1; 0; 0; 3 ]);
    ("voip", (fun () -> Scenarios.single_switch_voip ()), [ 4; 1; 4; 4; 2 ]);
    ("chain", (fun () -> Scenarios.multihop_chain ()), [ 5; 1; 5; 5; 2 ]);
    ("enterprise", (fun () -> Scenarios.enterprise ()), [ 8; 1; 8; 8; 2 ]);
    ("clusters", clusters, [ 12; 4; 12; 12; 2 ]);
  ]

let test_precheck_counters () =
  List.iter
    (fun (name, make, expected) ->
      let scenario = make () in
      let mono = Analysis.Holistic.analyze scenario in
      let sharded, pre, stats = Analysis.Sharded.analyze scenario in
      let st = pre.Gmf_precheck.Precheck.stats in
      Alcotest.(check (list int))
        (name ^ ": flows/components/decided/certified/mono rounds")
        expected
        [
          st.Gmf_precheck.Igraph.flows; st.Gmf_precheck.Igraph.components;
          Gmf_precheck.Precheck.decided pre;
          stats.Analysis.Sharded.flows_certified;
          mono.Analysis.Holistic.rounds;
        ];
      Alcotest.(check bool)
        (name ^ ": sharded verdict == holistic verdict")
        (Analysis.Holistic.is_schedulable mono)
        (Analysis.Holistic.is_schedulable sharded))
    precheck_workloads

(* ------------------------------------------------------------------ *)
(* m250: generate, lint, precheck and analyze a 250-flow mesh         *)
(* ------------------------------------------------------------------ *)

(* [gmfnet gen -t mesh:25x20 --rate 1000000000 -n 250]. *)
let m250_spec =
  {
    Gmf_topogen.Gen_spec.default with
    Gmf_topogen.Gen_spec.family =
      Gmf_topogen.Gen_spec.Mesh { rows = 25; cols = 20; planes = 1 };
    rate_bps = 1_000_000_000;
    flows = 250;
  }

(* Stage evaluations whose reads did not move are reused, so
   [fixpoint.calls] counts only the recurrences actually run. *)
let test_m250 () =
  let gen = Gmf_topogen.Topogen.generate m250_spec in
  let scenario = gen.Gmf_topogen.Topogen.scenario in
  Alcotest.(check int) "placed" 250 gen.Gmf_topogen.Topogen.placed;
  Alcotest.(check bool) "lint clean at --deny warning" false
    (Gmf_lint.Lint.fatal ~deny:Gmf_diag.Warning (Gmf_lint.Lint.run scenario));
  Alcotest.(check int) "precheck decided" 250
    (Gmf_precheck.Precheck.decided (Gmf_precheck.Precheck.run scenario));
  let report, counter =
    with_counters (fun () -> Analysis.Holistic.analyze scenario)
  in
  Alcotest.(check bool) "schedulable" true
    (Analysis.Holistic.is_schedulable report);
  Alcotest.(check int) "rounds" 3 report.Analysis.Holistic.rounds;
  Alcotest.(check int) "fixpoint.calls" 56_608 (counter "fixpoint.calls");
  Alcotest.(check int) "stage.reused" 12_934 (counter "stage.reused")

(* ------------------------------------------------------------------ *)
(* Failure recovery: degraded session and the fig1 k=1 sweep          *)
(* ------------------------------------------------------------------ *)

(* A diamond carrying the faulted traffic plus a disconnected line of
   switches whose long-haul flows take several rounds to converge cold
   but stay outside the failure's interference closure: the state the
   warm start keeps. *)
let failover_trace () =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    "node src endhost\nnode dst endhost\n\
     node sw1 switch\nnode sw2 switch\nnode sw3 switch\nnode sw4 switch\n\
     duplex src sw1 rate=100M prop=2us\nduplex sw4 dst rate=100M prop=2us\n\
     duplex sw1 sw2 rate=100M prop=2us\nduplex sw1 sw3 rate=100M prop=2us\n\
     duplex sw2 sw4 rate=100M prop=2us\nduplex sw3 sw4 rate=100M prop=2us\n\
     switch sw1 ports=3 cpus=1 croute=2.7us csend=1us\n\
     switch sw2 ports=2 cpus=1 croute=2.7us csend=1us\n\
     switch sw3 ports=2 cpus=1 croute=2.7us csend=1us\n\
     switch sw4 ports=3 cpus=1 croute=2.7us csend=1us\n";
  for s = 0 to 3 do
    Printf.bprintf buf
      "node l%d endhost\nnode ls%d switch\nduplex l%d ls%d rate=10M\n" s s s s;
    if s > 0 then Printf.bprintf buf "duplex ls%d ls%d rate=10M\n" (s - 1) s
  done;
  for s = 0 to 3 do
    Printf.bprintf buf "switch ls%d ports=3 cpus=1 croute=2.7us csend=1us\n" s
  done;
  Buffer.add_string buf
    "admit flow video from=src to=dst route=src,sw1,sw2,sw4,dst prio=5 \
     encap=rtp\n\
    \  frame period=33ms deadline=100ms jitter=1ms payload=25000B\n\
    \  frame period=33ms deadline=100ms payload=5000B\nend\n\
     admit flow voice from=src to=dst route=src,sw1,sw2,sw4,dst prio=7 \
     encap=rtp\n\
    \  frame period=20ms deadline=150ms payload=160B\nend\n";
  (* Long-haul flows spanning the whole line, half of them reversed,
     with source jitter so each round moves the downstream bounds. *)
  for f = 0 to 7 do
    let src, dst = if f mod 2 = 0 then (0, 3) else (3, 0) in
    Printf.bprintf buf
      "admit flow lh%d from=l%d to=l%d prio=%d encap=udp\n\
      \  frame period=%dms deadline=900ms jitter=2ms payload=%dB\nend\n"
      f src dst f
      (33 + (5 * f))
      (8_000 + (2_000 * f))
  done;
  Buffer.add_string buf "fail link sw1 sw2\n";
  match Scenario_io.Admtrace.of_string (Buffer.contents buf) with
  | Ok t -> t
  | Error e -> failwith (Format.asprintf "%a" Scenario_io.Parse.pp_error e)

let test_failure_recovery () =
  let module Session = Gmf_admctl.Session in
  let trace = failover_trace () in
  (* The shadow re-runs the degraded set cold: its rounds are what a
     restart from source jitters spends on the same event. *)
  let r = Gmf_admctl.Replay.run ~shadow:true trace in
  (match
     List.find_opt
       (fun (o : Session.outcome) -> o.Session.degradation <> None)
       r.Gmf_admctl.Replay.outcomes
   with
  | Some
      ({ Session.degradation = Some d; shadow = Some { cold_rounds; _ }; _ }
       as o) ->
      Alcotest.(check (list int))
        "warm: flows/rerouted/shed/rounds" [ 8; 2; 0; 2 ]
        [
          o.Session.flow_count; List.length d.Session.rerouted;
          List.length d.Session.shed; o.Session.rounds;
        ];
      Alcotest.(check int) "cold: rounds" 4 cold_rounds
  | _ -> Alcotest.fail "trace has no shadowed fault event");
  let fig1 = Survive.run ~k:1 (Scenarios.fig1_videoconf ()) in
  Alcotest.(check (list int)) "fig1 k=1: cases/rounds/shed" [ 11; 27; 6 ]
    [
      List.length fig1.Survive.cases;
      List.fold_left (fun acc c -> acc + c.Survive.rounds) 0 fig1.Survive.cases;
      List.length fig1.Survive.shed_set;
    ]

let tests =
  [
    Alcotest.test_case "fig1 k=2 sweep counters" `Quick
      test_fig1_k2_counters;
    Alcotest.test_case "rings k=1 sweep counters" `Quick
      test_rings_k1_counters;
    Alcotest.test_case "delta == cold on the 6x6 tile mesh at k=2" `Quick
      test_delta_equals_cold_tiles;
    Alcotest.test_case "session admits on the 6x6 tile mesh" `Quick
      test_session_admits_tiles;
    Alcotest.test_case "precheck counters on five workloads" `Quick
      test_precheck_counters;
    Alcotest.test_case "m250 admission counters" `Quick test_m250;
    Alcotest.test_case "failure recovery counters" `Quick test_failure_recovery;
  ]
