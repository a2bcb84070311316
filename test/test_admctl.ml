(* Admission-control sessions: warm-started fixpoints must be
   observationally identical to cold batch analysis, traces must replay
   deterministically, and user-level mistakes must reject (GMF014/GMF015/
   lint) instead of raising. *)

module Session = Gmf_admctl.Session
module Replay = Gmf_admctl.Replay

let trace_of_string text =
  match Scenario_io.Admtrace.of_string text with
  | Ok t -> t
  | Error e -> Alcotest.failf "trace parse: %a" Scenario_io.Parse.pp_error e

let scenario_of_string text =
  match Scenario_io.Parse.scenario_of_string text with
  | Ok s -> s
  | Error e ->
      Alcotest.failf "scenario parse: %a" Scenario_io.Parse.pp_error e

(* One switch, four phones — small enough that every event converges. *)
let star_prologue =
  "node h0 endhost\nnode h1 endhost\nnode h2 endhost\nnode h3 endhost\n\
   node sw switch\n\
   duplex h0 sw rate=100M prop=2us\nduplex h1 sw rate=100M prop=2us\n\
   duplex h2 sw rate=100M prop=2us\nduplex h3 sw rate=100M prop=2us\n\
   switch sw ports=4 cpus=1 croute=2.7us csend=1us\n"

(* Two stars with no link between them: flows of one cluster cannot
   interfere with the other, so churn on one side warm-starts the other. *)
let clusters_prologue =
  "node a0 endhost\nnode a1 endhost\nnode b0 endhost\nnode b1 endhost\n\
   node swa switch\nnode swb switch\n\
   duplex a0 swa rate=100M\nduplex a1 swa rate=100M\n\
   duplex b0 swb rate=100M\nduplex b1 swb rate=100M\n\
   switch swa ports=2 cpus=1 croute=2.7us csend=1us\n\
   switch swb ports=2 cpus=1 croute=2.7us csend=1us\n"

let admit_block ?(prio = 5) ~name ~src ~dst () =
  Printf.sprintf
    "admit flow %s from=%s to=%s prio=%d encap=rtp\n\
    \  frame period=20ms deadline=150ms payload=160B\nend\n"
    name src dst prio

(* ------------------------------------------------------------------ *)
(* Session basics                                                     *)
(* ------------------------------------------------------------------ *)

let test_replay_lifecycle () =
  let trace =
    trace_of_string
      (star_prologue
      ^ admit_block ~name:"c0" ~src:"h0" ~dst:"h1" ()
      ^ admit_block ~name:"c1" ~src:"h2" ~dst:"h3" ~prio:6 ()
      ^ "remove c0\nquery\n")
  in
  let { Replay.outcomes; session } = Replay.run trace in
  Alcotest.(check (list bool))
    "accept flags" [ true; true; true; true ]
    (List.map (fun (o : Session.outcome) -> o.Session.accepted) outcomes);
  Alcotest.(check (list int))
    "flow counts" [ 1; 2; 1; 1 ]
    (List.map (fun (o : Session.outcome) -> o.Session.flow_count) outcomes);
  Alcotest.(check int) "final flows" 1 (Session.flow_count session);
  Alcotest.(check (list string))
    "final names" [ "c1" ]
    (List.map (fun f -> f.Traffic.Flow.name) (Session.flows session));
  Alcotest.(check bool) "final verdict" true
    (Analysis.Holistic.is_schedulable (Session.report session));
  let s = Session.summary session in
  Alcotest.(check int) "events" 4 s.Session.events;
  Alcotest.(check int) "query runs no fixpoint" 0
    (List.nth outcomes 3).Session.rounds

let test_duplicate_id_rejects () =
  let scenario =
    scenario_of_string
      (star_prologue ^ "flow c0 from=h0 to=h1 prio=7\n"
     ^ "  frame period=20ms deadline=150ms payload=160B\nend\n")
  in
  let flow = List.hd (Traffic.Scenario.flows scenario) in
  let session =
    Session.create ~topo:(Traffic.Scenario.topo scenario) ()
  in
  let first = Session.apply session (Session.Admit flow) in
  Alcotest.(check bool) "first admit" true first.Session.accepted;
  (* Same id again (even under another parse) must reject, not raise. *)
  let dup = Session.apply session (Session.Admit flow) in
  Alcotest.(check bool) "duplicate rejected" false dup.Session.accepted;
  Alcotest.(check int) "no fixpoint ran" 0 dup.Session.rounds;
  Alcotest.(check (list string))
    "GMF014" [ "GMF014" ]
    (List.map (fun d -> d.Gmf_diag.code) dup.Session.diagnostics);
  Alcotest.(check int) "set untouched" 1 (Session.flow_count session)

let test_unknown_id_rejects () =
  let trace = trace_of_string star_prologue in
  let session =
    Session.create ~switches:trace.Scenario_io.Admtrace.switches
      ~topo:trace.Scenario_io.Admtrace.topo ()
  in
  let rm = Session.apply session (Session.Remove 9) in
  Alcotest.(check bool) "remove rejected" false rm.Session.accepted;
  Alcotest.(check (list string))
    "GMF015" [ "GMF015" ]
    (List.map (fun d -> d.Gmf_diag.code) rm.Session.diagnostics);
  let scenario =
    scenario_of_string
      (star_prologue ^ "flow ghost from=h0 to=h1 prio=7\n"
     ^ "  frame period=20ms deadline=150ms payload=160B\nend\n")
  in
  let ghost = List.hd (Traffic.Scenario.flows scenario) in
  let up = Session.apply session (Session.Update ghost) in
  Alcotest.(check bool) "update rejected" false up.Session.accepted;
  Alcotest.(check (list string))
    "GMF015 again" [ "GMF015" ]
    (List.map (fun d -> d.Gmf_diag.code) up.Session.diagnostics)

let test_lint_gate_rejects_duplicate_name () =
  let trace =
    trace_of_string
      (star_prologue
      ^ admit_block ~name:"c0" ~src:"h0" ~dst:"h1" ()
      ^ admit_block ~name:"c0" ~src:"h2" ~dst:"h3" ())
  in
  let { Replay.outcomes; session } = Replay.run trace in
  let dup = List.nth outcomes 1 in
  Alcotest.(check bool) "rejected" false dup.Session.accepted;
  Alcotest.(check int) "no fixpoint" 0 dup.Session.rounds;
  Alcotest.(check bool) "GMF001 present" true
    (List.exists
       (fun d -> d.Gmf_diag.code = "GMF001")
       dup.Session.diagnostics);
  Alcotest.(check int) "set untouched" 1 (Session.flow_count session)

(* ------------------------------------------------------------------ *)
(* Warm-start bookkeeping                                             *)
(* ------------------------------------------------------------------ *)

let test_start_kinds () =
  (* Disjoint clusters: removing cluster A's only flow leaves cluster B
     outside the interference closure, so the refresh starts warm.  On a
     shared star the closure swallows everything — cold reset. *)
  let clusters =
    trace_of_string
      (clusters_prologue
      ^ admit_block ~name:"fa" ~src:"a0" ~dst:"a1" ()
      ^ admit_block ~name:"fb" ~src:"b0" ~dst:"b1" ~prio:6 ()
      ^ "remove fa\n")
  in
  let { Replay.outcomes; _ } = Replay.run clusters in
  Alcotest.(check string) "clustered removal stays warm" "warm"
    (Format.asprintf "%a" Session.pp_start
       (List.nth outcomes 2).Session.start);
  let star =
    trace_of_string
      (star_prologue
      ^ admit_block ~name:"c0" ~src:"h0" ~dst:"h1" ()
      ^ admit_block ~name:"c1" ~src:"h2" ~dst:"h3" ~prio:6 ()
      ^ "remove c0\n")
  in
  let { Replay.outcomes; _ } = Replay.run star in
  Alcotest.(check string) "shared-switch removal resets cold" "cold"
    (Format.asprintf "%a" Session.pp_start
       (List.nth outcomes 2).Session.start)

(* ------------------------------------------------------------------ *)
(* Degraded mode: fail link / restore link                            *)
(* ------------------------------------------------------------------ *)

let triangle_prologue =
  "node h0 endhost\nnode h1 endhost\n\
   node s0 switch\nnode s1 switch\nnode s2 switch\n\
   duplex h0 s0 rate=100M\nduplex h1 s1 rate=100M\n\
   duplex s0 s1 rate=100M\nduplex s0 s2 rate=100M\nduplex s2 s1 rate=100M\n\
   switch s0 ports=3 cpus=1 croute=2.7us csend=1us\n\
   switch s1 ports=3 cpus=1 croute=2.7us csend=1us\n\
   switch s2 ports=2 cpus=1 croute=2.7us csend=1us\n"

let test_fail_and_restore_link () =
  let prefix =
    triangle_prologue
    ^ "admit flow f from=h0 to=h1 route=h0,s0,s1,h1 prio=5 encap=rtp\n\
      \  frame period=20ms deadline=150ms payload=160B\nend\n\
       fail link s0 s1\n"
  in
  (* Stop right after the fail: the outage must be on the books. *)
  let { Replay.session = degraded; _ } =
    Replay.run (trace_of_string prefix)
  in
  Alcotest.(check (list (pair int int)))
    "failed link recorded" [ (2, 3) ]
    (Session.failed_links degraded);
  let trace =
    trace_of_string
      (prefix
      ^ "admit flow g from=h0 to=h1 route=h0,s0,s1,h1 prio=4 encap=udp\n\
        \  frame period=20ms deadline=150ms payload=160B\nend\n\
         fail link s0 s1\n\
         restore link s2 s1\n\
         restore link s0 s1\n")
  in
  let { Replay.outcomes; session } = Replay.run trace in
  let nth = List.nth outcomes in
  (* #1 fail: the pinned flow is rerouted over s2 and stays admitted. *)
  let fail = nth 1 in
  Alcotest.(check bool) "fail accepted" true fail.Session.accepted;
  (match fail.Session.degradation with
  | Some { Session.rerouted = [ f ]; shed = [] } ->
      Alcotest.(check (list bool))
        "reroute avoids the failed link" [ false ]
        (List.map
           (fun (r : Traffic.Flow.t) ->
             List.exists
               (fun hop -> hop = (2, 3) || hop = (3, 2))
               (Network.Route.hops r.Traffic.Flow.route))
           [ f ])
  | _ -> Alcotest.fail "expected one rerouted flow, none shed");
  (* #2 admit over the failed link rejects with GMF016, no fixpoint. *)
  let late = nth 2 in
  Alcotest.(check bool) "admit over failure rejected" false
    late.Session.accepted;
  Alcotest.(check (list string))
    "GMF016" [ "GMF016" ]
    (List.map (fun d -> d.Gmf_diag.code) late.Session.diagnostics);
  Alcotest.(check int) "no fixpoint" 0 late.Session.rounds;
  (* #3 duplicate fail and #4 restore of a healthy link both reject. *)
  Alcotest.(check (list bool))
    "duplicate fail / bogus restore rejected" [ false; false ]
    [ (nth 3).Session.accepted; (nth 4).Session.accepted ];
  (* #5 restore succeeds without a fixpoint; the flow keeps its degraded
     route until re-admitted. *)
  let restore = nth 5 in
  Alcotest.(check bool) "restore accepted" true restore.Session.accepted;
  Alcotest.(check int) "restore runs no fixpoint" 0 restore.Session.rounds;
  Alcotest.(check (list (pair int int)))
    "no failed links left" []
    (Session.failed_links session);
  match Session.flows session with
  | [ f ] ->
      Alcotest.(check bool) "still on the detour via s2" true
        (Network.Route.mem f.Traffic.Flow.route 4)
  | flows -> Alcotest.failf "expected one flow, got %d" (List.length flows)

let test_summary_counters_match_metrics () =
  let reg = Gmf_obs.Metrics.default in
  Gmf_obs.Metrics.set_enabled reg true;
  Gmf_obs.Metrics.reset reg;
  Fun.protect
    ~finally:(fun () -> Gmf_obs.Metrics.set_enabled reg false)
    (fun () ->
      let trace =
        trace_of_string
          (star_prologue
          ^ admit_block ~name:"c0" ~src:"h0" ~dst:"h1" ()
          ^ admit_block ~name:"c1" ~src:"h2" ~dst:"h3" ~prio:6 ()
          ^ "remove c0\nquery\n")
      in
      let { Replay.session; _ } = Replay.run ~shadow:true trace in
      let s = Session.summary session in
      let counter name =
        Gmf_obs.Metrics.counter_value (Gmf_obs.Metrics.counter reg name)
      in
      Alcotest.(check int) "admctl.events" s.Session.events
        (counter "admctl.events");
      Alcotest.(check int) "admctl.warm_hits" s.Session.warm_hits
        (counter "admctl.warm_hits");
      Alcotest.(check int) "admctl.cold_resets" s.Session.cold_resets
        (counter "admctl.cold_resets");
      Alcotest.(check int) "admctl.rounds_saved" s.Session.rounds_saved
        (counter "admctl.rounds_saved");
      (* two admits and one remove run a fixpoint; the query does not *)
      Alcotest.(check int) "fixpoints = warm + cold" 3
        (s.Session.warm_hits + s.Session.cold_resets))

(* ------------------------------------------------------------------ *)
(* Warm == cold (the tentpole property)                               *)
(* ------------------------------------------------------------------ *)

let bounds_of report =
  List.map
    (fun res ->
      ( res.Analysis.Result_types.flow.Traffic.Flow.id,
        Array.to_list
          (Array.map
             (fun fr -> fr.Analysis.Result_types.total)
             res.Analysis.Result_types.frames) ))
    report.Analysis.Holistic.results

let verdict_kind = function
  | Analysis.Holistic.Schedulable -> "schedulable"
  | Analysis.Holistic.Deadline_miss _ -> "deadline-miss"
  | Analysis.Holistic.Analysis_failed _ -> "failed"
  | Analysis.Holistic.No_fixed_point _ -> "divergent"

(* Random traces over a switch triangle: interleaved admits (occasionally
   heavy enough to be rejected), removals, updates, queries and
   fail/restore of the switch-to-switch links.  The third switch s2 gives
   the cross-cluster flows an alternate path, so a [fail link s0 s1]
   exercises the reroute-and-warm-start machinery, not just shedding. *)
let gen_trace_text rng =
  let open Gmf_util in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "node h0 endhost\nnode h1 endhost\nnode h2 endhost\nnode h3 endhost\n\
     node s0 switch\nnode s1 switch\nnode s2 switch\n\
     duplex h0 s0 rate=100M\nduplex h1 s0 rate=100M\n\
     duplex h2 s1 rate=100M\nduplex h3 s1 rate=100M\n\
     duplex s0 s1 rate=100M\nduplex s0 s2 rate=100M\n\
     duplex s2 s1 rate=100M\n\
     switch s0 ports=4 cpus=1 croute=2.7us csend=1us\n\
     switch s1 ports=4 cpus=1 croute=2.7us csend=1us\n\
     switch s2 ports=2 cpus=1 croute=2.7us csend=1us\n";
  let hosts = [| "h0"; "h1"; "h2"; "h3" |] in
  let active = ref [] in
  let fresh = ref 0 in
  let flow_block keyword name =
    let src = Rng.pick rng hosts in
    let dst = ref (Rng.pick rng hosts) in
    while !dst = src do dst := Rng.pick rng hosts done;
    Buffer.add_string buf
      (Printf.sprintf "%s flow %s from=%s to=%s prio=%d encap=rtp\n" keyword
         name src !dst (Rng.int rng 8));
    for _ = 0 to Rng.int rng 2 do
      Buffer.add_string buf
        (Printf.sprintf
           "  frame period=%dms deadline=%dms jitter=%dus payload=%dB\n"
           (1 + Rng.int rng 10)
           (1 + Rng.int rng 30)
           (Rng.int rng 500)
           (60 + Rng.int rng 20000))
    done;
    Buffer.add_string buf "end\n"
  in
  (* Fault churn on the relay links.  Duplicate fails and restores of a
     healthy link are generated on purpose: the session must reject them
     (GMF016) without raising, and the shadow check still applies to the
     fixpoints the valid ones run. *)
  let relay_links = [| ("s0", "s1"); ("s0", "s2"); ("s2", "s1") |] in
  let failed = ref [] in
  let n_events = 4 + Rng.int rng 8 in
  for _ = 1 to n_events do
    match Rng.int rng 8 with
    | 0 | 1 | 2 ->
        let name = Printf.sprintf "f%d" !fresh in
        incr fresh;
        flow_block "admit" name;
        if not (List.mem name !active) then active := name :: !active
    | 3 when !active <> [] ->
        let name = List.nth !active (Rng.int rng (List.length !active)) in
        active := List.filter (fun n -> n <> name) !active;
        Buffer.add_string buf (Printf.sprintf "remove %s\n" name)
    | 4 when !active <> [] ->
        let name = List.nth !active (Rng.int rng (List.length !active)) in
        flow_block "update" name
    | 5 ->
        let (a, b) = Rng.pick rng relay_links in
        if not (List.mem (a, b) !failed) then failed := (a, b) :: !failed;
        Buffer.add_string buf (Printf.sprintf "fail link %s %s\n" a b)
    | 6 ->
        let (a, b) = Rng.pick rng relay_links in
        failed := List.filter (fun l -> l <> (a, b)) !failed;
        Buffer.add_string buf (Printf.sprintf "restore link %s %s\n" a b)
    | _ -> Buffer.add_string buf "query\n"
  done;
  Buffer.contents buf

(* The whole-set warm chain admits used to run, kept as the oracle of the
   delta run that replaced it: {!Analysis.Holistic.run_from} over the
   full tentative set, seeded with the results of the committed set's
   fixpoint when the committed report converged, else a cold run.  The
   seed is re-run here without a round cap: a converged committed report
   sits at the least fixed point of the committed set, which is what the
   chain kept. *)
let chain_oracle ~config (trace : Scenario_io.Admtrace.t) ~committed
    ~converged candidate =
  let scenario flows =
    Traffic.Scenario.make ~switches:trace.Scenario_io.Admtrace.switches
      ~topo:trace.Scenario_io.Admtrace.topo ~flows ()
  in
  let ctx = Analysis.Ctx.create ~config (scenario (candidate :: committed)) in
  if converged then begin
    let lfp = Analysis.Holistic.analyze (scenario committed) in
    ( Session.Warm,
      Analysis.Holistic.run_from ctx ~init:lfp.Analysis.Holistic.results )
  end
  else (Session.Cold, Analysis.Holistic.run ctx)

(* Replays [trace] into a warm session and checks every admit that ran a
   fixpoint against {!chain_oracle}: same start, rounds, verdict kind and
   bounds.  Returns how many of them the oracle started cold. *)
let check_admits_against_chain ~config trace text =
  let session =
    Session.create ~config ~switches:trace.Scenario_io.Admtrace.switches
      ~topo:trace.Scenario_io.Admtrace.topo ()
  in
  List.fold_left
    (fun colds (_line, ev) ->
      let committed = Session.flows session in
      let converged =
        Analysis.Holistic.converged
          (Session.report session).Analysis.Holistic.verdict
      in
      let event = Replay.session_event ev in
      let o = Session.apply session event in
      match event with
      | Session.Admit flow when o.Session.start <> Session.Skipped ->
          let start, chain =
            chain_oracle ~config trace ~committed ~converged flow
          in
          let rounds = chain.Analysis.Holistic.rounds in
          if
            start <> o.Session.start
            || rounds <> o.Session.rounds
            || verdict_kind chain.Analysis.Holistic.verdict
               <> verdict_kind o.Session.verdict
          then
            QCheck.Test.fail_reportf
              "event #%d (%s): %a %d rounds (%s), whole-set chain %a %d \
               rounds (%s)@\n%s"
              o.Session.seq o.Session.label Session.pp_start o.Session.start
              o.Session.rounds
              (verdict_kind o.Session.verdict)
              Session.pp_start start rounds
              (verdict_kind chain.Analysis.Holistic.verdict)
              text
          else if
            o.Session.accepted
            && bounds_of chain <> bounds_of (Session.report session)
          then
            QCheck.Test.fail_reportf
              "event #%d (%s): bounds differ from the whole-set chain@\n%s"
              o.Session.seq o.Session.label text
          else if start = Session.Cold then colds + 1
          else colds
      | _ -> colds)
    0 trace.Scenario_io.Admtrace.events

(* A warm session agrees with the cold batch analysis: every fixpoint
   with its cold shadow, and the final committed report with a
   from-scratch analysis of the final admitted set. *)
let check_warm_equals_cold trace text =
  let { Replay.outcomes; session } = Replay.run ~shadow:true trace in
  (* 1. every warm fixpoint agreed with its cold shadow *)
  List.iter
    (fun o ->
      match o.Session.shadow with
      | Some { Session.equivalent = false; cold_rounds } ->
          QCheck.Test.fail_reportf
            "event #%d (%s): warm disagrees with cold (%d rounds)@\n%s"
            o.Session.seq o.Session.label cold_rounds text
      | _ -> ())
    outcomes;
  (* 2. the committed state equals a from-scratch analysis of the
     final admitted set *)
  let final = Session.flows session in
  if final = [] then true
  else begin
    let scenario =
      Traffic.Scenario.make ~switches:trace.Scenario_io.Admtrace.switches
        ~topo:trace.Scenario_io.Admtrace.topo ~flows:final ()
    in
    let cold = Analysis.Holistic.analyze scenario in
    let warm = Session.report session in
    if
      verdict_kind cold.Analysis.Holistic.verdict
      <> verdict_kind warm.Analysis.Holistic.verdict
    then
      QCheck.Test.fail_reportf "final verdicts differ: %s vs %s@\n%s"
        (verdict_kind warm.Analysis.Holistic.verdict)
        (verdict_kind cold.Analysis.Holistic.verdict)
        text
    else if bounds_of cold <> bounds_of warm then
      QCheck.Test.fail_reportf "final bounds differ@\n%s" text
    else true
  end

(* Replays [events] into a fresh session and holds the diagnostics of
   every admit or update that reached the gates to the gates run from
   scratch: [Lint.run] on a scenario built afresh from the tentative flow
   set, then, when lint found no error, the precheck diagnostics — both
   without a table, so whatever the session's gates reused must not
   show. *)
let check_gates_from_scratch ~config ~switches ~topo events text =
  let session = Session.create ~config ~switches ~topo () in
  let render = List.map Gmf_diag.to_string in
  List.iter
    (fun event ->
      let committed = Session.flows session in
      let failed =
        List.concat_map
          (fun (a, b) -> [ (a, b); (b, a) ])
          (Session.failed_links session)
      in
      let o = Session.apply session event in
      let holds (f : Traffic.Flow.t) =
        List.exists
          (fun (g : Traffic.Flow.t) -> g.Traffic.Flow.id = f.Traffic.Flow.id)
          committed
      in
      let others (f : Traffic.Flow.t) =
        List.filter
          (fun (g : Traffic.Flow.t) -> g.Traffic.Flow.id <> f.Traffic.Flow.id)
          committed
      in
      let tentative =
        match event with
        | Session.Admit f when not (holds f) -> Some (f, f :: committed)
        | Session.Update f when holds f -> Some (f, f :: others f)
        | _ -> None
      in
      match tentative with
      | Some (f, flows)
        when not
               (Network.Route.crosses f.Traffic.Flow.route ~links:failed
                  ~nodes:[]) ->
          let scenario = Traffic.Scenario.make ~switches ~topo ~flows () in
          let lint = Gmf_lint.Lint.run ~config scenario in
          let expected =
            if Gmf_lint.Lint.errors lint <> [] then lint.Gmf_lint.Lint.diagnostics
            else
              lint.Gmf_lint.Lint.diagnostics
              @ Gmf_precheck.Precheck.diagnostics
                  (Gmf_precheck.Precheck.run ~config scenario)
          in
          if render expected <> render o.Session.diagnostics then
            QCheck.Test.fail_reportf
              "event #%d (%s): gate diagnostics@\n%s@\ndiffer from the gates \
               run from scratch@\n%s@\n%s"
              o.Session.seq o.Session.label
              (String.concat "\n" (render o.Session.diagnostics))
              (String.concat "\n" (render expected))
              text
      | _ -> ())
    events

let check_trace_gates ~config (trace : Scenario_io.Admtrace.t) text =
  check_gates_from_scratch ~config
    ~switches:trace.Scenario_io.Admtrace.switches
    ~topo:trace.Scenario_io.Admtrace.topo
    (List.map
       (fun (_line, ev) -> Replay.session_event ev)
       trace.Scenario_io.Admtrace.events)
    text

(* Every trace is held to cold equivalence under the default config.
   Every third trace is also replayed with the holistic iteration capped
   at two rounds and held to the chain oracle under that cap.  These
   random traces never commit an unconverged report, even under a cap,
   so the cold fallback after one is covered by
   [test_unconverged_commit_falls_back]. *)
let capped_config =
  { Analysis.Config.default with Analysis.Config.max_holistic_rounds = 2 }

let prop_warm_equals_cold =
  QCheck.Test.make ~name:"warm session == cold batch on random traces"
    ~count:60
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Gmf_util.Rng.create ~seed in
      let text = gen_trace_text rng in
      let trace = trace_of_string text in
      let configs =
        if seed mod 3 = 0 then [ Analysis.Config.default; capped_config ]
        else [ Analysis.Config.default ]
      in
      List.iter
        (fun config ->
          ignore (check_admits_against_chain ~config trace text);
          check_trace_gates ~config trace text)
        configs;
      check_warm_equals_cold trace text)

(* [f] with every deadline scaled by [factor]: a tight one fails
   lint (GMF202) or precheck (GMF018). *)
let tighten (f : Traffic.Flow.t) factor =
  let frame (fr : Gmf.Frame_spec.t) =
    Gmf.Frame_spec.make ~period:fr.Gmf.Frame_spec.period
      ~deadline:
        (max 1
           (int_of_float (float_of_int fr.Gmf.Frame_spec.deadline *. factor)))
      ~jitter:fr.Gmf.Frame_spec.jitter
      ~payload_bits:fr.Gmf.Frame_spec.payload_bits
  in
  Traffic.Flow.make ~id:f.Traffic.Flow.id ~name:f.Traffic.Flow.name
    ~spec:
      (Gmf.Spec.make
         (List.map frame (Array.to_list (Gmf.Spec.frames f.Traffic.Flow.spec))))
    ~encap:f.Traffic.Flow.encap ~route:f.Traffic.Flow.route
    ~priority:f.Traffic.Flow.priority

(* The gate oracle on the 2x6 tile mesh, whose interference graph has
   one component per tile: every tile's flows are admitted in a random
   order, then random admits, removes, updates (payloads rescaled or
   deadlines tightened), fails and restores of the tile links follow.  Each trace
   must also reuse flows in lint and components in precheck, or the
   oracle would hold vacuously. *)
let tile_mesh = lazy (Test_gates.tile_mesh ~rows:2 ~cols:6)

let prop_gates_from_scratch_tiles =
  QCheck.Test.make ~name:"session gates == gates from scratch on a tile mesh"
    ~count:15
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let scenario, domain = Lazy.force tile_mesh in
      let rng = Gmf_util.Rng.create ~seed in
      let pool = Array.of_list (Traffic.Scenario.flows scenario) in
      let links =
        Array.of_list
          (List.filter_map
             (function Gmf_faults.Survive.Link (a, b) -> Some (a, b) | _ -> None)
             domain)
      in
      let pick a = a.(Gmf_util.Rng.int rng (Array.length a)) in
      let order = Array.map (fun f -> (Gmf_util.Rng.int rng 1_000_000, f)) pool in
      Array.sort compare order;
      let base =
        Array.to_list (Array.map (fun (_, f) -> Session.Admit f) order)
      in
      let edits =
        List.init 30 (fun _ ->
            match Gmf_util.Rng.int rng 10 with
            | 0 | 1 | 2 -> Session.Admit (pick pool)
            | 3 | 4 -> Session.Remove (pick pool).Traffic.Flow.id
            | 5 | 6 ->
                Session.Update
                  (Traffic.Flow.scale_payloads (pick pool)
                     (pick [| 0.5; 2.; 8. |]))
            | 7 -> Session.Update (tighten (pick pool) (pick [| 0.002; 0.01; 0.03 |]))
            | 8 ->
                let a, b = pick links in
                Session.Fail_link (a, b)
            | _ ->
                let a, b = pick links in
                Session.Restore_link (a, b))
      in
      let (), counter =
        Test_gates.with_counters (fun () ->
            check_gates_from_scratch ~config:Analysis.Config.default
              ~switches:[] ~topo:(Traffic.Scenario.topo scenario)
              (base @ edits)
              (Printf.sprintf "tile mesh, seed %d" seed))
      in
      counter "lint.flows_reused" > 0
      && counter "precheck.components_reused" > 0)

(* A committed report that never converged: on a line of four switches,
   seven long-haul flows each admit within three rounds, but removing
   lh1 leaves a set whose cold restart needs four.  Under a three-round
   cap the removal commits [No_fixed_point], and the events after it take
   the delta engine's cold fallback — as the whole-set chain did. *)
let test_unconverged_commit_falls_back () =
  let buf = Buffer.create 2048 in
  for s = 0 to 3 do
    Printf.bprintf buf
      "node l%d endhost\nnode ls%d switch\nduplex l%d ls%d rate=10M\n" s s s s;
    if s > 0 then Printf.bprintf buf "duplex ls%d ls%d rate=10M\n" (s - 1) s
  done;
  for s = 0 to 3 do
    Printf.bprintf buf "switch ls%d ports=3 cpus=1 croute=2.7us csend=1us\n" s
  done;
  let admit i (src, dst, prio, period, jitter, payload) =
    Printf.bprintf buf
      "admit flow lh%d from=l%d to=l%d prio=%d encap=udp\n\
      \  frame period=%dms deadline=900ms jitter=%dms payload=%dB\nend\n"
      i src dst prio period jitter payload
  in
  List.iteri admit
    [
      (3, 0, 2, 54, 0, 3000); (1, 2, 1, 33, 3, 6000); (2, 1, 7, 70, 1, 16000);
      (1, 0, 0, 31, 3, 13000); (3, 1, 5, 60, 3, 12000);
      (3, 1, 2, 56, 1, 20000); (1, 0, 5, 58, 1, 16000);
    ];
  Buffer.add_string buf "remove lh1\n";
  admit 7 (0, 3, 4, 40, 0, 2000);
  admit 8 (2, 3, 6, 50, 1, 1000);
  Buffer.add_string buf "remove lh0\nquery\n";
  let text = Buffer.contents buf in
  let config =
    { Analysis.Config.default with Analysis.Config.max_holistic_rounds = 3 }
  in
  let trace = trace_of_string text in
  let { Replay.outcomes; _ } = Replay.run ~config trace in
  Alcotest.(check (list string))
    "starts" [ "warm"; "warm"; "warm"; "warm"; "warm"; "warm"; "warm";
               "cold"; "cold"; "cold"; "cold"; "-" ]
    (List.map
       (fun (o : Session.outcome) ->
         Format.asprintf "%a" Session.pp_start o.Session.start)
       outcomes);
  Alcotest.(check string) "remove lh1 commits" "divergent"
    (verdict_kind (List.nth outcomes 7).Session.verdict);
  Alcotest.(check int) "admits started cold by the chain oracle" 2
    (check_admits_against_chain ~config trace text);
  (* Every cold start (the whole-set restart of remove lh1 and the
     fallbacks after it) runs exactly the shadow's cold analysis. *)
  let { Replay.outcomes; _ } = Replay.run ~config ~shadow:true trace in
  let colds =
    List.filter_map
      (fun (o : Session.outcome) ->
        match (o.Session.start, o.Session.shadow) with
        | Session.Cold, Some { Session.cold_rounds; equivalent } ->
            Some ((o.Session.rounds, equivalent), (cold_rounds, true))
        | _ -> None)
      outcomes
  in
  Alcotest.(check (list (pair int bool)))
    "cold starts: rounds/equivalent == shadow"
    (List.map snd colds) (List.map fst colds);
  Alcotest.(check int) "cold starts shadowed" 4 (List.length colds)

let prop_trace_parser_total =
  QCheck.Test.make ~name:"admtrace parser never raises on garbage"
    ~count:300
    QCheck.(string_of_size (Gen.int_range 0 400))
    (fun text ->
      match Scenario_io.Admtrace.of_string text with
      | Ok _ -> true
      | Error e -> e.Scenario_io.Parse.line >= 0)

(* ------------------------------------------------------------------ *)
(* Trace parse errors (golden caret diagnostics)                      *)
(* ------------------------------------------------------------------ *)

let check_parse_error ~text ~rendered () =
  match Scenario_io.Admtrace.of_string text with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error e ->
      Alcotest.(check string)
        "rendering" rendered
        (Format.asprintf "%a" Scenario_io.Parse.pp_error e)

let test_parse_errors () =
  (* Topology after the first event: the prologue is frozen. *)
  check_parse_error
    ~text:
      (star_prologue
      ^ admit_block ~name:"c0" ~src:"h0" ~dst:"h1" ()
      ^ "node late endhost\n")
    ~rendered:
      "line 14: topology directives must precede the first event\n\
      \  node late endhost"
    ();
  (* Removing a name that is not active points a caret at the name. *)
  check_parse_error ~text:(star_prologue ^ "remove nobody\n")
    ~rendered:
      "line 11, column 8: remove of a flow that is not active: \"nobody\"\n\
      \  remove nobody\n\
      \         ^"
    ();
  (* The scenario keyword 'flow' is redirected to 'admit flow'. *)
  check_parse_error
    ~text:(star_prologue ^ "flow c0 from=h0 to=h1 prio=7\n")
    ~rendered:
      "line 11: admission traces admit flows with 'admit flow ...', not \
       'flow ...'\n\
      \  flow c0 from=h0 to=h1 prio=7"
    ();
  (* Unclosed admit block. *)
  check_parse_error
    ~text:(star_prologue ^ "admit flow c0 from=h0 to=h1 prio=7\n")
    ~rendered:"line 11: flow \"c0\" not closed by 'end'\n\
              \  admit flow c0 from=h0 to=h1 prio=7"
    ()

(* ------------------------------------------------------------------ *)
(* Analysis.Admission duplicate-id satellite                          *)
(* ------------------------------------------------------------------ *)

let test_admission_duplicate_id () =
  let scenario =
    scenario_of_string
      (star_prologue ^ "flow c0 from=h0 to=h1 prio=7\n"
     ^ "  frame period=20ms deadline=150ms payload=160B\nend\n")
  in
  let candidate = List.hd (Traffic.Scenario.flows scenario) in
  let decision = Analysis.Admission.admit scenario ~candidate in
  Alcotest.(check bool) "rejected" false decision.Analysis.Admission.admitted;
  Alcotest.(check int) "no fixpoint" 0
    decision.Analysis.Admission.report.Analysis.Holistic.rounds;
  Alcotest.(check (list string))
    "GMF014" [ "GMF014" ]
    (List.map
       (fun d -> d.Gmf_diag.code)
       decision.Analysis.Admission.diagnostics);
  (match decision.Analysis.Admission.report.Analysis.Holistic.verdict with
  | Analysis.Holistic.Analysis_failed [ _ ] -> ()
  | v ->
      Alcotest.failf "expected one synthetic failure, got %a"
        Analysis.Holistic.pp_verdict v)

(* The extended set of [Admission.admit] keeps the scenario's declared
   switch models: with every fig1 switch's CROUTE x40 the full set is
   unschedulable, so admitting its last flow into the rest must fail
   too.  Analysing it with default models instead admitted it. *)
let test_admission_keeps_switch_models () =
  let fig1 = Workload.Scenarios.fig1_videoconf () in
  let switches =
    List.map
      (fun n ->
        let m = Traffic.Scenario.switch_model fig1 n in
        ( n,
          Click.Switch_model.make
            ~croute:(40 * m.Click.Switch_model.croute)
            ~csend:m.Click.Switch_model.csend
            ~processors:m.Click.Switch_model.processors
            ~ninterfaces:m.Click.Switch_model.ninterfaces () ))
      (Traffic.Scenario.switch_nodes fig1)
  in
  let topo = Traffic.Scenario.topo fig1 in
  let flows = Traffic.Scenario.flows fig1 in
  let candidate = List.nth flows (List.length flows - 1) in
  let rest = List.filter (fun f -> f != candidate) flows in
  let full = Traffic.Scenario.make ~switches ~topo ~flows () in
  let base = Traffic.Scenario.make ~switches ~topo ~flows:rest () in
  Alcotest.(check bool)
    "full set rejected" false
    (Analysis.Admission.check full).Analysis.Admission.admitted;
  Alcotest.(check bool)
    "admit rejects" false
    (Analysis.Admission.admit base ~candidate).Analysis.Admission.admitted

(* A lint error about a node names no flow: its synthetic failure
   carries flow_id -1, not the node id (here switch s, node 2, which
   with more flows would name an unrelated flow). *)
let test_rejected_node_subject () =
  let scenario =
    scenario_of_string
      "node h0 endhost\nnode h1 endhost\nnode s switch\n\
       duplex h0 s rate=100M prop=2us\nduplex h1 s rate=100M prop=2us\n\
       switch s ports=2 cpus=1 croute=2ms csend=1us\n\
       flow f from=h0 to=h1 prio=7\n\
      \  frame period=1ms deadline=500ms payload=160B\nend\n"
  in
  let decision = Analysis.Admission.check scenario in
  Alcotest.(check (list string))
    "GMF203 on node s" [ "GMF203" ]
    (List.map
       (fun d -> d.Gmf_diag.code)
       (Gmf_diag.at_least Gmf_diag.Error decision.Analysis.Admission.diagnostics));
  match decision.Analysis.Admission.report.Analysis.Holistic.verdict with
  | Analysis.Holistic.Analysis_failed [ f ] ->
      Alcotest.(check int) "no flow id" (-1) f.Analysis.Result_types.flow_id
  | v ->
      Alcotest.failf "expected one synthetic failure, got %a"
        Analysis.Holistic.pp_verdict v

(* A survivable session sweeps every admit and update with a k=1
   survive run, which starts by emptying the component memo.  So after
   an accepted update the memo holds exactly what a fresh sweep of the
   committed scenario leaves behind, however many events came before. *)
let test_survivable_memo_bounded () =
  let spec =
    {
      Gmf_topogen.Gen_spec.default with
      family = Gmf_topogen.Gen_spec.Mesh { rows = 3; cols = 3; planes = 2 };
      hosts_per_switch = 2;
      flows = 40;
      max_util = 0.95;
      seed = 2;
    }
  in
  let generated =
    (Gmf_topogen.Topogen.generate spec).Gmf_topogen.Topogen.scenario
  in
  let topo = Traffic.Scenario.topo generated in
  let switches =
    List.map
      (fun n -> (n, Traffic.Scenario.switch_model generated n))
      (Traffic.Scenario.switch_nodes generated)
  in
  let session = Session.create ~survivable:1 ~switches ~topo () in
  List.iter
    (fun f -> ignore (Session.apply session (Session.Admit f)))
    (Traffic.Scenario.flows generated);
  let admitted = Session.flows session in
  Alcotest.(check bool) "some flows admitted" true (List.length admitted > 4);
  let updates =
    List.mapi
      (fun i f ->
        Session.apply session
          (Session.Update
             (Traffic.Flow.scale_payloads f (0.9 -. (0.1 *. float_of_int i)))))
      (List.filteri (fun i _ -> i < 3) admitted)
  in
  Alcotest.(check (list bool)) "updates accepted" [ true; true; true ]
    (List.map (fun (o : Session.outcome) -> o.Session.accepted) updates);
  let size () = Gmf_exec.Memo.size Analysis.Case.shared_memo in
  let after_session = size () in
  let committed =
    Traffic.Scenario.make ~switches ~topo ~flows:(Session.flows session) ()
  in
  (* The reference sweep starts from an empty table whatever
     [Survive.run] itself clears. *)
  Gmf_exec.Memo.clear Analysis.Case.shared_memo;
  ignore (Gmf_faults.Survive.run ~k:1 committed);
  Alcotest.(check bool) "the sweep fills the memo" true (size () > 0);
  Alcotest.(check int) "memo holds one sweep" (size ()) after_session

let tests =
  [
    Alcotest.test_case "replay lifecycle" `Quick test_replay_lifecycle;
    Alcotest.test_case "duplicate id rejects (GMF014)" `Quick
      test_duplicate_id_rejects;
    Alcotest.test_case "unknown id rejects (GMF015)" `Quick
      test_unknown_id_rejects;
    Alcotest.test_case "lint gate rejects duplicate name" `Quick
      test_lint_gate_rejects_duplicate_name;
    Alcotest.test_case "warm/cold start kinds" `Quick test_start_kinds;
    Alcotest.test_case "fail/restore link lifecycle" `Quick
      test_fail_and_restore_link;
    Alcotest.test_case "summary matches metrics counters" `Quick
      test_summary_counters_match_metrics;
    Alcotest.test_case "trace parse errors (caret goldens)" `Quick
      test_parse_errors;
    Alcotest.test_case "Admission.admit duplicate id" `Quick
      test_admission_duplicate_id;
    Alcotest.test_case "Admission.admit keeps switch models" `Quick
      test_admission_keeps_switch_models;
    Alcotest.test_case "Admission.rejected: node subject names no flow"
      `Quick test_rejected_node_subject;
    QCheck_alcotest.to_alcotest prop_warm_equals_cold;
    QCheck_alcotest.to_alcotest prop_gates_from_scratch_tiles;
    Alcotest.test_case "unconverged commit takes the cold fallback" `Quick
      test_unconverged_commit_falls_back;
    Alcotest.test_case "survivable session memo holds one sweep" `Quick
      test_survivable_memo_bounded;
    QCheck_alcotest.to_alcotest prop_trace_parser_total;
  ]
