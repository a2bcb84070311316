(* gmfnet - command-line front end: one subcommand per section below,
   grouped into the [gmfnet] command at the end of the file
   ([gmfnet --help] lists them; [gmfnet list] names the scenarios and
   the experiments E1..E19). *)

open Cmdliner
open Gmf_util

(* ------------------------------------------------------------------ *)
(* Named scenarios                                                    *)
(* ------------------------------------------------------------------ *)

let scenarios =
  [
    ("fig1",
     "the paper's Figure 1 network with video conferencing + VoIP + bulk",
     fun rate -> Workload.Scenarios.fig1_videoconf ?rate_bps:rate ());
    ("voip",
     "G.711 calls crossing a single software switch",
     fun rate -> Workload.Scenarios.single_switch_voip ?rate_bps:rate ());
    ("chain",
     "an MPEG flow over a chain of switches with VoIP cross traffic",
     fun rate -> Workload.Scenarios.multihop_chain ?rate_bps:rate ());
    ("enterprise",
     "an access/core tree: VoIP + video + backups converging on a server",
     fun rate -> Workload.Scenarios.enterprise ?rate_bps:rate ());
  ]

(* Named scenarios carry no fault schedule; files may declare one with
   [fault] directives.  Only [simulate] consumes the schedule. *)
let build_scenario_faults ?file name rate =
  match file with
  | Some _ when rate <> None ->
      Error "--rate applies to named scenarios (-s), not to --file"
  | Some path -> (
      match Scenario_io.Parse.scenario_faults_of_file path with
      | Ok parsed ->
          Ok
            ( parsed.Scenario_io.Parse.scenario,
              parsed.Scenario_io.Parse.faults )
      | Error e ->
          Error (Format.asprintf "%s: %a" path Scenario_io.Parse.pp_error e))
  | None -> (
      match List.find_opt (fun (n, _, _) -> n = name) scenarios with
      | Some (_, _, f) -> Ok (f rate, Gmf_faults.Fault.empty)
      | None ->
          Error
            (Printf.sprintf "unknown scenario %S (try: %s)" name
               (String.concat ", " (List.map (fun (n, _, _) -> n) scenarios))))

let build_scenario ?file name rate =
  Result.map fst (build_scenario_faults ?file name rate)

(* ------------------------------------------------------------------ *)
(* Common arguments                                                   *)
(* ------------------------------------------------------------------ *)

let scenario_arg =
  let doc = "Named scenario to operate on (see $(b,gmfnet list))." in
  Arg.(value & opt string "fig1" & info [ "s"; "scenario" ] ~docv:"NAME" ~doc)

let file_arg =
  let doc =
    "Load the scenario from a description file instead of a named scenario      (see lib/scenario_io/parse.mli for the grammar)."
  in
  Arg.(value & opt (some file) None & info [ "f"; "file" ] ~docv:"PATH" ~doc)

let variant_arg =
  let doc =
    "Analysis variant: $(b,repaired) (default), $(b,faithful) \
     (paper-literal equations; see DESIGN.md repairs R1/R2/R7), or \
     $(b,tight) (repaired + tight jitter propagation)."
  in
  let variant =
    Arg.enum
      [
        ("repaired", Analysis.Config.default);
        ("faithful", Analysis.Config.faithful);
        ("tight", Analysis.Config.tight);
      ]
  in
  Arg.(value & opt variant Analysis.Config.default & info [ "variant" ] ~doc)

(* An integer option restricted to [lo..hi]: a value outside the range
   is a usage error (exit 124), like every other bad option value. *)
let int_in ?(hi = max_int) lo =
  let expected =
    if hi = max_int then Printf.sprintf "an integer >= %d" lo
    else Printf.sprintf "an integer in %d..%d" lo hi
  in
  let parse s =
    Result.bind (Arg.conv_parser Arg.int s) (fun n ->
        if lo <= n && n <= hi then Ok n
        else
          Error
            (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected)))
  in
  Arg.conv (parse, Format.pp_print_int)

let rate_arg =
  let doc = "Override every link's bit rate (bits per second)." in
  Arg.(value & opt (some (int_in 1)) None & info [ "rate" ] ~docv:"BPS" ~doc)

let exit_of_result = function
  | Ok () -> 0
  | Error msg ->
      prerr_endline ("gmfnet: " ^ msg);
      1

(* The exit status of a command that reaches a verdict: 0 when the
   verdict passed ([Ok true]), 1 when it did not, and 1 with a [gmfnet:]
   message on an error. *)
let exit_of_verdict = function
  | Ok passed -> if passed then 0 else 1
  | Error msg -> exit_of_result (Error msg)

(* The man page's EXIT STATUS section of such a command. *)
let verdict_exits ~passed ~failed =
  Cmd.Exit.info 0 ~doc:passed
  :: Cmd.Exit.info 1
       ~doc:
         (failed
        ^ ", or on an error (an unknown scenario, an unreadable file, an \
           unwritable output path).")
  :: List.filter (fun i -> Cmd.Exit.info_code i <> 0) Cmd.Exit.defaults

let schedulable_exits what =
  verdict_exits
    ~passed:("when " ^ what ^ " is schedulable.")
    ~failed:
      ("when " ^ what
     ^ " is not (a deadline miss, a failed analysis or no jitter fixed \
        point)")

(* ------------------------------------------------------------------ *)
(* Observability flags                                                *)
(* ------------------------------------------------------------------ *)

let metrics_arg =
  let doc =
    "Collect runtime metrics.  With no $(docv), print them as tables after \
     the run; with $(docv), write them as JSON-lines instead."
  in
  Arg.(
    value
    & opt ~vopt:(Some "-") (some string) None
    & info [ "metrics" ] ~docv:"FILE" ~doc)

let trace_out_arg =
  let doc =
    "Record spans and write them to $(docv) in Chrome trace_event format \
     (open with chrome://tracing or Perfetto)."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

(* Runs [f] with the process-wide registry/tracer switched on as requested,
   then emits the collected telemetry.  Output happens even when [f] fails
   so a diverging analysis still leaves its partial metrics behind; an
   unwritable output path surfaces as an ordinary CLI error. *)
let with_obs ?metrics ?trace_out f =
  let reg = Gmf_obs.Metrics.default and tr = Gmf_obs.Tracer.default in
  if metrics <> None then begin
    Gmf_obs.Metrics.set_enabled reg true;
    Gmf_obs.Metrics.reset reg
  end;
  if trace_out <> None then begin
    Gmf_obs.Tracer.set_enabled tr true;
    Gmf_obs.Tracer.reset tr
  end;
  let emit () =
    (match metrics with
    | None -> ()
    | Some "-" ->
        let tables = Gmf_obs.Export.metrics_tables (Gmf_obs.Metrics.snapshot reg) in
        if tables <> "" then Printf.printf "\n%s\n" tables
    | Some path ->
        Gmf_obs.Export.write_file ~path
          (Gmf_obs.Export.metrics_to_jsonl (Gmf_obs.Metrics.snapshot reg)));
    match trace_out with
    | None -> ()
    | Some path ->
        Gmf_obs.Export.write_file ~path
          (Gmf_obs.Export.chrome_trace (Gmf_obs.Tracer.spans tr))
  in
  match f () with
  | v -> ( try emit (); Ok v with Sys_error msg -> Error msg)
  | exception e ->
      (try emit () with Sys_error _ -> ());
      raise e

(* ------------------------------------------------------------------ *)
(* list                                                               *)
(* ------------------------------------------------------------------ *)

let list_cmd =
  let run () =
    print_endline "scenarios:";
    List.iter
      (fun (n, d, _) -> Printf.printf "  %-8s %s\n" n d)
      scenarios;
    print_endline "\nexperiments:";
    List.iter
      (fun e ->
        Printf.printf "  %-4s %s\n" e.Experiments.Registry.id
          e.Experiments.Registry.description)
      Experiments.Registry.all;
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List named scenarios and experiments.")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* lint                                                               *)
(* ------------------------------------------------------------------ *)

let lint_cmd =
  let file_pos_arg =
    let doc =
      "Scenario description file to lint (equivalent to $(b,--file))."
    in
    Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let json_arg =
    let doc = "Emit diagnostics as JSON-lines (one object per line)." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let deny_arg =
    let doc =
      "Exit non-zero when any diagnostic at or above $(docv) fires: \
       $(b,error) (default), $(b,warning) or $(b,hint)."
    in
    let level =
      Arg.enum
        [
          ("error", Gmf_diag.Error);
          ("warning", Gmf_diag.Warning);
          ("hint", Gmf_diag.Hint);
        ]
    in
    Arg.(value & opt level Gmf_diag.Error & info [ "deny" ] ~docv:"LEVEL" ~doc)
  in
  let rules_arg =
    let doc = "List every rule code of the catalog and exit." in
    Arg.(value & flag & info [ "rules" ] ~doc)
  in
  let run pos_file name file rate config json deny rules =
    if rules then begin
      let table =
        Tablefmt.create
          ~columns:
            [
              ("code", Tablefmt.Left); ("category", Tablefmt.Left);
              ("severity", Tablefmt.Left); ("title", Tablefmt.Left);
            ]
      in
      List.iter
        (fun (r : Gmf_lint.Rules.rule) ->
          Tablefmt.add_row table
            [
              r.Gmf_lint.Rules.code;
              Gmf_lint.Rules.category_to_string r.Gmf_lint.Rules.category;
              Gmf_diag.severity_to_string r.Gmf_lint.Rules.default_severity;
              r.Gmf_lint.Rules.title;
            ])
        Gmf_lint.Rules.catalog;
      Tablefmt.print table;
      0
    end
    else
      let file = match pos_file with Some _ -> pos_file | None -> file in
      match build_scenario ?file name rate with
      | Error msg ->
          prerr_endline ("gmfnet: " ^ msg);
          1
      | Ok scenario ->
          let report = Gmf_lint.Lint.run ~config scenario in
          if json then
            print_string
              (Gmf_lint.Lint_json.to_jsonl
                 report.Gmf_lint.Lint.diagnostics)
          else Format.printf "%a@." Gmf_lint.Lint.pp_report report;
          if Gmf_lint.Lint.fatal ~deny report then 1 else 0
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Static diagnostics over a scenario: structural problems           (GMF0xx), paper model preconditions (GMF1xx) and utilization           impossibilities (GMF2xx) — without running any fixpoint.")
    Term.(
      const run $ file_pos_arg $ scenario_arg $ file_arg $ rate_arg
      $ variant_arg $ json_arg $ deny_arg $ rules_arg)

(* ------------------------------------------------------------------ *)
(* precheck                                                           *)
(* ------------------------------------------------------------------ *)

let precheck_cmd =
  let file_pos_arg =
    let doc =
      "Scenario description file to precheck (equivalent to $(b,--file))."
    in
    Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let json_arg =
    let doc = "Emit the deterministic JSON report (golden-file format)." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let max_component_arg =
    let doc =
      "Interference-component size above which GMF019 warns that the \
       per-component fixpoint will be large."
    in
    Arg.(
      value
      & opt int Gmf_precheck.Precheck.default_max_component
      & info [ "max-component" ] ~docv:"N" ~doc)
  in
  let run pos_file name file rate config json max_component =
    let file = match pos_file with Some _ -> pos_file | None -> file in
    match build_scenario ?file name rate with
    | Error msg ->
        prerr_endline ("gmfnet: " ^ msg);
        1
    | Ok scenario ->
        let report = Gmf_precheck.Precheck.run ~config scenario in
        let diags = Gmf_precheck.Precheck.diagnostics ~max_component report in
        if json then print_string (Gmf_precheck.Precheck.to_json report)
        else begin
          Format.printf "%a@." Gmf_precheck.Precheck.pp report;
          if diags <> [] then Format.printf "%a@." Gmf_diag.pp_list diags
        end;
        if Gmf_precheck.Precheck.infeasible report <> [] then 1 else 0
  in
  Cmd.v
    (Cmd.info "precheck"
       ~doc:
         "Static schedulability pre-analysis: interference-graph \
          decomposition plus certified per-flow verdicts (infeasible / \
          schedulable / needs-fixpoint) without running any fixpoint.  \
          Exits non-zero when a flow is certified infeasible.")
    Term.(
      const run $ file_pos_arg $ scenario_arg $ file_arg $ rate_arg
      $ variant_arg $ json_arg $ max_component_arg)

(* ------------------------------------------------------------------ *)
(* analyze                                                            *)
(* ------------------------------------------------------------------ *)

(* One line per failure of a failed verdict, in the report's order.  A
   failure tied to no flow (flow id -1: a link, node or scenario lint
   error, an exec error) prints its reason alone. *)
let print_failures scenario report =
  match report.Analysis.Holistic.verdict with
  | Analysis.Holistic.Deadline_miss failures
  | Analysis.Holistic.Analysis_failed failures ->
      List.iter
        (fun (f : Analysis.Result_types.failure) ->
          if f.Analysis.Result_types.flow_id < 0 then
            Format.printf "failure: %s@." f.Analysis.Result_types.reason
          else
            let flow =
              Traffic.Scenario.flow scenario f.Analysis.Result_types.flow_id
            in
            Format.printf "failure: %s: %a@." flow.Traffic.Flow.name
              Analysis.Result_types.pp_failure f)
        failures
  | Analysis.Holistic.Schedulable | Analysis.Holistic.No_fixed_point _ -> ()

(* The bounds table, then one line per failure of a failed verdict: the
   table lists only the flows that produced results. *)
let print_report scenario report =
  Experiments.Exp_common.kv "verdict" (Experiments.Exp_common.verdict_string report);
  Experiments.Exp_common.kv "holistic rounds"
    (string_of_int report.Analysis.Holistic.rounds);
  let table =
    Tablefmt.create
      ~columns:
        [
          ("flow", Tablefmt.Left); ("prio", Tablefmt.Right);
          ("frame", Tablefmt.Right); ("R bound", Tablefmt.Right);
          ("deadline", Tablefmt.Right); ("slack", Tablefmt.Right);
          ("meets", Tablefmt.Left);
        ]
  in
  List.iter
    (fun res ->
      Array.iter
        (fun (fr : Analysis.Result_types.frame_result) ->
          Tablefmt.add_row table
            [
              res.Analysis.Result_types.flow.Traffic.Flow.name;
              string_of_int res.Analysis.Result_types.flow.Traffic.Flow.priority;
              string_of_int fr.Analysis.Result_types.frame;
              Timeunit.to_string fr.Analysis.Result_types.total;
              Timeunit.to_string fr.Analysis.Result_types.deadline;
              Timeunit.to_string (Analysis.Result_types.slack fr);
              (if Analysis.Result_types.meets_deadline fr then "yes" else "NO");
            ])
        res.Analysis.Result_types.frames)
    report.Analysis.Holistic.results;
  Tablefmt.print table;
  print_failures scenario report

let csv_arg =
  let doc = "Emit machine-readable CSV (frames, or stages with $(b,--csv stages))." in
  Arg.(
    value
    & opt ~vopt:(Some "frames") (some (enum [ ("frames", "frames"); ("stages", "stages") ])) None
    & info [ "csv" ] ~docv:"WHAT" ~doc)

let analyze_cmd =
  let run name file rate config csv metrics trace_out =
    exit_of_verdict
      (Result.bind (build_scenario ?file name rate) (fun scenario ->
           with_obs ?metrics ?trace_out (fun () ->
               let report = Analysis.Holistic.analyze ~config scenario in
               (match csv with
               | Some "stages" ->
                   print_string (Analysis.Report_io.stage_csv report)
               | Some _ -> print_string (Analysis.Report_io.frame_csv report)
               | None -> print_report scenario report);
               Analysis.Holistic.is_schedulable report)))
  in
  Cmd.v
    (Cmd.info "analyze" ~exits:(schedulable_exits "the verdict")
       ~doc:"Upper-bound every flow's end-to-end response time.")
    Term.(const run $ scenario_arg $ file_arg $ rate_arg $ variant_arg
          $ csv_arg $ metrics_arg $ trace_out_arg)

(* ------------------------------------------------------------------ *)
(* simulate                                                           *)
(* ------------------------------------------------------------------ *)

let duration_arg =
  let doc = "Traffic-generation duration in milliseconds." in
  Arg.(value & opt int 1_000 & info [ "d"; "duration" ] ~docv:"MS" ~doc)

let seed_arg =
  let doc = "Deterministic master seed." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc)

let jitter_mode_arg =
  let doc = "Sub-packet release pattern: $(b,spread), $(b,bunched) or $(b,random)." in
  let mode =
    Arg.enum
      [
        ("spread", Sim.Sim_config.Spread);
        ("bunched", Sim.Sim_config.Bunched);
        ("random", Sim.Sim_config.Random);
      ]
  in
  Arg.(value & opt mode Sim.Sim_config.Spread & info [ "jitter-mode" ] ~doc)

let slack_arg =
  let doc =
    "Mean extra inter-arrival spacing as a fraction of the period \
     (0 = strictly periodic sources)."
  in
  Arg.(value & opt float 0. & info [ "slack" ] ~docv:"FRAC" ~doc)

let capacity_arg =
  let doc =
    "Finite switch-queue capacity in Ethernet frames (default: unbounded); \
     overflows are dropped and counted."
  in
  Arg.(value & opt (some int) None & info [ "capacity" ] ~docv:"FRAMES" ~doc)

let phasing_arg =
  let doc = "Start each flow at a random offset within its cycle." in
  Arg.(value & flag & info [ "random-phasing" ] ~doc)

let busy_poll_arg =
  let doc =
    "Adversarial switch-CPU model: idle tasks burn their full quantum \
     (the CIRC worst case of the analysis)."
  in
  Arg.(value & flag & info [ "busy-poll" ] ~doc)

let trace_arg =
  let doc = "Print the full journey of the first N completed packets." in
  Arg.(value & opt int 0 & info [ "trace" ] ~docv:"N" ~doc)

let fault_policy_arg =
  let doc =
    "What happens to Ethernet frames queued behind a link a $(b,fault) \
     directive took down: $(b,hold) (default; they wait for the link to \
     come back) or $(b,drop) (discarded and counted as fault drops)."
  in
  let policy =
    Arg.enum
      [ ("hold", Gmf_faults.Fault.Hold); ("drop", Gmf_faults.Fault.Drop) ]
  in
  Arg.(
    value
    & opt policy Gmf_faults.Fault.Hold
    & info [ "fault-policy" ] ~docv:"POLICY" ~doc)

let simulate_cmd =
  let run name file rate duration seed jitter_mode slack capacity phasing
      busy_poll trace_limit fault_policy metrics trace_out =
    exit_of_result
      (Result.bind (build_scenario_faults ?file name rate)
         (fun (scenario, faults) ->
           with_obs ?metrics ?trace_out @@ fun () ->
           let faults = { faults with Gmf_faults.Fault.policy = fault_policy } in
           let release =
             if slack <= 0. then Sim.Sim_config.Periodic
             else Sim.Sim_config.Random_slack slack
           in
           let config =
             {
               Sim.Sim_config.duration = Timeunit.ms duration;
               seed;
               release;
               jitter = jitter_mode;
               random_phasing = phasing;
               queue_capacity = capacity;
               busy_poll;
               trace_limit;
             }
           in
           let report = Sim.Netsim.run ~config ~faults scenario in
           if not (Gmf_faults.Fault.is_empty faults) then
             Experiments.Exp_common.kv "faults injected"
               (string_of_int
                  (List.length faults.Gmf_faults.Fault.events));
           Experiments.Exp_common.kv "packets released"
             (string_of_int report.Sim.Netsim.packets_released);
           Experiments.Exp_common.kv "packets completed"
             (string_of_int report.Sim.Netsim.packets_completed);
           Experiments.Exp_common.kv "simulated span"
             (Timeunit.to_string report.Sim.Netsim.sim_end);
           Experiments.Exp_common.kv "fragments dropped"
             (string_of_int report.Sim.Netsim.fragments_dropped);
           List.iter
             (fun ((sw, peer), n) ->
               Experiments.Exp_common.kv
                 (Printf.sprintf "drops at %d->%d" sw peer)
                 (Printf.sprintf "%d frames" n))
             report.Sim.Netsim.dropped_by_port;
           if report.Sim.Netsim.fault_drops > 0 then
             Experiments.Exp_common.kv "fault drops"
               (string_of_int report.Sim.Netsim.fault_drops);
           if report.Sim.Netsim.tainted_completions > 0 then
             Experiments.Exp_common.kv "tainted completions"
               (string_of_int report.Sim.Netsim.tainted_completions);
           List.iter
             (fun (sw, u) ->
               Experiments.Exp_common.kv
                 (Printf.sprintf "switch %d CPU utilization" sw)
                 (Printf.sprintf "%.4f" u))
             report.Sim.Netsim.cpu_utilization;
           List.iter
             (fun ((sw, peer), frames) ->
               if frames > 1 then
                 Experiments.Exp_common.kv
                   (Printf.sprintf "queue high-water out %d->%d" sw peer)
                   (Printf.sprintf "%d frames" frames))
             report.Sim.Netsim.egress_backlog;
           let table =
             Tablefmt.create
               ~columns:
                 [
                   ("flow", Tablefmt.Left); ("frame", Tablefmt.Right);
                   ("samples", Tablefmt.Right); ("max R", Tablefmt.Right);
                   ("mean R", Tablefmt.Right); ("p99 R", Tablefmt.Right);
                 ]
           in
           List.iter
             (fun flow ->
               let id = flow.Traffic.Flow.id in
               for frame = 0 to Traffic.Flow.n flow - 1 do
                 match
                   Sim.Collector.responses report.Sim.Netsim.collector
                     ~flow:id ~frame
                 with
                 | None -> ()
                 | Some stats ->
                     Tablefmt.add_row table
                       [
                         flow.Traffic.Flow.name; string_of_int frame;
                         string_of_int (Stats.count stats);
                         Timeunit.to_string (Stats.max stats);
                         Timeunit.to_string
                           (int_of_float (Stats.mean stats));
                         Timeunit.to_string (Stats.percentile stats 99.);
                       ]
               done)
             (Traffic.Scenario.flows scenario);
           Tablefmt.print table;
           List.iter
             (fun (j : Sim.Collector.journey) ->
               Printf.printf "packet flow=%d frame=%d seq=%d:\n" j.Sim.Collector.j_flow
                 j.Sim.Collector.j_frame j.Sim.Collector.j_seq;
               List.iter
                 (fun (t, what) ->
                   Printf.printf "  %-12s %s\n" (Timeunit.to_string t) what)
                 j.Sim.Collector.j_events)
             (Sim.Collector.journeys report.Sim.Netsim.collector)))
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Simulate the scenario on the Figure 5 switch model.")
    Term.(
      const run $ scenario_arg $ file_arg $ rate_arg $ duration_arg $ seed_arg
      $ jitter_mode_arg $ slack_arg $ capacity_arg $ phasing_arg
      $ busy_poll_arg $ trace_arg $ fault_policy_arg $ metrics_arg
      $ trace_out_arg)

(* ------------------------------------------------------------------ *)
(* gen                                                                *)
(* ------------------------------------------------------------------ *)

let gen_cmd =
  let conv_of parse print =
    Arg.conv ((fun s -> Result.map_error (fun e -> `Msg e) (parse s)), print)
  in
  let topology_arg =
    let doc =
      "Topology family: $(b,mesh:RxC) (2-D switch grid), \
       $(b,mesh:RxCx2) (two disjoint planes, dual-homed hosts), \
       $(b,fat-tree:K) (k-ary fat tree) or $(b,rings:NxS) (N local \
       rings of S switches on a global ring)."
    in
    let family =
      conv_of Gmf_topogen.Gen_spec.family_of_string (fun ppf f ->
          Format.pp_print_string ppf
            (Gmf_topogen.Gen_spec.family_to_string f))
    in
    Arg.(
      value
      & opt family Gmf_topogen.Gen_spec.default.Gmf_topogen.Gen_spec.family
      & info [ "t"; "topology" ] ~docv:"FAMILY" ~doc)
  in
  let hosts_arg =
    let doc = "End hosts attached to each edge switch." in
    Arg.(value & opt int 2 & info [ "hosts-per-switch" ] ~docv:"N" ~doc)
  in
  let flows_arg =
    let doc = "Flows to place (each slot retries up to 20 draws)." in
    Arg.(value & opt int 40 & info [ "n"; "flows" ] ~docv:"N" ~doc)
  in
  let mix_arg =
    let doc =
      "Traffic mix as weighted kinds, e.g. $(b,voip=3,mpeg=1,sensor=2)."
    in
    let mix =
      conv_of Gmf_topogen.Gen_spec.mix_of_string (fun ppf m ->
          Format.pp_print_string ppf (Gmf_topogen.Gen_spec.mix_to_string m))
    in
    Arg.(
      value
      & opt mix Gmf_topogen.Gen_spec.default.Gmf_topogen.Gen_spec.mix
      & info [ "mix" ] ~docv:"KIND=W,.." ~doc)
  in
  let locality_arg =
    let doc =
      "Probability that a flow's destination is drawn from the source's \
       neighborhood (mesh: cells within Manhattan distance 2; fat-tree: \
       same pod; rings: same ring)."
    in
    Arg.(value & opt float 0.8 & info [ "locality" ] ~docv:"P" ~doc)
  in
  let max_util_arg =
    let doc =
      "Utilization ceiling per link and per ingress rotation; candidate \
       flows that would cross it are re-drawn."
    in
    Arg.(value & opt float 0.7 & info [ "max-util" ] ~docv:"U" ~doc)
  in
  let prio_lo_arg =
    let doc = "Lowest 802.1p priority of the band (sensors)." in
    Arg.(value & opt int 1 & info [ "prio-lo" ] ~docv:"P" ~doc)
  in
  let prio_hi_arg =
    let doc = "Highest 802.1p priority of the band (VoIP)." in
    Arg.(value & opt int 6 & info [ "prio-hi" ] ~docv:"P" ~doc)
  in
  let seed_arg =
    let doc =
      "Generator seed.  Equal parameters and seed produce byte-identical \
       output on every platform."
    in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc)
  in
  let gen_rate_arg =
    let doc = "Bit rate of every generated link (bits per second)." in
    Arg.(value & opt int 100_000_000 & info [ "rate" ] ~docv:"BPS" ~doc)
  in
  let prop_arg =
    let doc = "Propagation delay of every generated link (nanoseconds)." in
    Arg.(value & opt int 0 & info [ "prop" ] ~docv:"NS" ~doc)
  in
  let out_arg =
    let doc = "Write the scenario to $(docv) instead of standard output." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let quiet_arg =
    let doc = "Suppress the generation summary on standard error." in
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc)
  in
  let run family hosts_per_switch flows mix locality max_util prio_lo prio_hi
      seed rate_bps prop out quiet =
    let spec =
      {
        Gmf_topogen.Gen_spec.family;
        hosts_per_switch;
        rate_bps;
        prop;
        flows;
        mix;
        locality;
        max_util;
        prio_lo;
        prio_hi;
        seed;
      }
    in
    match Gmf_topogen.Gen_spec.validate spec with
    | Error msg ->
        prerr_endline ("gmfnet: " ^ msg);
        1
    | Ok () -> (
        let result = Gmf_topogen.Topogen.generate spec in
        if not quiet then
          List.iter
            (fun (k, v) -> Printf.eprintf "%-16s %s\n" k v)
            (Gmf_topogen.Topogen.summary result);
        let scenario = result.Gmf_topogen.Topogen.scenario in
        match out with
        | None ->
            print_string (Gmf_topogen.Topogen.to_string scenario);
            0
        | Some path -> (
            try
              Gmf_topogen.Topogen.to_file path scenario;
              0
            with Sys_error msg ->
              prerr_endline ("gmfnet: " ^ msg);
              1))
  in
  Cmd.v
    (Cmd.info "gen"
       ~doc:
         "Generate a synthetic scenario: a parametric topology (mesh / \
          fat-tree / ring-of-rings) with a seeded flow population drawn \
          from the workload catalog.  The output passes $(b,gmfnet lint \
          --deny warning) by construction and is deterministic for a \
          fixed seed.")
    Term.(
      const run $ topology_arg $ hosts_arg $ flows_arg $ mix_arg
      $ locality_arg $ max_util_arg $ prio_lo_arg $ prio_hi_arg $ seed_arg
      $ gen_rate_arg $ prop_arg $ out_arg $ quiet_arg)

(* ------------------------------------------------------------------ *)
(* admission                                                          *)
(* ------------------------------------------------------------------ *)

let admission_cmd =
  let run name file rate config =
    exit_of_verdict
      (Result.map
         (fun scenario ->
           let decision = Analysis.Admission.check ~config scenario in
           Experiments.Exp_common.kv "admitted"
             (if decision.Analysis.Admission.admitted then "yes" else "no");
           Experiments.Exp_common.kv "verdict"
             (Experiments.Exp_common.verdict_string decision.Analysis.Admission.report);
           print_failures scenario decision.Analysis.Admission.report;
           let checks = Analysis.Conditions.check_all scenario in
           print_endline "per-stage utilization conditions (eqs 20/34-35):";
           List.iter
             (fun c ->
               Format.printf "  %a@." Analysis.Conditions.pp_check c)
             checks;
           decision.Analysis.Admission.admitted)
         (build_scenario ?file name rate))
  in
  Cmd.v
    (Cmd.info "admission"
       ~exits:
         (verdict_exits ~passed:"when the flow set is admitted."
            ~failed:"when it is rejected (by lint, precheck or the analysis)")
       ~doc:"Admission-control decision with utilization conditions.")
    Term.(const run $ scenario_arg $ file_arg $ rate_arg $ variant_arg)

(* ------------------------------------------------------------------ *)
(* validate                                                           *)
(* ------------------------------------------------------------------ *)

let validate_cmd =
  let duration_arg =
    let doc = "Simulated traffic duration in milliseconds." in
    Arg.(value & opt int 2_000 & info [ "d"; "duration" ] ~docv:"MS" ~doc)
  in
  let run name file rate duration =
    exit_of_result
      (Result.bind (build_scenario ?file name rate) (fun scenario ->
           let row =
             Experiments.E5_validation.validate
               ~duration:(Timeunit.ms duration) ~name:"scenario" scenario
           in
           let kv = Experiments.Exp_common.kv in
           if not row.Experiments.E5_validation.schedulable then begin
             kv "schedulable" "no (nothing to validate)";
             Ok ()
           end
           else begin
             kv "schedulable" "yes";
             kv "worst analytic bound"
               (Timeunit.to_string row.Experiments.E5_validation.worst_bound);
             kv "worst simulated response"
               (Timeunit.to_string row.Experiments.E5_validation.worst_observed);
             kv "tightness (observed/bound)"
               (Printf.sprintf "%.3f" row.Experiments.E5_validation.tightness);
             if row.Experiments.E5_validation.sound then begin
               kv "bounds dominate the simulation" "yes";
               Ok ()
             end
             else Error "SOUNDNESS VIOLATION: the simulator exceeded a bound"
           end))
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "Cross-check the analysis against the discrete-event simulator           for a scenario (bounds must dominate all observations).")
    Term.(const run $ scenario_arg $ file_arg $ rate_arg $ duration_arg)

(* ------------------------------------------------------------------ *)
(* plan                                                               *)
(* ------------------------------------------------------------------ *)

let plan_cmd =
  let run name file rate config =
    exit_of_result
      (Result.map
         (fun scenario ->
           let kv = Experiments.Exp_common.kv in
           (* Traffic headroom: scale every flow's payloads. *)
           let headroom =
             Analysis.Sensitivity.max_payload_scale ~config
               ~build:(fun ~scale ->
                 Traffic.Scenario.map_flows scenario ~f:(fun f ->
                     Traffic.Flow.scale_payloads f scale))
               ()
           in
           kv "traffic headroom (payload scale)"
             (match headroom with
             | Some h -> Printf.sprintf "%.2fx" h
             | None -> "none (already unschedulable)");
           (* Switch-CPU slack: scale every switch model's task costs. *)
           let with_cpu_scale circ_scale =
             let scale_cost c =
               max 0 (int_of_float (circ_scale *. float_of_int c))
             in
             Traffic.Scenario.map_switches scenario ~f:(fun _ m ->
                 Click.Switch_model.make
                   ~croute:(scale_cost m.Click.Switch_model.croute)
                   ~csend:(scale_cost m.Click.Switch_model.csend)
                   ~processors:m.Click.Switch_model.processors
                   ~ninterfaces:m.Click.Switch_model.ninterfaces ())
           in
           let cpu_slack =
             Analysis.Sensitivity.max_circ ~config
               ~build:(fun ~circ_scale -> with_cpu_scale circ_scale)
               ()
           in
           kv "switch-CPU slack (CROUTE/CSEND scale)"
             (match cpu_slack with
             | Some s -> Printf.sprintf "%.1fx" s
             | None -> "none");
           (* Worst per-flow slack today. *)
           let report = Analysis.Holistic.analyze ~config scenario in
           kv "verdict" (Experiments.Exp_common.verdict_string report);
           List.iter
             (fun res ->
               let worst = Analysis.Result_types.worst_frame res in
               kv
                 (Printf.sprintf "slack of %s"
                    res.Analysis.Result_types.flow.Traffic.Flow.name)
                 (Timeunit.to_string (Analysis.Result_types.slack worst)))
             report.Analysis.Holistic.results)
         (build_scenario ?file name rate))
  in
  Cmd.v
    (Cmd.info "plan"
       ~doc:
         "Capacity planning: traffic headroom, switch-CPU slack and           per-flow deadline slack for a scenario.")
    Term.(const run $ scenario_arg $ file_arg $ rate_arg $ variant_arg)

(* ------------------------------------------------------------------ *)
(* backlog                                                            *)
(* ------------------------------------------------------------------ *)

let backlog_cmd =
  let run name file rate config =
    exit_of_result
      (Result.bind (build_scenario ?file name rate) (fun scenario ->
           let ctx = Analysis.Ctx.create ~config scenario in
           let report = Analysis.Holistic.run ctx in
           match
             ( Analysis.Backlog.egress_bounds ctx report,
               Analysis.Backlog.ingress_bounds ctx report )
           with
           | Ok egress, Ok ingress ->
               let table =
                 Tablefmt.create
                   ~columns:
                     [
                       ("queue", Tablefmt.Left);
                       ("max frames", Tablefmt.Right);
                       ("memory", Tablefmt.Right);
                     ]
               in
               let add kind (b : Analysis.Backlog.queue_bound) =
                 Tablefmt.add_row table
                   [
                     Printf.sprintf "%s %d%s%d" kind b.Analysis.Backlog.node
                       (if kind = "out" then "->" else "<-")
                       b.Analysis.Backlog.peer;
                     string_of_int b.Analysis.Backlog.frames;
                     Printf.sprintf "%d B" (b.Analysis.Backlog.bits / 8);
                   ]
               in
               List.iter (add "out") egress;
               List.iter (add "in") ingress;
               Tablefmt.print table;
               Ok ()
           | Error msg, _ | _, Error msg -> Error msg))
  in
  Cmd.v
    (Cmd.info "backlog"
       ~doc:
         "Buffer requirements per switch queue derived from the           response-time analysis (safe memory sizing).")
    Term.(const run $ scenario_arg $ file_arg $ rate_arg $ variant_arg)

(* ------------------------------------------------------------------ *)
(* explain                                                            *)
(* ------------------------------------------------------------------ *)

let explain_cmd =
  let scenario_pos_arg =
    let doc =
      "Scenario to explain: a description file when $(docv) names an \
       existing file, a named scenario otherwise (see $(b,gmfnet list))."
    in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"SCENARIO" ~doc)
  in
  let flow_arg =
    let doc = "Restrict the per-hop detail to flow $(docv) (default: the \
               worst flow)."
    in
    Arg.(value & opt (some int) None & info [ "flow" ] ~docv:"ID" ~doc)
  in
  let json_arg =
    let doc =
      "Emit the full attribution as one JSON document instead of tables."
    in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let convergence_arg =
    let doc =
      "Write per-round convergence telemetry of the holistic fixpoint to \
       $(docv) as JSON-lines; with $(b,--trace-out) the rounds also appear \
       as a synthetic convergence lane in the Chrome trace."
    in
    Arg.(
      value & opt (some string) None & info [ "convergence" ] ~docv:"FILE" ~doc)
  in
  let run pos name file rate config flow_id json convergence metrics
      trace_out =
    let name, file =
      match pos with
      | Some s when Sys.file_exists s -> (name, Some s)
      | Some s -> (s, file)
      | None -> (name, file)
    in
    exit_of_verdict
      (Result.bind (build_scenario ?file name rate) (fun scenario ->
           let known id =
             List.exists
               (fun f -> f.Traffic.Flow.id = id)
               (Traffic.Scenario.flows scenario)
           in
           match flow_id with
           | Some id when not (known id) ->
               Error (Printf.sprintf "no flow with id %d" id)
           | _ ->
               let recorded = ref None in
               let obs =
                 with_obs ?metrics ?trace_out (fun () ->
                     let (attr, _report), conv =
                       Gmf_explain.Convergence.record (fun () ->
                           Gmf_explain.Attribution.analyze ~config scenario)
                     in
                     recorded := Some conv;
                     if trace_out <> None then
                       Gmf_explain.Convergence.emit_spans
                         Gmf_obs.Tracer.default conv;
                     (* Nearest-feasible probes only make sense for a
                        converged rejection, against its worst flow. *)
                     let hints =
                       match
                         ( attr.Gmf_explain.Attribution.verdict,
                           Gmf_explain.Attribution.summarize attr )
                       with
                       | Analysis.Holistic.Deadline_miss _, Some s ->
                           Gmf_explain.Hints.for_flow ~config scenario
                             ~flow_id:s.Gmf_explain.Attribution.s_flow_id ()
                       | _ -> []
                     in
                     if json then
                       print_string
                         (Gmf_explain.Render.to_json ?flow:flow_id ~hints
                            attr)
                     else begin
                       print_endline (Gmf_explain.Render.verdict_line attr);
                       print_endline (Gmf_explain.Render.summary_table attr);
                       let detail =
                         Gmf_explain.Render.detail ?flow:flow_id attr
                       in
                       if detail <> "" then print_endline detail;
                       let rejection =
                         Gmf_explain.Render.rejection ~hints attr
                       in
                       if rejection <> "" then print_string rejection
                     end;
                     attr.Gmf_explain.Attribution.verdict
                     = Analysis.Holistic.Schedulable)
               in
               Result.bind obs (fun schedulable ->
                   match (convergence, !recorded) with
                   | Some path, Some conv -> (
                       try
                         Gmf_obs.Export.write_file ~path
                           (Gmf_explain.Convergence.to_jsonl conv);
                         Ok schedulable
                       with Sys_error msg -> Error msg)
                   | _ -> Ok schedulable)))
  in
  Cmd.v
    (Cmd.info "explain" ~exits:(schedulable_exits "the verdict")
       ~doc:
         "Attribute every response-time bound: per-hop transmission /           switch-software / blocking / interference terms summing to the           holistic bound exactly, the binding hop and interferer per flow,           and nearest-feasible hints on a rejection.")
    Term.(
      const run $ scenario_pos_arg $ scenario_arg $ file_arg $ rate_arg
      $ variant_arg $ flow_arg $ json_arg $ convergence_arg $ metrics_arg
      $ trace_out_arg)

(* ------------------------------------------------------------------ *)
(* profile                                                            *)
(* ------------------------------------------------------------------ *)

let profile_cmd =
  let run name file rate config metrics trace_out =
    exit_of_result
      (Result.bind (build_scenario ?file name rate) (fun scenario ->
           (* [profile] always collects: both the registry and the tracer
              are on for the run regardless of the output flags. *)
           let reg = Gmf_obs.Metrics.default and tr = Gmf_obs.Tracer.default in
           Gmf_obs.Metrics.set_enabled reg true;
           Gmf_obs.Metrics.reset reg;
           Gmf_obs.Tracer.set_enabled tr true;
           Gmf_obs.Tracer.reset tr;
           let pre = Gmf_precheck.Precheck.run ~config scenario in
           let report = Analysis.Holistic.analyze ~config scenario in
           let kv = Experiments.Exp_common.kv in
           kv "verdict" (Experiments.Exp_common.verdict_string report);
           kv "precheck components"
             (string_of_int
                pre.Gmf_precheck.Precheck.stats.Gmf_precheck.Igraph.components);
           kv "precheck decided"
             (Printf.sprintf "%d/%d" (Gmf_precheck.Precheck.decided pre)
                pre.Gmf_precheck.Precheck.stats.Gmf_precheck.Igraph.flows);
           kv "precheck largest component"
             (string_of_int
                pre.Gmf_precheck.Precheck.stats.Gmf_precheck.Igraph.largest);
           kv "igraph edges"
             (string_of_int
                pre.Gmf_precheck.Precheck.stats.Gmf_precheck.Igraph.edges);
           kv "igraph density"
             (Printf.sprintf "%.4f"
                pre.Gmf_precheck.Precheck.stats.Gmf_precheck.Igraph.density);
           kv "igraph singletons"
             (string_of_int
                pre.Gmf_precheck.Precheck.stats.Gmf_precheck.Igraph.singletons);
           kv "holistic rounds"
             (string_of_int report.Analysis.Holistic.rounds);
           kv "fixpoint calls"
             (string_of_int
                (Gmf_obs.Metrics.counter_value
                   (Gmf_obs.Metrics.counter reg "fixpoint.calls")));
           kv "fixpoint iterations"
             (string_of_int
                (Gmf_obs.Metrics.counter_value
                   (Gmf_obs.Metrics.counter reg "fixpoint.iters.total")));
           kv "stage evaluations reused"
             (string_of_int
                (Gmf_obs.Metrics.counter_value
                   (Gmf_obs.Metrics.counter reg "stage.reused")));
           (* Run the lint pass under the enabled registry so the
              per-rule lint.hits.* counters appear in the tables. *)
           let lint = Gmf_lint.Lint.run ~config scenario in
           kv "lint diagnostics"
             (Printf.sprintf "%d error(s), %d warning(s), %d hint(s)"
                (List.length (Gmf_lint.Lint.errors lint))
                (List.length (Gmf_lint.Lint.warnings lint))
                (List.length (Gmf_lint.Lint.hints lint)));
           let snap = Gmf_obs.Metrics.snapshot reg in
           let tables = Gmf_obs.Export.metrics_tables snap in
           if tables <> "" then Printf.printf "\n%s\n" tables;
           let phases = Gmf_obs.Export.phase_table (Gmf_obs.Tracer.aggregate tr) in
           if phases <> "" then Printf.printf "\n%s\n" phases;
           try
             (match metrics with
             | Some path when path <> "-" ->
                 Gmf_obs.Export.write_file ~path
                   (Gmf_obs.Export.metrics_to_jsonl snap)
             | Some _ | None -> ());
             (match trace_out with
             | Some path ->
                 Gmf_obs.Export.write_file ~path
                   (Gmf_obs.Export.chrome_trace (Gmf_obs.Tracer.spans tr))
             | None -> ());
             Ok ()
           with Sys_error msg -> Error msg))
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Analyze a scenario with full telemetry: convergence counters,           per-stage iteration histograms and wall-clock per analysis phase.")
    Term.(
      const run $ scenario_arg $ file_arg $ rate_arg $ variant_arg
      $ metrics_arg $ trace_out_arg)

(* ------------------------------------------------------------------ *)
(* survive                                                            *)
(* ------------------------------------------------------------------ *)

let survive_cmd =
  let k_arg =
    let doc = "Maximum number of simultaneously failed components." in
    Arg.(value & opt (int_in 0) 1 & info [ "k" ] ~docv:"K" ~doc)
  in
  let json_arg =
    let doc = "Emit the deterministic JSON report (golden-file format)." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let run name file rate config k json metrics trace_out =
    exit_of_result
      (Result.bind (build_scenario ?file name rate) (fun scenario ->
           with_obs ?metrics ?trace_out (fun () ->
               let report =
                 Gmf_faults.Survive.run ~config ~k scenario
               in
               Format.printf "%a%!"
                 ((if json then Gmf_faults.Survive.pp_json
                   else Gmf_faults.Survive.pp_report)
                    scenario)
                 report)))
  in
  Cmd.v
    (Cmd.info "survive"
       ~doc:
         "Enumerate every failure of at most K links or switches, reroute           the affected flows around each failure and re-run the holistic           analysis, reporting which flows survive, survive only via a           reroute, or must be shed.")
    Term.(
      const run $ scenario_arg $ file_arg $ rate_arg $ variant_arg $ k_arg
      $ json_arg $ metrics_arg $ trace_out_arg)

(* ------------------------------------------------------------------ *)
(* assign                                                             *)
(* ------------------------------------------------------------------ *)

let assign_cmd =
  let policy_arg =
    let doc =
      "Priority policy: $(b,dm) (deadline-monotonic), $(b,rm) \
       (rate-monotonic), $(b,light) (lightest-first), $(b,uniform) \
       (every flow in class 0), or $(b,best) (exhaustive search for the \
       schedulable assignment minimizing the largest bound — flow sets \
       of about 6 flows at most)."
    in
    Arg.(
      value
      & pos 0
          (enum
             [
               ("dm", `Dm); ("rm", `Rm); ("light", `Light);
               ("uniform", `Uniform); ("best", `Best);
             ])
          `Dm
      & info [] ~docv:"POLICY" ~doc)
  in
  let levels_arg =
    let doc = "Number of 802.1p classes the switches support (1..8)." in
    Arg.(value & opt (int_in ~hi:8 1) 8 & info [ "levels" ] ~docv:"N" ~doc)
  in
  let run name file rate config policy levels metrics trace_out =
    exit_of_result
      (Result.bind (build_scenario ?file name rate) (fun scenario ->
           with_obs ?metrics ?trace_out @@ fun () ->
           let kv = Experiments.Exp_common.kv in
           let flows = Traffic.Scenario.flows scenario in
           let assigned =
             match policy with
             | `Dm ->
                 Some
                   (Analysis.Priority_assign.assign ~levels
                      Analysis.Priority_assign.Deadline_monotonic flows)
             | `Rm ->
                 Some
                   (Analysis.Priority_assign.assign ~levels
                      Analysis.Priority_assign.Rate_monotonic flows)
             | `Light ->
                 Some
                   (Analysis.Priority_assign.assign ~levels
                      Analysis.Priority_assign.Lightest_first flows)
             | `Uniform ->
                 Some
                   (Analysis.Priority_assign.assign ~levels
                      (Analysis.Priority_assign.Uniform 0) flows)
             | `Best ->
                 Option.map fst
                   (Analysis.Priority_assign.best_exhaustive ~config ~levels
                      scenario)
           in
           match assigned with
           | None -> kv "result" "no schedulable assignment"
           | Some assigned ->
               let table =
                 Tablefmt.create
                   ~columns:
                     [
                       ("flow", Tablefmt.Left); ("old prio", Tablefmt.Right);
                       ("new prio", Tablefmt.Right);
                     ]
               in
               List.iter2
                 (fun (old : Traffic.Flow.t) (f : Traffic.Flow.t) ->
                   Tablefmt.add_row table
                     [
                       f.Traffic.Flow.name;
                       string_of_int old.Traffic.Flow.priority;
                       string_of_int f.Traffic.Flow.priority;
                     ])
                 flows assigned;
               Tablefmt.print table;
               let report =
                 Analysis.Holistic.analyze ~config
                   (Traffic.Scenario.with_flows scenario assigned)
               in
               kv "verdict" (Experiments.Exp_common.verdict_string report)))
  in
  Cmd.v
    (Cmd.info "assign"
       ~doc:
         "Rewrite every flow's 802.1p class with a priority-assignment           policy, or search exhaustively for the best schedulable           assignment, and report the resulting verdict.")
    Term.(
      const run $ scenario_arg $ file_arg $ rate_arg $ variant_arg
      $ policy_arg $ levels_arg $ metrics_arg $ trace_out_arg)

(* ------------------------------------------------------------------ *)
(* session                                                            *)
(* ------------------------------------------------------------------ *)

let session_cmd =
  let file_pos_arg =
    let doc = "Admission trace to replay (see docs/ADMCTL.md)." in
    Arg.(
      required & pos 0 (some file) None & info [] ~docv:"FILE.admtrace" ~doc)
  in
  let json_arg =
    let doc = "Emit one JSON object per event instead of transcript lines." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let verify_arg =
    let doc =
      "Shadow mode: after every fixpoint event also run the cold batch \
       analysis and compare verdicts and bounds.  Exit non-zero on any \
       mismatch."
    in
    Arg.(value & flag & info [ "verify" ] ~doc)
  in
  let survivable_arg =
    let doc =
      "Survivable admission: additionally reject an admit or update whose \
       candidate flow would have to be shed under some failure of at most \
       $(docv) links or switches ($(b,GMF017))."
    in
    Arg.(
      value & opt (some (int_in 0)) None & info [ "survivable" ] ~docv:"K" ~doc)
  in
  let explain_arg =
    let doc =
      "Attribute every fixpoint event: append the worst frame's binding \
       hop and interferer to each transcript line (or JSON object)."
    in
    Arg.(value & flag & info [ "explain" ] ~doc)
  in
  let run file config json verify explain survivable metrics trace_out =
    exit_of_result
      (match Scenario_io.Admtrace.of_file file with
      | Error e ->
          Error (Format.asprintf "%s: %a" file Scenario_io.Parse.pp_error e)
      | Ok trace ->
          let mismatched = ref 0 in
          let obs =
            with_obs ?metrics ?trace_out (fun () ->
                let result =
                  Gmf_admctl.Replay.run ~config ~shadow:verify ~explain
                    ?survivable
                    ~on_outcome:(fun o ->
                      if json then
                        print_endline (Gmf_admctl.Replay.outcome_jsonl o)
                      else print_endline (Gmf_admctl.Replay.outcome_line o))
                    trace
                in
                mismatched :=
                  Gmf_admctl.Replay.mismatches result.Gmf_admctl.Replay.outcomes;
                if not json then
                  Format.printf "@.summary:@.%a"
                    Gmf_admctl.Replay.pp_summary
                    (Gmf_admctl.Session.summary
                       result.Gmf_admctl.Replay.session))
          in
          match obs with
          | Error _ as e -> e
          | Ok () ->
              if !mismatched > 0 then
                Error
                  (Printf.sprintf
                     "%d event(s) where the warm-started fixpoint disagreed \
                      with the cold analysis"
                     !mismatched)
              else Ok ())
  in
  Cmd.v
    (Cmd.info "session"
       ~doc:
         "Replay an admission trace ($(b,.admtrace)) through a long-lived           admission-control session: admits, removals and updates re-run           the holistic fixpoint warm-started from the previous converged           jitter state.")
    Term.(
      const run $ file_pos_arg $ variant_arg $ json_arg $ verify_arg
      $ explain_arg $ survivable_arg $ metrics_arg $ trace_out_arg)

(* ------------------------------------------------------------------ *)
(* experiment                                                         *)
(* ------------------------------------------------------------------ *)

let experiment_cmd =
  let id_arg =
    let doc = "Experiment id (E1..E19) or $(b,all)." in
    Arg.(value & pos 0 string "all" & info [] ~docv:"ID" ~doc)
  in
  let run id =
    if String.lowercase_ascii id = "all" then begin
      Experiments.Registry.run_all ();
      0
    end
    else
      match Experiments.Registry.find id with
      | Some e ->
          e.Experiments.Registry.run ();
          0
      | None ->
          prerr_endline ("gmfnet: unknown experiment " ^ id);
          1
  in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:"Regenerate a paper experiment (see EXPERIMENTS.md).")
    Term.(const run $ id_arg)

(* ------------------------------------------------------------------ *)

let main =
  let doc =
    "schedulability analysis of generalized multiframe traffic on multihop \
     networks of software-implemented Ethernet switches"
  in
  Cmd.group
    (Cmd.info "gmfnet" ~version:"1.0.0" ~doc)
    [
      list_cmd; lint_cmd; precheck_cmd; analyze_cmd; simulate_cmd; gen_cmd;
      admission_cmd; explain_cmd; backlog_cmd; plan_cmd; validate_cmd; profile_cmd;
      session_cmd; survive_cmd; assign_cmd; experiment_cmd;
    ]

let () = exit (Cmd.eval' main)
