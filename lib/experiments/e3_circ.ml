open Gmf_util

type row = {
  ports : int;
  processors : int;
  circ : Timeunit.ns;
  video_bound : Timeunit.ns option;
}

let configurations = [ (4, 1); (8, 1); (16, 1); (32, 1); (48, 16); (48, 1) ]

let scenario_with_model model =
  Traffic.Scenario.map_switches (Workload.Scenarios.fig1_videoconf ())
    ~f:(fun _ _ -> model)

let sweep () =
  List.map
    (fun (ports, processors) ->
      let model = Click.Switch_model.make ~ninterfaces:ports ~processors () in
      let report = Analysis.Holistic.analyze (scenario_with_model model) in
      let video_bound =
        if Analysis.Holistic.is_schedulable report then
          Some (Exp_common.worst_total report Workload.Scenarios.video_flow_id)
        else None
      in
      { ports; processors; circ = Click.Switch_model.circ model; video_bound })
    configurations

let run () =
  Exp_common.section
    "E3: CIRC sensitivity (Section 2.2 + Conclusions) - Figure 1 scenario";
  (* The two headline constants. *)
  let circ_of p m =
    Click.Switch_model.circ (Click.Switch_model.make ~ninterfaces:p ~processors:m ())
  in
  Exp_common.check_line ~label:"CIRC, 4 ports / 1 CPU (Section 2.2)"
    ~expected:"14.8us"
    ~got:(Timeunit.to_string (circ_of 4 1));
  Exp_common.check_line ~label:"CIRC, 48 ports / 16 CPUs (Conclusions)"
    ~expected:"11.1us"
    ~got:(Timeunit.to_string (circ_of 48 16));
  (* Conclusions: such a switch 'can comfortably deal with 1 Gbit/s links':
     a maximal Ethernet frame occupies a 1 Gbit/s link longer than one task
     rotation, so the egress task keeps the link busy. *)
  let mft_1g = Ethernet.Fragment.mft ~rate_bps:1_000_000_000 in
  Exp_common.kv "MFT at 1 Gbit/s" (Timeunit.to_string mft_1g);
  Exp_common.kv "CIRC(48,16) < MFT(1Gb/s)?"
    (if circ_of 48 16 < mft_1g then "yes (claim reproduced)" else "NO");
  print_newline ();
  let table =
    Tablefmt.create
      ~columns:
        [
          ("ports", Tablefmt.Right); ("CPUs", Tablefmt.Right);
          ("CIRC", Tablefmt.Right); ("video worst R", Tablefmt.Right);
        ]
  in
  List.iter
    (fun r ->
      Tablefmt.add_row table
        [
          string_of_int r.ports; string_of_int r.processors;
          Timeunit.to_string r.circ;
          (match r.video_bound with
          | Some b -> Timeunit.to_string b
          | None -> "unschedulable");
        ])
    (sweep ());
  Tablefmt.print table;
  print_endline
    "  (bounds grow with CIRC; the multiprocessor 48-port switch matches the\n\
    \   4-port single-CPU switch, as the Conclusions argue)"
