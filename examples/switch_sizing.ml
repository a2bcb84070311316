(* Switch sizing with the Conclusions' multiprocessor construction.

   The paper observes that CIRC(N) - the time until a switch task is served
   again - "heavily influences the delay", and proposes assigning
   NINTERFACES/m interfaces to each of m processors.  This example plays
   hardware architect: given a port count and a link speed, find the
   smallest processor count whose CIRC keeps the egress task ahead of the
   link (CIRC < MFT) and quantify the delay impact on a reference workload.

   Run with:  dune exec examples/switch_sizing.exe *)

open Gmf_util

let divisors n = List.filter (fun m -> n mod m = 0) (List.init n succ)

let () =
  let ports = 48 in
  Printf.printf
    "sizing a %d-port software switch (CROUTE=2.7us, CSEND=1us per task)\n\n"
    ports;
  Printf.printf "%6s %12s %30s\n" "CPUs" "CIRC" "keeps a 1 Gbit/s link busy?";
  let mft_1g = Ethernet.Fragment.mft ~rate_bps:1_000_000_000 in
  List.iter
    (fun m ->
      let model = Click.Switch_model.make ~ninterfaces:ports ~processors:m () in
      let circ = Click.Switch_model.circ model in
      Printf.printf "%6d %12s %30s\n" m
        (Timeunit.to_string circ)
        (if circ < mft_1g then "yes (CIRC < MFT = 12.304us)" else "no"))
    (divisors ports);

  (* The paper's pick: 16 processors -> CIRC = 11.1us. *)
  let paper_pick = Click.Switch_model.make ~ninterfaces:ports ~processors:16 () in
  Printf.printf "\npaper's configuration: %s\n"
    (Format.asprintf "%a" Click.Switch_model.pp paper_pick);

  (* Delay impact: the Figure 1 workload with every switch replaced by a
     given model, at 1 Gbit/s. *)
  Printf.printf
    "\nvideo worst-case bound on the Figure 1 workload at 1 Gbit/s:\n";
  List.iter
    (fun m ->
      let model = Click.Switch_model.make ~ninterfaces:ports ~processors:m () in
      let base = Workload.Scenarios.fig1_videoconf ~rate_bps:1_000_000_000 () in
      let scenario = Traffic.Scenario.map_switches base ~f:(fun _ _ -> model) in
      let report = Analysis.Holistic.analyze scenario in
      let bound =
        if Analysis.Holistic.is_schedulable report then
          let video =
            List.find
              (fun r ->
                r.Analysis.Result_types.flow.Traffic.Flow.id
                = Workload.Scenarios.video_flow_id)
              report.Analysis.Holistic.results
          in
          Timeunit.to_string
            (Analysis.Result_types.worst_frame video).Analysis.Result_types.total
        else "unschedulable"
      in
      Printf.printf "  %2d CPUs (CIRC %8s): %s\n" m
        (Timeunit.to_string (Click.Switch_model.circ model))
        bound)
    [ 1; 2; 4; 8; 16; 48 ]
