open Gmf_util

type point = {
  offered : int;
  offered_utilization : float;
  gmf_admitted : int;
  sporadic_admitted : int;
}

let rate_bps = 100_000_000

let candidate topo hosts sw id =
  Traffic.Flow.make ~id
    ~name:(Printf.sprintf "video%d" id)
    ~spec:
      (Workload.Mpeg.spec
         ~sizes:
           {
             Workload.Mpeg.i_plus_p_bytes = 88_000;
             p_bytes = 40_000;
             b_bytes = 16_000;
           }
         ~deadline:(Timeunit.ms 260) ())
    ~encap:Ethernet.Encap.Udp
    ~route:(Network.Route.make topo [ hosts.(0); sw; hosts.(1) ])
    ~priority:5

let sweep ?(max_flows = 14) () =
  let topo, hosts, sw = Workload.Topologies.star ~rate_bps ~hosts:2 () in
  let candidates = List.init max_flows (candidate topo hosts sw) in
  let flow0 = List.hd candidates in
  let u1 =
    Traffic.Link_params.utilization
      (Traffic.Link_params.make ~flow:flow0
         ~link:(Network.Topology.link_exn topo ~src:hosts.(0) ~dst:sw))
  in
  (* One greedy run per controller answers every prefix. *)
  let gmf_in, _ = Analysis.Admission.admit_greedily ~topo candidates in
  let spor_in, _ = Baseline.Sporadic.admit_greedily ~topo candidates in
  List.init max_flows (fun i ->
      let offered = i + 1 in
      {
        offered;
        offered_utilization = float_of_int offered *. u1;
        gmf_admitted = Exp_common.admitted_among ~offered gmf_in;
        sporadic_admitted = Exp_common.admitted_among ~offered spor_in;
      })

let run () =
  Exp_common.section
    "E4: admission ratio - GMF analysis vs sporadic baseline (100 Mbit/s \
     bottleneck)";
  let table =
    Tablefmt.create
      ~columns:
        [
          ("offered", Tablefmt.Right); ("offered U", Tablefmt.Right);
          ("GMF admitted", Tablefmt.Right);
          ("sporadic admitted", Tablefmt.Right);
          ("GMF ratio", Tablefmt.Right); ("sporadic ratio", Tablefmt.Right);
        ]
  in
  let points = sweep () in
  List.iter
    (fun p ->
      Tablefmt.add_row table
        [
          string_of_int p.offered;
          Printf.sprintf "%.2f" p.offered_utilization;
          string_of_int p.gmf_admitted;
          string_of_int p.sporadic_admitted;
          Exp_common.ratio p.gmf_admitted p.offered;
          Exp_common.ratio p.sporadic_admitted p.offered;
        ])
    points;
  Tablefmt.print table;
  let last = List.nth points (List.length points - 1) in
  Exp_common.kv "GMF admits x more flows at saturation"
    (Exp_common.ratio last.gmf_admitted last.sporadic_admitted)
