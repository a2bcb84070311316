open Gmf_util

type point = { offered : int; fixed_admitted : int; rerouted_admitted : int }

(* Identical medium-rate video flows 0 -> 3, default route via switch 4
   then 6 (the Figure 2 route). *)
let candidates net count =
  let topo = net.Workload.Topologies.topo in
  let h = net.Workload.Topologies.endhosts
  and s = net.Workload.Topologies.switches in
  List.init count (fun id ->
      Traffic.Flow.make ~id
        ~name:(Printf.sprintf "video%d" id)
        ~spec:
          (Workload.Mpeg.spec
             ~sizes:
               { Workload.Mpeg.i_plus_p_bytes = 88_000; p_bytes = 40_000;
                 b_bytes = 16_000 }
             ~deadline:(Timeunit.ms 260) ())
        ~encap:Ethernet.Encap.Udp
        ~route:(Network.Route.make topo [ h.(0); s.(0); s.(2); h.(3) ])
        ~priority:5)

let sweep ?(max_flows = 12) () =
  let net = Workload.Topologies.example ~rate_bps:100_000_000 () in
  let topo = net.Workload.Topologies.topo in
  let all = candidates net max_flows in
  (* One greedy run per controller answers every prefix. *)
  let fixed, _ = Analysis.Admission.admit_greedily ~topo all in
  let rerouted, _ = Analysis.Rerouting.admit_greedily ~topo all in
  List.init max_flows (fun i ->
      let offered = i + 1 in
      {
        offered;
        fixed_admitted = Exp_common.admitted_among ~offered fixed;
        rerouted_admitted = Exp_common.admitted_among ~offered rerouted;
      })

let run () =
  Exp_common.section
    "E15: admission with rerouting on the Figure 1 network (100 Mbit/s)";
  let table =
    Tablefmt.create
      ~columns:
        [
          ("offered", Tablefmt.Right); ("fixed-route admits", Tablefmt.Right);
          ("rerouting admits", Tablefmt.Right);
        ]
  in
  let points = sweep () in
  List.iter
    (fun p ->
      Tablefmt.add_row table
        [
          string_of_int p.offered; string_of_int p.fixed_admitted;
          string_of_int p.rerouted_admitted;
        ])
    points;
  Tablefmt.print table;
  let last = List.nth points (List.length points - 1) in
  Exp_common.kv "rerouting gain at saturation"
    (Printf.sprintf "%d extra flows"
       (last.rerouted_admitted - last.fixed_admitted));
  print_endline
    "  (the 0->4->5->6->3 detour absorbs the overflow once the Figure 2\n\
    \   route saturates; the paper's pre-specified routes leave this gain\n\
    \   to the operator)"
