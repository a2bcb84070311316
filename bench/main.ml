(* Bechamel benchmark harness.

   One benchmark per experiment (E1..E10) measuring the computational core
   that regenerates it (table rendering excluded), plus microbenchmarks of
   the hot primitives (request-bound functions, fragmentation, event
   queue, stride dispatch).

   Run with:  dune exec bench/main.exe *)

open Bechamel
open Toolkit
open Gmf_util

(* ------------------------------------------------------------------ *)
(* Experiment-level benchmarks                                        *)
(* ------------------------------------------------------------------ *)

let fig1 = Workload.Scenarios.fig1_videoconf ()

let bench_e1 =
  Test.make ~name:"e1:worked-example"
    (Staged.stage (fun () -> ignore (Experiments.E1_worked_example.compute ())))

let bench_e2 =
  Test.make ~name:"e2:holistic-fig1"
    (Staged.stage (fun () -> ignore (Analysis.Holistic.analyze fig1)))

let e3_scenario =
  let model = Click.Switch_model.make ~ninterfaces:48 ~processors:16 () in
  let topo = Traffic.Scenario.topo fig1 in
  Traffic.Scenario.make
    ~switches:(List.map (fun n -> (n, model)) (Traffic.Scenario.switch_nodes fig1))
    ~topo ~flows:(Traffic.Scenario.flows fig1) ()

let bench_e3 =
  Test.make ~name:"e3:multiprocessor-switch"
    (Staged.stage (fun () -> ignore (Analysis.Holistic.analyze e3_scenario)))

let e4_candidates, e4_topo =
  let topo, hosts, sw =
    Workload.Topologies.star ~rate_bps:100_000_000 ~hosts:2 ()
  in
  ( List.init 5 (fun id ->
        Traffic.Flow.make ~id
          ~name:(Printf.sprintf "video%d" id)
          ~spec:(Workload.Mpeg.spec ~deadline:(Timeunit.ms 260) ())
          ~encap:Ethernet.Encap.Udp
          ~route:(Network.Route.make topo [ hosts.(0); sw; hosts.(1) ])
          ~priority:5),
    topo )

let bench_e4 =
  Test.make ~name:"e4:greedy-admission"
    (Staged.stage (fun () ->
         ignore
           (Analysis.Admission.admit_greedily ~topo:e4_topo ~switches:[]
              e4_candidates)))

let bench_e5 =
  Test.make ~name:"e5:analyze+simulate-fig1"
    (Staged.stage (fun () ->
         ignore
           (Experiments.E5_validation.validate ~duration:(Timeunit.ms 300)
              ~name:"bench" fig1)))

let bench_e6 =
  Test.make ~name:"e6:convergence-sweep"
    (Staged.stage (fun () -> ignore (Experiments.E6_convergence.sweep ())))

let e7_star_scenario =
  let topo, hosts, sw =
    Workload.Topologies.star ~rate_bps:1_000_000_000 ~hosts:16 ()
  in
  let flows =
    List.init 8 (fun id ->
        Traffic.Flow.make ~id
          ~name:(Printf.sprintf "v%d" id)
          ~spec:(Workload.Mpeg.spec ~deadline:(Timeunit.ms 260) ())
          ~encap:Ethernet.Encap.Udp
          ~route:
            (Network.Route.make topo [ hosts.(2 * id); sw; hosts.((2 * id) + 1) ])
          ~priority:(id mod 8))
  in
  Traffic.Scenario.make ~topo ~flows ()

let bench_e7_flows =
  Test.make ~name:"e7:scaling-8-flows"
    (Staged.stage (fun () -> ignore (Analysis.Holistic.analyze e7_star_scenario)))

let e7_chain = Workload.Scenarios.multihop_chain ~switches:8 ()

let bench_e7_chain =
  Test.make ~name:"e7:scaling-8-switch-chain"
    (Staged.stage (fun () -> ignore (Analysis.Holistic.analyze e7_chain)))

let bench_e8_faithful =
  Test.make ~name:"e8:faithful-fig1"
    (Staged.stage (fun () ->
         ignore (Analysis.Holistic.analyze ~config:Analysis.Config.faithful fig1)))

let bench_e8_repaired =
  Test.make ~name:"e8:repaired-fig1"
    (Staged.stage (fun () -> ignore (Analysis.Holistic.analyze fig1)))

let bench_e9 =
  Test.make ~name:"e9:stride-600-quanta"
    (Staged.stage (fun () ->
         ignore (Experiments.E9_stride.allocation_table ~steps:600 [ 3; 2; 1 ])))

let e10_scenario =
  let topo, hosts, sw =
    Workload.Topologies.star ~rate_bps:100_000_000 ~hosts:9 ()
  in
  let flows =
    List.init 8 (fun rank ->
        Traffic.Flow.make ~id:rank
          ~name:(Printf.sprintf "rank%d" rank)
          ~spec:
            (Workload.Mpeg.spec
               ~sizes:
                 { Workload.Mpeg.i_plus_p_bytes = 11_000; p_bytes = 5_000;
                   b_bytes = 2_000 }
               ~deadline:(Timeunit.ms 260) ())
          ~encap:Ethernet.Encap.Udp
          ~route:(Network.Route.make topo [ hosts.(rank); sw; hosts.(8) ])
          ~priority:rank)
  in
  Traffic.Scenario.make ~topo ~flows ()

let bench_e10 =
  Test.make ~name:"e10:8-priority-analysis"
    (Staged.stage (fun () -> ignore (Analysis.Holistic.analyze e10_scenario)))

(* ------------------------------------------------------------------ *)
(* Microbenchmarks                                                    *)
(* ------------------------------------------------------------------ *)

let demand =
  let flow = Traffic.Scenario.flow fig1 Workload.Scenarios.video_flow_id in
  (Traffic.Scenario.params fig1 flow ~src:0 ~dst:4)
    .Traffic.Link_params.time_demand

let bench_mx =
  Test.make ~name:"micro:MX-request-bound"
    (Staged.stage (fun () ->
         ignore (Gmf.Demand.bound demand ~capped:false (Timeunit.ms 137))))

let bench_fragment =
  Test.make ~name:"micro:fragmentation-64kB"
    (Staged.stage (fun () ->
         ignore (Ethernet.Fragment.fragment_wire_bits ~nbits:524_288)))

let bench_heap =
  Test.make ~name:"micro:heap-push-pop-256"
    (Staged.stage (fun () ->
         let h = Heap.create ~cmp:compare () in
         for i = 255 downto 0 do
           Heap.push h i
         done;
         while not (Heap.is_empty h) do
           ignore (Heap.pop h)
         done))

let bench_engine =
  Test.make ~name:"micro:engine-1k-events"
    (Staged.stage (fun () ->
         let e = Sim.Engine.create () in
         for i = 1 to 1_000 do
           Sim.Engine.schedule_at e ~at:i (fun () -> ())
         done;
         Sim.Engine.run e))

let stride_state = Stride.Scheduler.round_robin ~ntasks:8

let bench_stride =
  Test.make ~name:"micro:stride-select"
    (Staged.stage (fun () -> ignore (Stride.Scheduler.select stride_state)))

let bench_sim_100ms =
  Test.make ~name:"micro:netsim-fig1-100ms"
    (Staged.stage (fun () ->
         ignore
           (Sim.Netsim.run
              ~config:
                { Sim.Sim_config.default with duration = Timeunit.ms 100 }
              fig1)))

(* ------------------------------------------------------------------ *)
(* Benchmarks of the extensions                                       *)
(* ------------------------------------------------------------------ *)

let bench_pathfind =
  let topo = Traffic.Scenario.topo fig1 in
  Test.make ~name:"ext:pathfind-all-routes"
    (Staged.stage (fun () ->
         ignore (Network.Pathfind.all_routes topo ~src:0 ~dst:3)))

let bench_backlog =
  let ctx = Analysis.Ctx.create fig1 in
  let report = Analysis.Holistic.run ctx in
  Test.make ~name:"ext:backlog-bounds"
    (Staged.stage (fun () ->
         ignore (Analysis.Backlog.egress_bounds ctx report)))

let bench_dbf =
  let task =
    Gmf.Dbf.of_spec Workload.Mpeg.fig3_spec ~cost_of:(fun f ->
        Ethernet.Fragment.tx_time
          ~nbits:
            (Ethernet.Encap.nbits Ethernet.Encap.Udp
               ~payload_bits:f.Gmf.Frame_spec.payload_bits)
          ~rate_bps:100_000_000)
  in
  Test.make ~name:"ext:dbf-one-second"
    (Staged.stage (fun () -> ignore (Gmf.Dbf.dbf task (Timeunit.s 1))))

let bench_contract =
  let trace =
    Workload.Contract.synthetic_mpeg_trace (Rng.create ~seed:3) ~packets:120 ()
  in
  Test.make ~name:"ext:contract-extraction"
    (Staged.stage (fun () ->
         ignore
           (Workload.Contract.of_trace ~cycle:9 ~deadline:(Timeunit.ms 150)
              trace)))

let bench_scenario_io =
  let text = Scenario_io.Print.to_string fig1 in
  Test.make ~name:"ext:scenario-parse"
    (Staged.stage (fun () ->
         match Scenario_io.Parse.scenario_of_string text with
         | Ok _ -> ()
         | Error _ -> assert false))

let bench_priority_assign =
  let flows = Traffic.Scenario.flows fig1 in
  Test.make ~name:"ext:priority-assignment"
    (Staged.stage (fun () ->
         ignore
           (Analysis.Priority_assign.assign
              Analysis.Priority_assign.Deadline_monotonic flows)))

let bench_e17 =
  Test.make ~name:"ext:tight-jitter-fig1"
    (Staged.stage (fun () ->
         ignore (Analysis.Holistic.analyze ~config:Analysis.Config.tight fig1)))

let bench_e18 =
  Test.make ~name:"ext:stage-validation-rows"
    (Staged.stage (fun () ->
         ignore (Experiments.E18_stage_validation.rows ())))

let bench_rerouting =
  let topo = Traffic.Scenario.topo fig1 in
  let candidate =
    Traffic.Flow.make ~id:90 ~name:"candidate" ~spec:Workload.Mpeg.fig3_spec
      ~encap:Ethernet.Encap.Udp
      ~route:(Network.Route.make topo [ 1; 4; 6; 3 ])
      ~priority:5
  in
  Test.make ~name:"ext:rerouting-admit"
    (Staged.stage (fun () ->
         ignore (Analysis.Rerouting.admit fig1 ~candidate)))

(* ------------------------------------------------------------------ *)
(* Admission-control churn (Gmf_admctl)                               *)
(* ------------------------------------------------------------------ *)

(* A 50-event trace of interleaved admits and removals over a 4-switch
   line.  Long-haul flows make cold fixpoints propagate jitter across
   several rounds, which is exactly what warm starts amortize.  Replayed
   three ways: warm (the session default), cold (every event from
   scratch) and an instrumented shadow pass that feeds the admctl.*
   counters, including the rounds the warm starts saved. *)
module Admctl_churn = struct
  module Session = Gmf_admctl.Session

  let hosts_per_switch = 3
  let nswitches = 4

  let topo, hosts, switches =
    Workload.Topologies.line ~rate_bps:100_000_000 ~hosts_per_switch
      ~switches:nswitches ()

  let route_between (s1, h1) (s2, h2) =
    let lo = min s1 s2 and hi = max s1 s2 in
    let mids = Array.to_list (Array.sub switches lo (hi - lo + 1)) in
    let mids = if s1 <= s2 then mids else List.rev mids in
    Network.Route.make topo ((hosts.(s1).(h1) :: mids) @ [ hosts.(s2).(h2) ])

  let mk_flow ~id ~prio ~src ~dst kind =
    let spec =
      match kind with
      | `Voip -> Workload.Voip.g711_spec ()
      | `Video ->
          Workload.Mpeg.spec ~deadline:(Timeunit.ms 260)
            ~jitter:(Timeunit.ms 1) ()
    in
    Traffic.Flow.make ~id
      ~name:(Printf.sprintf "f%d" id)
      ~spec ~encap:Ethernet.Encap.Udp ~route:(route_between src dst)
      ~priority:prio

  (* Build-up of 20 flows, then 30 churn events: remove the oldest
     admitted flow, admit a fresh replacement elsewhere.  Deterministic
     (fixed seed) so warm, cold and shadow replays see the same trace. *)
  let events =
    let rng = Rng.create ~seed:42 in
    let next_id = ref 0 in
    let live = Queue.create () in
    let admit () =
      let id = !next_id in
      incr next_id;
      let s1 = Rng.int rng nswitches in
      let s2 = (s1 + 1 + Rng.int rng (nswitches - 1)) mod nswitches in
      let h1 = Rng.int rng hosts_per_switch
      and h2 = Rng.int rng hosts_per_switch in
      let kind = if Rng.int rng 5 = 0 then `Video else `Voip in
      let flow =
        mk_flow ~id ~prio:(Rng.int rng 8) ~src:(s1, h1) ~dst:(s2, h2) kind
      in
      Queue.add id live;
      Session.Admit flow
    in
    let evs = ref [] in
    for _ = 1 to 20 do
      evs := admit () :: !evs
    done;
    for i = 1 to 30 do
      if i mod 2 = 0 then evs := admit () :: !evs
      else evs := Session.Remove (Queue.take live) :: !evs
    done;
    List.rev !evs

  let replay_events ~warm ~shadow events =
    let session = Session.create ~warm ~shadow ~topo () in
    List.iter (fun ev -> ignore (Session.apply session ev)) events;
    Session.summary session

  let replay ~warm ~shadow () = replay_events ~warm ~shadow events

  (* The timed table uses a short prefix so bechamel gets enough runs for
     a meaningful estimate; the JSON report replays the full trace. *)
  let bench =
    let prefix = List.filteri (fun i _ -> i < 8) events in
    Test.make ~name:"ext:admctl-churn8"
      (Staged.stage (fun () ->
           ignore (replay_events ~warm:true ~shadow:false prefix)))

  let json_report () =
    let time f =
      let t0 = Unix.gettimeofday () in
      let r = f () in
      (r, Unix.gettimeofday () -. t0)
    in
    let warm, warm_s = time (replay ~warm:true ~shadow:false) in
    let cold, cold_s = time (replay ~warm:false ~shadow:false) in
    (* Instrumented shadow pass: every warm fixpoint is compared against
       its cold reference, accumulating admctl.rounds_saved. *)
    let reg = Gmf_obs.Metrics.default in
    Gmf_obs.Metrics.set_enabled reg true;
    Gmf_obs.Metrics.reset reg;
    let shadow = replay ~warm:true ~shadow:true () in
    Gmf_obs.Metrics.set_enabled reg false;
    let counter name =
      Gmf_obs.Metrics.counter_value (Gmf_obs.Metrics.counter reg name)
    in
    let buf = Buffer.create 512 in
    let rate events seconds =
      if seconds <= 0. then 0. else float_of_int events /. seconds
    in
    Buffer.add_string buf "{\n";
    Buffer.add_string buf
      (Printf.sprintf "  \"benchmark\": \"admctl-churn\",\n\
                      \  \"events\": %d,\n\
                      \  \"final_flows\": %d,\n"
         warm.Session.events warm.Session.flow_count);
    Buffer.add_string buf
      (Printf.sprintf
         "  \"warm\": {\"seconds\": %.6f, \"events_per_sec\": %.1f, \
          \"rounds_total\": %d, \"warm_hits\": %d, \"cold_resets\": %d},\n"
         warm_s
         (rate warm.Session.events warm_s)
         warm.Session.rounds_total warm.Session.warm_hits
         warm.Session.cold_resets);
    Buffer.add_string buf
      (Printf.sprintf
         "  \"cold\": {\"seconds\": %.6f, \"events_per_sec\": %.1f, \
          \"rounds_total\": %d},\n"
         cold_s
         (rate cold.Session.events cold_s)
         cold.Session.rounds_total);
    Buffer.add_string buf
      (Printf.sprintf
         "  \"rounds_saved\": %d,\n\
          \  \"counters\": {\"admctl.events\": %d, \"admctl.warm_hits\": \
          %d, \"admctl.cold_resets\": %d, \"admctl.rounds_saved\": %d}\n"
         shadow.Session.rounds_saved (counter "admctl.events")
         (counter "admctl.warm_hits")
         (counter "admctl.cold_resets")
         (counter "admctl.rounds_saved"));
    Buffer.add_string buf "}\n";
    Buffer.contents buf
end

(* ------------------------------------------------------------------ *)
(* Fault recovery (Gmf_faults)                                        *)
(* ------------------------------------------------------------------ *)

(* Two costs of a link failure: the degraded-mode session fixpoint that
   reroutes the affected flows (warm-started from the unaffected
   remainder vs recomputed cold), and the static k=1 survivability sweep
   of the fig1 scenario.  The session trace is a diamond carrying the
   faulted traffic plus a disconnected multihop line whose long-haul
   flows take several rounds to converge cold but stay outside the
   interference closure of the failure — the state the warm start
   preserves. *)
module Survive_bench = struct
  module Session = Gmf_admctl.Session
  module Replay = Gmf_admctl.Replay

  let line_switches = 4
  let line_flows = 8

  let trace_text =
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
    for s = 0 to line_switches - 1 do
      Buffer.add_string buf
        (Printf.sprintf
           "node l%d endhost\nnode ls%d switch\nduplex l%d ls%d rate=10M\n"
           s s s s);
      if s > 0 then
        Buffer.add_string buf
          (Printf.sprintf "duplex ls%d ls%d rate=10M\n" (s - 1) s)
    done;
    for s = 0 to line_switches - 1 do
      Buffer.add_string buf
        (Printf.sprintf "switch ls%d ports=3 cpus=1 croute=2.7us csend=1us\n"
           s)
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
    for f = 0 to line_flows - 1 do
      let src, dst =
        if f mod 2 = 0 then (0, line_switches - 1) else (line_switches - 1, 0)
      in
      Buffer.add_string buf
        (Printf.sprintf
           "admit flow lh%d from=l%d to=l%d prio=%d encap=udp\n\
           \  frame period=%dms deadline=900ms jitter=2ms payload=%dB\nend\n"
           f src dst (f mod 8)
           (33 + (5 * f))
           (8_000 + (2_000 * f)))
    done;
    Buffer.add_string buf "fail link sw1 sw2\n";
    Buffer.contents buf

  let trace =
    match Scenario_io.Admtrace.of_string trace_text with
    | Ok t -> t
    | Error e ->
        failwith (Format.asprintf "%a" Scenario_io.Parse.pp_error e)

  let fail_outcome outcomes =
    match
      List.find_opt
        (fun (o : Session.outcome) -> o.Session.degradation <> None)
        outcomes
    with
    | Some o -> o
    | None -> failwith "trace has no fault event"

  let replay ~warm ~shadow () = Replay.run ~warm ~shadow trace

  let bench =
    Test.make ~name:"ext:survive-fig1-k1"
      (Staged.stage (fun () ->
           ignore
             (Gmf_faults.Survive.run ~k:1
                (Workload.Scenarios.fig1_videoconf ()))))

  (* A 6x6 software-switch mesh for the k>=2 sweeps, tiled: every flow
     stays inside a 2-cell tile of the grid (its own access switches and
     the fabric link between them), so the interference graph fragments
     into one component per tile — the regime the delta engine exists
     for.  A failure case only perturbs its tiles (plus whatever tiles
     the reroute detours borrow switches from); every other component is
     certified untouched and carried over from the shared base, while
     the cold engine re-analyzes all of them per case.  The failure
     domain is the intra-tile fabric links, which keeps the k=2/k=3
     case counts a bench, not a soak test. *)
  let mesh_rows = 18
  let mesh_cols = 6

  (* Light frames with generous deadlines: almost every tile certifies
     statically, so per-case cost is dominated by the full-scenario scans
     (precheck, lint, digest) the cold engine repeats for every failure
     case — exactly the O(N)-per-case work the delta engine's closure
     restriction avoids.  The detour-merged components of a failed tile
     still fall back to real fixpoints, and both engines pay those. *)
  let mesh_profile =
    {
      Workload.Random_gen.default_profile with
      Workload.Random_gen.payload_bytes = (2_000, 6_000);
      deadline_factor = (1.5, 2.2);
      jitter = (0, 50_000);
    }

  let mesh_scenario_and_domain =
    lazy
      (let built =
         Gmf_topogen.Builders.build ~rate_bps:100_000_000
           ~prop:Gmf_topogen.Gen_spec.default.Gmf_topogen.Gen_spec.prop
           ~hosts_per_switch:4
           (Gmf_topogen.Gen_spec.Mesh
              { rows = mesh_rows; cols = mesh_cols; planes = 1 })
       in
       let topo = built.Gmf_topogen.Builders.topo in
       let hosts_of = Hashtbl.create 64 in
       Array.iteri
         (fun i h ->
           let c = built.Gmf_topogen.Builders.host_region.(i) in
           Hashtbl.replace hosts_of c
             (h :: (Option.value ~default:[] (Hashtbl.find_opt hosts_of c))))
         built.Gmf_topogen.Builders.hosts;
       let switch_of h = List.hd (Network.Topology.out_neighbors topo h) in
       let rng = Gmf_util.Rng.create ~seed:42 in
       let pairs = ref [] and domain = ref [] in
       (* Tiles pair horizontally adjacent cells (r, 2t)-(r, 2t+1). *)
       for r = 0 to mesh_rows - 1 do
         for t = 0 to (mesh_cols / 2) - 1 do
           let ca = (r * mesh_cols) + (2 * t)
           and cb = (r * mesh_cols) + (2 * t) + 1 in
           match (Hashtbl.find_opt hosts_of ca, Hashtbl.find_opt hosts_of cb)
           with
           | Some (a0 :: a1 :: a2 :: a3 :: _), Some (b0 :: b1 :: b2 :: b3 :: _)
             ->
               pairs :=
                 (b0, a3) :: (a2, b3) :: (b2, a2) :: (a1, b1) :: (b1, a0)
                 :: (a0, b0) :: !pairs;
               let sa = switch_of a0 and sb = switch_of b0 in
               domain :=
                 Gmf_faults.Survive.Link (min sa sb, max sa sb) :: !domain
           | _ -> failwith "survive bench: mesh tile missing hosts"
         done
       done;
       let flows =
         Workload.Random_gen.flows_between rng ~profile:mesh_profile ~topo
           ~pairs:(List.rev !pairs) ()
       in
       (Traffic.Scenario.make ~topo ~flows (), List.rev !domain))

  let mesh_domain domain n =
    let rec take k = function
      | x :: tl when k > 0 -> x :: take (k - 1) tl
      | _ -> []
    in
    take n domain

  (* Engine equivalence is part of the bench contract: render the
     observable part of both reports (fates, matrix, shed set — not the
     engine-dependent rounds or delta stats) and require byte equality. *)
  let sweep_signature scenario (r : Gmf_faults.Survive.report) =
    let buf = Buffer.create 4096 in
    List.iter
      (fun (c : Gmf_faults.Survive.case_result) ->
        List.iter
          (fun comp ->
            Buffer.add_string buf
              (Gmf_faults.Survive.component_name scenario comp);
            Buffer.add_char buf '+')
          c.Gmf_faults.Survive.case;
        Buffer.add_char buf '|';
        List.iter
          (fun ((f : Traffic.Flow.t), fate) ->
            Buffer.add_string buf
              (Printf.sprintf "%d=%s;" f.Traffic.Flow.id
                 (match fate with
                 | Gmf_faults.Survive.Unaffected -> "u"
                 | Gmf_faults.Survive.Rerouted _ -> "r"
                 | Gmf_faults.Survive.Shed -> "s")))
          c.Gmf_faults.Survive.fates;
        Buffer.add_char buf '\n')
      r.Gmf_faults.Survive.cases;
    List.iter
      (fun ((f : Traffic.Flow.t), v) ->
        Buffer.add_string buf
          (Printf.sprintf "%d:%s;" f.Traffic.Flow.id
             (match v with
             | Gmf_faults.Survive.Survives -> "ok"
             | Gmf_faults.Survive.Survives_with_reroute -> "rr"
             | Gmf_faults.Survive.Must_shed -> "shed")))
      r.Gmf_faults.Survive.matrix;
    List.iter
      (fun (f : Traffic.Flow.t) ->
        Buffer.add_string buf (Printf.sprintf "!%d" f.Traffic.Flow.id))
      r.Gmf_faults.Survive.shed_set;
    Buffer.contents buf

  let json_report () =
    let time f =
      let t0 = Unix.gettimeofday () in
      let r = f () in
      (r, Unix.gettimeofday () -. t0)
    in
    let warm, warm_s = time (replay ~warm:true ~shadow:false) in
    let cold, cold_s = time (replay ~warm:false ~shadow:false) in
    let warm_fail = fail_outcome warm.Replay.outcomes in
    let cold_fail = fail_outcome cold.Replay.outcomes in
    let degradation o =
      match o.Session.degradation with
      | Some { Session.rerouted; shed } ->
          (List.length rerouted, List.length shed)
      | None -> (0, 0)
    in
    let rerouted, shed = degradation warm_fail in
    let static, static_s =
      time (fun () ->
          Gmf_faults.Survive.run ~k:1 (Workload.Scenarios.fig1_videoconf ()))
    in
    let static_rounds =
      List.fold_left
        (fun acc c -> acc + c.Gmf_faults.Survive.rounds)
        0 static.Gmf_faults.Survive.cases
    in
    let buf = Buffer.create 512 in
    Buffer.add_string buf "{\n";
    Buffer.add_string buf
      (Printf.sprintf
         "  \"benchmark\": \"survive\",\n\
         \  \"session\": {\"events\": %d, \"flows\": %d, \"rerouted\": %d, \
          \"shed\": %d,\n\
         \    \"fail_rounds_warm\": %d, \"fail_rounds_cold\": %d, \
          \"rounds_saved_on_failure\": %d,\n\
         \    \"warm_seconds\": %.6f, \"cold_seconds\": %.6f},\n"
         (Session.summary warm.Replay.session).Session.events
         warm_fail.Session.flow_count rerouted shed warm_fail.Session.rounds
         cold_fail.Session.rounds
         (cold_fail.Session.rounds - warm_fail.Session.rounds)
         warm_s cold_s);
    Buffer.add_string buf
      (Printf.sprintf
         "  \"static\": {\"scenario\": \"fig1\", \"k\": 1, \"cases\": %d, \
          \"rounds_total\": %d, \"shed_flows\": %d, \"seconds\": %.6f},\n"
         (List.length static.Gmf_faults.Survive.cases)
         static_rounds
         (List.length static.Gmf_faults.Survive.shed_set)
         static_s);
    (* k=2 delta vs cold on the mesh, same domain: the headline number
       of the delta engine.  The memo is cleared before every timed run
       so neither engine sees the other's cases. *)
    let scenario, full_domain = Lazy.force mesh_scenario_and_domain in
    let domain = mesh_domain full_domain 12 in
    let clear_memos () =
      Gmf_faults.Survive.clear_memo ();
      Gmf_exec.Memo.clear Analysis.Case.shared_memo
    in
    clear_memos ();
    let d2, d2_s =
      time (fun () ->
          Gmf_faults.Survive.run ~k:2 ~domain ~delta:true scenario)
    in
    clear_memos ();
    let c2, c2_s =
      time (fun () ->
          Gmf_faults.Survive.run ~k:2 ~domain ~delta:false scenario)
    in
    if
      not
        (String.equal (sweep_signature scenario d2)
           (sweep_signature scenario c2))
    then failwith "survive bench: delta sweep diverges from the cold one";
    clear_memos ();
    let d3, d3_s =
      time (fun () ->
          Gmf_faults.Survive.run ~k:3 ~domain:(mesh_domain full_domain 8)
            ~delta:true scenario)
    in
    let totals r =
      match r.Gmf_faults.Survive.delta_totals with
      | Some t ->
          (t.Gmf_faults.Survive.d_closure, t.Gmf_faults.Survive.d_skipped,
           t.Gmf_faults.Survive.d_saved)
      | None -> (0, 0, 0)
    in
    let d2_closure, d2_skipped, d2_saved = totals d2 in
    Buffer.add_string buf
      (Printf.sprintf
         "  \"mesh\": {\"family\": \"mesh:%dx%d\", \"flows\": %d,\n\
         \    \"k2\": {\"cases\": %d, \"delta_seconds\": %.6f, \
          \"cold_seconds\": %.6f, \"speedup\": %.2f,\n\
         \      \"closure_flows\": %d, \"skipped_flows\": %d, \
          \"rounds_saved\": %d},\n\
         \    \"k3\": {\"cases\": %d, \"delta_seconds\": %.6f}}\n"
         mesh_rows mesh_cols
         (List.length (Traffic.Scenario.flows scenario))
         (List.length d2.Gmf_faults.Survive.cases)
         d2_s c2_s
         (c2_s /. Float.max 1e-9 d2_s)
         d2_closure d2_skipped d2_saved
         (List.length d3.Gmf_faults.Survive.cases)
         d3_s);
    Buffer.add_string buf "}\n";
    Buffer.contents buf
end

(* ------------------------------------------------------------------ *)
(* Case-evaluation backends (Gmf_exec)                                *)
(* ------------------------------------------------------------------ *)

(* The k=2 survivability sweep of fig1 — 60+ independent holistic
   fixpoints — evaluated sequentially and through the fork pool.  The
   reported speedup only means something on a multicore runner (the CI
   machines); on a single core the pool pays fork/marshal overhead for
   nothing.  What holds everywhere, and is asserted here, is that the
   rendered reports are byte-identical across backends. *)
module Exec_bench = struct
  let scenario = Workload.Scenarios.fig1_videoconf ()
  let k = 2
  let jobs = 4

  let sweep exec = Gmf_faults.Survive.run ~exec ~k scenario

  let json_report () =
    let time f =
      let t0 = Unix.gettimeofday () in
      let r = f () in
      (r, Unix.gettimeofday () -. t0)
    in
    let seq, seq_s = time (fun () -> sweep Gmf_exec.seq) in
    let pool, pool_s = time (fun () -> sweep (Gmf_exec.pool jobs)) in
    let seq_json = Gmf_faults.Survive.to_json scenario seq in
    let pool_json = Gmf_faults.Survive.to_json scenario pool in
    if not (String.equal seq_json pool_json) then
      failwith "exec bench: pool report diverges from the sequential one";
    (* Second sequential pass against a shared memo pre-filled by the
       first: every case should come back as a hit. *)
    let memo = Gmf_exec.Memo.create () in
    let reg = Gmf_obs.Metrics.default in
    Gmf_obs.Metrics.set_enabled reg true;
    Gmf_obs.Metrics.reset reg;
    ignore
      (Gmf_exec.map_cases ~memo
         ~key:(fun i -> string_of_int i)
         ~f:(fun i -> i * i)
         (List.init 64 Fun.id));
    ignore
      (Gmf_exec.map_cases ~memo
         ~key:(fun i -> string_of_int i)
         ~f:(fun i -> i * i)
         (List.init 64 Fun.id));
    Gmf_obs.Metrics.set_enabled reg false;
    let counter name =
      Gmf_obs.Metrics.counter_value (Gmf_obs.Metrics.counter reg name)
    in
    let speedup = if pool_s <= 0. then 0. else seq_s /. pool_s in
    let buf = Buffer.create 512 in
    Buffer.add_string buf "{\n";
    Buffer.add_string buf
      (Printf.sprintf
         "  \"benchmark\": \"exec\",\n\
         \  \"workload\": {\"scenario\": \"fig1\", \"k\": %d, \"cases\": %d},\n"
         k
         (List.length seq.Gmf_faults.Survive.cases));
    Buffer.add_string buf
      (Printf.sprintf
         "  \"seq\": {\"seconds\": %.6f},\n\
         \  \"pool\": {\"jobs\": %d, \"seconds\": %.6f},\n\
         \  \"speedup\": %.2f,\n\
         \  \"identical_output\": true,\n"
         seq_s jobs pool_s speedup);
    Buffer.add_string buf
      (Printf.sprintf
         "  \"memo\": {\"cases\": %d, \"hits\": %d}\n"
         (counter "exec.cases") (counter "exec.memo_hits"));
    Buffer.add_string buf "}\n";
    Buffer.contents buf
end

(* ------------------------------------------------------------------ *)
(* Static precheck (Gmf_precheck + Analysis.Sharded)                  *)
(* ------------------------------------------------------------------ *)

(* How much of each workload the static pre-analysis decides without any
   fixpoint, and what the per-component sharded driver saves over the
   monolithic holistic run.  The per-scenario leaves (flows, components,
   decided, rounds) are deterministic; the timing leaves feed the
   regression gate with the usual generous tolerance. *)
module Precheck_bench = struct
  (* Four switch-local clusters on one fabric: the flows of different
     switches share no node, so the interference graph falls apart into
     four components — the sharding setting fig1 (one dense component)
     cannot show. *)
  let clusters =
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

  let workloads =
    [
      ("fig1", Workload.Scenarios.fig1_videoconf ());
      ("voip", Workload.Scenarios.single_switch_voip ());
      ("chain", Workload.Scenarios.multihop_chain ());
      ("enterprise", Workload.Scenarios.enterprise ());
      ("clusters", clusters);
    ]

  let json_report () =
    let time f =
      let t0 = Unix.gettimeofday () in
      let r = f () in
      (r, Unix.gettimeofday () -. t0)
    in
    let rows =
      List.map
        (fun (name, scenario) ->
          let mono, mono_s =
            time (fun () -> Analysis.Holistic.analyze scenario)
          in
          let (sharded, pre, stats), sharded_s =
            time (fun () -> Analysis.Sharded.analyze scenario)
          in
          if
            Analysis.Holistic.is_schedulable mono
            <> Analysis.Holistic.is_schedulable sharded
          then
            failwith
              (Printf.sprintf
                 "precheck bench: sharded verdict diverges on %s" name);
          let st = pre.Gmf_precheck.Precheck.stats in
          let flows = st.Gmf_precheck.Igraph.flows in
          let decided = Gmf_precheck.Precheck.decided pre in
          Printf.sprintf
            "    {\"scenario\": \"%s\", \"flows\": %d, \"components\": %d,\n\
            \     \"decided\": %d, \"decided_pct\": %.1f,\n\
            \     \"infeasible\": %d, \"certified\": %d,\n\
            \     \"mono_rounds\": %d, \"sharded_rounds\": %d, \"rounds_saved\": %d,\n\
            \     \"mono\": {\"seconds\": %.6f}, \"sharded\": {\"seconds\": %.6f}}"
            name flows st.Gmf_precheck.Igraph.components decided
            (if flows = 0 then 0.
             else 100. *. float_of_int decided /. float_of_int flows)
            stats.Analysis.Sharded.flows_infeasible
            stats.Analysis.Sharded.flows_certified
            mono.Analysis.Holistic.rounds sharded.Analysis.Holistic.rounds
            (max 0
               (mono.Analysis.Holistic.rounds
              - sharded.Analysis.Holistic.rounds))
            mono_s sharded_s)
        workloads
    in
    let buf = Buffer.create 1024 in
    Buffer.add_string buf "{\n  \"benchmark\": \"precheck\",\n  \"scenarios\": [\n";
    Buffer.add_string buf (String.concat ",\n" rows);
    Buffer.add_string buf "\n  ]\n}\n";
    Buffer.contents buf
end

(* ------------------------------------------------------------------ *)
(* Scale benchmark: generate a TSN-class mesh and admit it            *)
(* ------------------------------------------------------------------ *)

(* End-to-end admission of a generated population: 1,000 flows on a
   25x20 mesh (500 switches, 1,000 dual-attached hosts) at 1 Gbit/s.
   The figure of merit is flows/sec over generation + lint + precheck +
   sharded fixpoints — the whole path an operator would run to admit a
   fleet, and the path the per-link flow indexes and distance-pruned
   route search keep out of quadratic territory. *)
module Scale_bench = struct
  let spec =
    {
      Gmf_topogen.Gen_spec.default with
      Gmf_topogen.Gen_spec.family =
        Gmf_topogen.Gen_spec.Mesh { rows = 25; cols = 20; planes = 1 };
      hosts_per_switch = 2;
      rate_bps = 1_000_000_000;
      flows = 1_000;
      seed = 42;
    }

  let json_report () =
    let time f =
      let t0 = Unix.gettimeofday () in
      let r = f () in
      (r, Unix.gettimeofday () -. t0)
    in
    let result, gen_s =
      time (fun () -> Gmf_topogen.Topogen.generate spec)
    in
    let scenario = result.Gmf_topogen.Topogen.scenario in
    let lint, lint_s = time (fun () -> Gmf_lint.Lint.run scenario) in
    (if Gmf_lint.Lint.fatal ~deny:Gmf_diag.Warning lint then
       failwith "scale bench: generated scenario is not lint-clean");
    let (report, pre, stats), analyze_s =
      time (fun () -> Analysis.Sharded.analyze scenario)
    in
    let placed = result.Gmf_topogen.Topogen.placed in
    if placed < spec.Gmf_topogen.Gen_spec.flows then
      failwith
        (Printf.sprintf "scale bench: placed only %d/%d flows" placed
           spec.Gmf_topogen.Gen_spec.flows);
    let total_s = gen_s +. lint_s +. analyze_s in
    let st = pre.Gmf_precheck.Precheck.stats in
    let buf = Buffer.create 1024 in
    Printf.bprintf buf
      "{\n\
      \  \"benchmark\": \"scale\",\n\
      \  \"family\": \"%s\",\n\
      \  \"switches\": %d,\n\
      \  \"links\": %d,\n\
      \  \"flows\": %d,\n\
      \  \"igraph\": {\"edges\": %d, \"components\": %d, \"largest\": %d,\n\
      \             \"singletons\": %d, \"density\": %.4f},\n\
      \  \"decided\": %d,\n\
      \  \"components_run\": %d,\n\
      \  \"schedulable\": %b,\n\
      \  \"gen\": {\"seconds\": %.3f},\n\
      \  \"lint\": {\"seconds\": %.3f},\n\
      \  \"analyze\": {\"seconds\": %.3f},\n\
      \  \"total\": {\"seconds\": %.3f, \"flows_per_sec\": %.1f}\n\
       }\n"
      (Gmf_topogen.Gen_spec.family_to_string spec.Gmf_topogen.Gen_spec.family)
      result.Gmf_topogen.Topogen.built.Gmf_topogen.Builders.switch_count
      result.Gmf_topogen.Topogen.built.Gmf_topogen.Builders.link_count
      placed st.Gmf_precheck.Igraph.edges st.Gmf_precheck.Igraph.components
      st.Gmf_precheck.Igraph.largest st.Gmf_precheck.Igraph.singletons
      st.Gmf_precheck.Igraph.density
      (Gmf_precheck.Precheck.decided pre)
      stats.Analysis.Sharded.components_run
      (Analysis.Holistic.is_schedulable report)
      gen_s lint_s analyze_s total_s
      (float_of_int placed /. total_s);
    Buffer.contents buf
end

(* ------------------------------------------------------------------ *)
(* gmfnetd round-trip (Gmf_daemon)                                    *)
(* ------------------------------------------------------------------ *)

(* The daemon tax: one churn trace replayed in-process (Replay.run) and
   through a live gmfnetd — fork, Unix socket, supervised worker
   process, one fsync'd journal append per committed event.  The gated
   leaves are the two events_per_sec figures; transcript equality with
   the in-process run is recorded as an informational 0/1 leaf. *)
module Daemon_bench = struct
  module Replay = Gmf_admctl.Replay

  let nhosts = 6
  let nflows = 10
  let churn = 20

  let trace_text =
    let buf = Buffer.create 2048 in
    for h = 0 to nhosts - 1 do
      Printf.bprintf buf "node h%d endhost\n" h
    done;
    Buffer.add_string buf "node sw switch\n";
    for h = 0 to nhosts - 1 do
      Printf.bprintf buf "duplex h%d sw rate=100M prop=2us\n" h
    done;
    Printf.bprintf buf "switch sw ports=%d cpus=1 croute=2.7us csend=1us\n"
      nhosts;
    let admit id =
      let src = id mod nhosts in
      let dst = (src + 1 + (id mod (nhosts - 1))) mod nhosts in
      let dst = if dst = src then (src + 1) mod nhosts else dst in
      Printf.sprintf
        "admit flow v%d from=h%d to=h%d route=h%d,sw,h%d prio=%d encap=udp\n\
        \  frame period=20ms deadline=150ms payload=160B\nend\n"
        id src dst src dst (id mod 8)
    in
    for id = 0 to nflows - 1 do
      Buffer.add_string buf (admit id)
    done;
    let next = ref nflows and oldest = ref 0 in
    for i = 1 to churn do
      if i mod 2 = 1 then begin
        Printf.bprintf buf "remove v%d\n" !oldest;
        incr oldest
      end
      else begin
        Buffer.add_string buf (admit !next);
        incr next
      end
    done;
    Buffer.contents buf

  let events = nflows + churn

  let with_daemon f =
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "gmfnetd-bench-%d" (Unix.getpid ()))
    in
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let socket = Filename.concat dir "gmfnetd.sock" in
    let journal_dir = Filename.concat dir "journal" in
    match Unix.fork () with
    | 0 ->
        (try
           Gmf_daemon.Server.run
             {
               Gmf_daemon.Server.default_config with
               socket_path = socket;
               journal_dir;
             }
         with _ -> ());
        Unix._exit 0
    | pid ->
        Fun.protect
          ~finally:(fun () ->
            (try Unix.kill pid Sys.sigterm with _ -> ());
            ignore (Unix.waitpid [] pid))
          (fun () ->
            let rec wait n =
              if Sys.file_exists socket then ()
              else if n <= 0 then failwith "gmfnetd did not come up"
              else begin
                Unix.sleepf 0.02;
                wait (n - 1)
              end
            in
            wait 250;
            f socket)

  let json_report () =
    let time f =
      let t0 = Unix.gettimeofday () in
      let r = f () in
      (r, Unix.gettimeofday () -. t0)
    in
    let trace =
      match Scenario_io.Admtrace.of_string trace_text with
      | Ok t -> t
      | Error e ->
          failwith
            (Format.asprintf "daemon bench trace: %a" Scenario_io.Parse.pp_error
               e)
    in
    let inproc, inproc_s = time (fun () -> Replay.run trace) in
    let inproc_text =
      Replay.transcript inproc.Replay.outcomes
      ^ "\nsummary:\n"
      ^ Format.asprintf "%a" Replay.pp_summary
          (Gmf_admctl.Session.summary inproc.Replay.session)
    in
    let daemon_r, daemon_s =
      with_daemon (fun socket ->
          time (fun () ->
              match
                Gmf_daemon.Client.run_trace ~socket ~session:"bench" trace_text
              with
              | Ok r -> r
              | Error msg -> failwith ("daemon bench: " ^ msg)))
    in
    let rate n s = if s <= 0. then 0. else float_of_int n /. s in
    let buf = Buffer.create 512 in
    Printf.bprintf buf
      "{\n\
      \  \"benchmark\": \"daemon\",\n\
      \  \"events\": %d,\n\
      \  \"inprocess\": {\"seconds\": %.6f, \"events_per_sec\": %.1f},\n\
      \  \"daemon\": {\"seconds\": %.6f, \"events_per_sec\": %.1f},\n\
      \  \"transcript_match\": %d,\n\
      \  \"rejected\": %d\n\
       }\n"
      events inproc_s (rate events inproc_s) daemon_s (rate events daemon_s)
      (if daemon_r.Gmf_daemon.Client.output = inproc_text then 1 else 0)
      (List.length daemon_r.Gmf_daemon.Client.rejected);
    Buffer.contents buf
end

(* ------------------------------------------------------------------ *)
(* Baseline regression check                                          *)
(* ------------------------------------------------------------------ *)

(* Diff a freshly-written BENCH_*.json report against a committed
   baseline.  Wall-time leaves (path contains "seconds") regress when the
   current value exceeds baseline * (1 + max_regress/100); throughput
   leaves ("events_per_sec", "speedup") regress when the current value
   falls below baseline / (1 + max_regress/100).  Every other numeric
   leaf (event counts, rounds, memo hits) is informational — those are
   deterministic, so a drift shows up in the table without failing the
   run.  The generous default tolerates the noise of shared CI runners;
   what the gate actually catches is an accidental O(n)->O(n^2) slip. *)
module Baseline = struct
  let contains ~needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    nl = 0 || go 0

  let kind path =
    if contains ~needle:"seconds" path then `Lower_is_better
    else if contains ~needle:"per_sec" path || contains ~needle:"speedup" path
    then `Higher_is_better
    else `Informational

  let leaves_of_file path =
    match In_channel.with_open_text path In_channel.input_all with
    | exception Sys_error msg -> Error msg
    | text -> (
        match Json.of_string text with
        | Error e -> Error (Printf.sprintf "%s: %s" path e)
        | Ok v -> Ok (Json.number_leaves v))

  (* 0 = within tolerance, 1 = regression, 2 = unreadable input. *)
  let check ~current ~baseline ~max_regress =
    match (leaves_of_file baseline, leaves_of_file current) with
    | Error msg, _ | _, Error msg ->
        Printf.eprintf "bench: baseline check: %s\n" msg;
        2
    | Ok base_leaves, Ok cur_leaves ->
        let slack = 1. +. (max_regress /. 100.) in
        let table =
          Tablefmt.create
            ~columns:
              [
                ("metric", Tablefmt.Left); ("baseline", Tablefmt.Right);
                ("current", Tablefmt.Right); ("delta", Tablefmt.Right);
                ("verdict", Tablefmt.Left);
              ]
        in
        let regressions = ref 0 in
        List.iter
          (fun (path, base) ->
            let kind = kind path in
            match List.assoc_opt path cur_leaves with
            | None ->
                if kind <> `Informational then incr regressions;
                Tablefmt.add_row table
                  [ path; Printf.sprintf "%g" base; "-"; "-"; "MISSING" ]
            | Some cur ->
                let delta =
                  if base = 0. then "-"
                  else Printf.sprintf "%+.1f%%" ((cur -. base) /. base *. 100.)
                in
                let verdict =
                  match kind with
                  | `Informational -> ""
                  | `Lower_is_better ->
                      if cur > base *. slack then "REGRESSED" else "ok"
                  | `Higher_is_better ->
                      if cur < base /. slack then "REGRESSED" else "ok"
                in
                if verdict = "REGRESSED" then incr regressions;
                Tablefmt.add_row table
                  [
                    path; Printf.sprintf "%g" base; Printf.sprintf "%g" cur;
                    delta; verdict;
                  ])
          base_leaves;
        Printf.printf "\nbaseline check against %s (max regress %.0f%%):\n"
          baseline max_regress;
        Tablefmt.print table;
        if !regressions > 0 then begin
          Printf.printf "%d metric(s) regressed\n" !regressions;
          1
        end
        else begin
          print_endline "no regressions";
          0
        end
end

(* ------------------------------------------------------------------ *)
(* Driver                                                             *)
(* ------------------------------------------------------------------ *)

let tests =
  [
    bench_e1; bench_e2; bench_e3; bench_e4; bench_e5; bench_e6;
    bench_e7_flows; bench_e7_chain; bench_e8_faithful; bench_e8_repaired;
    bench_e9; bench_e10; bench_mx; bench_fragment; bench_heap; bench_engine;
    bench_stride; bench_sim_100ms; bench_pathfind; bench_backlog; bench_dbf;
    bench_contract; bench_scenario_io; bench_priority_assign; bench_rerouting;
    bench_e17; bench_e18; Admctl_churn.bench; Survive_bench.bench;
  ]

let benchmark () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  let grouped = Test.make_grouped ~name:"gmfnet" tests in
  let raw = Benchmark.all cfg instances grouped in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  Analyze.merge ols instances results

(* [bench <report> [--baseline FILE] [--max-regress PCT]]: write the
   BENCH_*.json report, then optionally diff it against a committed
   baseline; exit 1 on a regression, 2 on an unreadable file. *)
let flag_value name =
  let rec go i =
    if i + 1 >= Array.length Sys.argv then None
    else if Sys.argv.(i) = name then Some Sys.argv.(i + 1)
    else go (i + 1)
  in
  go 2

let run_report json_report current =
  let report = json_report () in
  Out_channel.with_open_text current (fun oc ->
      Out_channel.output_string oc report);
  print_string report;
  Printf.printf "wrote %s\n" current;
  match flag_value "--baseline" with
  | None -> exit 0
  | Some baseline ->
      let max_regress =
        match flag_value "--max-regress" with
        | None -> 100.
        | Some s -> (
            match float_of_string_opt s with
            | Some v when v >= 0. -> v
            | _ ->
                Printf.eprintf "bench: bad --max-regress %S\n" s;
                exit 2)
      in
      exit (Baseline.check ~current ~baseline ~max_regress)

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "admctl" then
    run_report Admctl_churn.json_report "BENCH_admctl.json";
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "survive" then
    run_report Survive_bench.json_report "BENCH_survive.json";
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "exec" then
    run_report Exec_bench.json_report "BENCH_exec.json";
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "precheck" then
    run_report Precheck_bench.json_report "BENCH_precheck.json";
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "scale" then
    run_report Scale_bench.json_report "BENCH_scale.json";
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "daemon" then
    run_report Daemon_bench.json_report "BENCH_daemon.json";
  let results = benchmark () in
  let table =
    Tablefmt.create
      ~columns:
        [ ("benchmark", Tablefmt.Left); ("time/run", Tablefmt.Right);
          ("r^2", Tablefmt.Right) ]
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun _measure per_test ->
      Hashtbl.iter
        (fun name ols ->
          let estimate =
            match Analyze.OLS.estimates ols with
            | Some (e :: _) -> Timeunit.to_string (int_of_float e)
            | _ -> "n/a"
          in
          let r2 =
            match Analyze.OLS.r_square ols with
            | Some r -> Printf.sprintf "%.4f" r
            | None -> "n/a"
          in
          rows := (name, estimate, r2) :: !rows)
        per_test)
    results;
  List.iter
    (fun (name, estimate, r2) -> Tablefmt.add_row table [ name; estimate; r2 ])
    (List.sort compare !rows);
  Tablefmt.print table;
  (* One instrumented pass of the e2 workload after timing: a convergence
     telemetry snapshot per bench run (the timed loops above run with
     observability off, so the numbers are unperturbed). *)
  let reg = Gmf_obs.Metrics.default in
  Gmf_obs.Metrics.set_enabled reg true;
  Gmf_obs.Metrics.reset reg;
  ignore (Analysis.Holistic.analyze fig1);
  ignore
    (Sim.Netsim.run
       ~config:{ Sim.Sim_config.default with duration = Timeunit.ms 100 }
       fig1);
  Gmf_obs.Metrics.set_enabled reg false;
  print_newline ();
  print_endline "telemetry of one instrumented holistic + 100ms sim pass:";
  print_newline ();
  print_string (Gmf_obs.Export.metrics_tables (Gmf_obs.Metrics.snapshot reg))
