(* Tests of the analysis plumbing: fixed points, stages, jitter state. *)
open Gmf_util
open Analysis

let test_fixpoint_converges () =
  (* f(t) = 100 for all t: converges in one step. *)
  match Fixpoint.iterate ~f:(fun _ -> 100) ~seed:0 ~max_iters:10 ~horizon:1_000 with
  | Fixpoint.Converged { value; iters } ->
      Alcotest.(check int) "value" 100 value;
      (* Two evaluations: seed -> 100, then 100 -> 100 confirms. *)
      Alcotest.(check int) "iters" 2 iters
  | Fixpoint.Diverged m -> Alcotest.fail m

let test_fixpoint_identity_seed () =
  (* The seed itself can be the fixed point. *)
  match Fixpoint.iterate ~f:(fun t -> t) ~seed:7 ~max_iters:10 ~horizon:100 with
  | Fixpoint.Converged { value; iters } ->
      Alcotest.(check int) "seed is fixpoint" 7 value;
      Alcotest.(check int) "one evaluation" 1 iters
  | Fixpoint.Diverged m -> Alcotest.fail m

let test_fixpoint_horizon () =
  match
    Fixpoint.iterate ~f:(fun t -> t + 10) ~seed:0 ~max_iters:1_000 ~horizon:50
  with
  | Fixpoint.Converged _ -> Alcotest.fail "should diverge"
  | Fixpoint.Diverged msg ->
      Alcotest.(check bool) "mentions horizon" true
        (String.length msg > 0
        && String.sub msg 0 8 = "exceeded")

let test_fixpoint_iteration_cap () =
  (* Oscillation-free but slow growth hits the iteration cap. *)
  match
    Fixpoint.iterate ~f:(fun t -> t + 1) ~seed:0 ~max_iters:5
      ~horizon:1_000_000
  with
  | Fixpoint.Converged _ -> Alcotest.fail "should hit cap"
  | Fixpoint.Diverged msg ->
      Alcotest.(check bool) "mentions iterations" true
        (String.length msg > 0 && msg.[0] = 'n')

(* A step that overflows must read as crossing the horizon, whether it
   wraps in the step function itself or in a saturating demand bound. *)
let test_fixpoint_overflow () =
  let diverges_at_horizon name ~f ~seed ~horizon =
    match Fixpoint.iterate ~f ~seed ~max_iters:1_000 ~horizon with
    | Fixpoint.Converged { value; _ } ->
        Alcotest.failf "%s: converged at %d" name value
    | Fixpoint.Diverged msg ->
        Alcotest.(check bool) (name ^ ": horizon") true
          (String.sub msg 0 8 = "exceeded")
  in
  diverges_at_horizon "wrapping step"
    ~f:(fun t -> t + (max_int / 2) + 1)
    ~seed:0 ~horizon:max_int;
  let d = Gmf.Demand.make ~costs:[| max_int / 4 |] ~periods:[| 1 |] in
  diverges_at_horizon "demand step"
    ~f:(fun t -> Gmf.Demand.bound d ~capped:false (Timeunit.sat_add t 1))
    ~seed:1 ~horizon:(max_int - 1)

let test_fixpoint_validation () =
  Alcotest.check_raises "bad cap"
    (Invalid_argument "Fixpoint.iterate: non-positive cap") (fun () ->
      ignore (Fixpoint.iterate ~f:Fun.id ~seed:0 ~max_iters:0 ~horizon:1));
  Alcotest.check_raises "bad seed"
    (Invalid_argument "Fixpoint.iterate: negative seed") (fun () ->
      ignore (Fixpoint.iterate ~f:Fun.id ~seed:(-1) ~max_iters:1 ~horizon:1))

let test_stage_list () =
  let scenario = Workload.Scenarios.fig1_videoconf () in
  let flow = Traffic.Scenario.flow scenario Workload.Scenarios.video_flow_id in
  let stages = Stage.stages_of_route flow.Traffic.Flow.route in
  Alcotest.(check int) "5 stages on 0->4->6->3" 5 (List.length stages);
  match stages with
  | [ Stage.First_link (0, 4); Stage.Ingress 4; Stage.Egress (4, 6);
      Stage.Ingress 6; Stage.Egress (6, 3) ] ->
      ()
  | _ -> Alcotest.fail "unexpected stage sequence"

let test_stage_direct_route () =
  let topo = Network.Topology.create () in
  let a = Network.Topology.add_node topo ~name:"a" ~kind:Network.Node.Endhost in
  let b = Network.Topology.add_node topo ~name:"b" ~kind:Network.Node.Endhost in
  Network.Topology.add_duplex_link topo ~a ~b ~rate_bps:10_000_000 ~prop:0;
  let route = Network.Route.make topo [ a; b ] in
  match Stage.stages_of_route route with
  | [ Stage.First_link (x, y) ] ->
      Alcotest.(check (pair int int)) "only first link" (a, b) (x, y)
  | _ -> Alcotest.fail "direct route must have exactly the first-link stage"

(* The jitters live in the context's stage nodes: one slot per frame,
   [extra] the per-frame maximum kept up to date on every write, and a
   write count that moves only when a value changes. *)
let test_jitter_state () =
  let scenario = Workload.Scenarios.fig1_videoconf () in
  let ctx = Ctx.create scenario in
  let flow = Traffic.Scenario.flow scenario Workload.Scenarios.video_flow_id in
  let other =
    List.find
      (fun (f : Traffic.Flow.t) ->
        f.Traffic.Flow.id <> flow.Traffic.Flow.id
        && List.mem (Stage.Ingress 4)
             (Stage.stages_of_route f.Traffic.Flow.route))
      (Traffic.Scenario.flows scenario)
  in
  let stage = Stage.Ingress 4 in
  Alcotest.(check int) "unset reads 0" 0
    (Ctx.get_jitter ctx flow ~stage ~frame:0);
  let writes = Ctx.writes ctx in
  Ctx.set_jitter ctx flow ~stage ~frame:0 500;
  Ctx.set_jitter ctx flow ~stage ~frame:2 900;
  Alcotest.(check int) "get" 500 (Ctx.get_jitter ctx flow ~stage ~frame:0);
  Alcotest.(check int) "extra = max over frames" 900
    (Ctx.extra ctx flow ~stage);
  Alcotest.(check int) "other flow unaffected" 0 (Ctx.extra ctx other ~stage);
  Alcotest.(check int) "two writes changed a value" (writes + 2)
    (Ctx.writes ctx);
  Ctx.set_jitter ctx flow ~stage ~frame:2 900;
  Alcotest.(check int) "same value is no change" (writes + 2) (Ctx.writes ctx);
  (* Lowering the maximum entry recomputes extra over the frames. *)
  Ctx.set_jitter ctx flow ~stage ~frame:2 100;
  Alcotest.(check int) "extra follows a lowered maximum" 500
    (Ctx.extra ctx flow ~stage);
  Ctx.set_jitter ctx flow ~stage ~frame:0 0;
  Alcotest.(check int) "extra after clearing" 100 (Ctx.extra ctx flow ~stage);
  Alcotest.check_raises "negative jitter"
    (Invalid_argument "Ctx.set_jitter: negative jitter") (fun () ->
      Ctx.set_jitter ctx flow ~stage ~frame:0 (-1))

let test_ctx_initial_jitters () =
  let scenario = Workload.Scenarios.fig1_videoconf () in
  let ctx = Ctx.create scenario in
  let flow = Traffic.Scenario.flow scenario Workload.Scenarios.video_flow_id in
  (* The video flow's source jitter (1 ms) is installed at its first link. *)
  Alcotest.(check int) "source jitter installed" (Timeunit.ms 1)
    (Ctx.get_jitter ctx flow ~frame:0 ~stage:(Stage.First_link (0, 4)));
  Alcotest.(check int) "extra at first link" (Timeunit.ms 1)
    (Ctx.extra ctx flow ~stage:(Stage.First_link (0, 4)));
  Alcotest.(check int) "zero downstream" 0
    (Ctx.extra ctx flow ~stage:(Stage.Ingress 4));
  (* reset restores after mutation *)
  Ctx.set_jitter ctx flow ~frame:0 ~stage:(Stage.Ingress 4) 777;
  Ctx.reset_jitters ctx;
  Alcotest.(check int) "reset clears" 0
    (Ctx.extra ctx flow ~stage:(Stage.Ingress 4))

let test_ctx_mx_nx () =
  let scenario = Workload.Scenarios.fig1_videoconf () in
  let ctx = Ctx.create scenario in
  let flow = Traffic.Scenario.flow scenario Workload.Scenarios.video_flow_id in
  let p = Ctx.params ctx flow ~src:0 ~dst:4 in
  let csum = Traffic.Link_params.csum p in
  let c_max = Array.fold_left max 0 p.Traffic.Link_params.c in
  (* Repaired (uncapped, request-bound): a closed one-cycle window can hold
     n+1 releases, so MX(TSUM) = CSUM + C_max and MX(0) = C_max. *)
  Alcotest.(check int) "MX(TSUM) = CSUM + C_max (repaired)" (csum + c_max)
    (Ctx.mx ctx flow ~src:0 ~dst:4 ~dt:(Timeunit.ms 270));
  Alcotest.(check int) "MX(0) = C_max (repaired)" c_max
    (Ctx.mx ctx flow ~src:0 ~dst:4 ~dt:0);
  (* NX is uncapped in both variants (eqs 12-13). *)
  Alcotest.(check int) "NX(TSUM) = NSUM + biggest frame" (94 + 30)
    (Ctx.nx ctx flow ~src:0 ~dst:4 ~dt:(Timeunit.ms 270));
  Alcotest.(check int) "NX(0) = biggest single frame" 30
    (Ctx.nx ctx flow ~src:0 ~dst:4 ~dt:0);
  (* Faithful (paper-literal MXS clamp, eq 10): MX(TSUM) = CSUM, MX(0) = 0. *)
  let ctx_f = Ctx.create ~config:Config.faithful scenario in
  Alcotest.(check int) "MX(TSUM) = CSUM (faithful)" csum
    (Ctx.mx ctx_f flow ~src:0 ~dst:4 ~dt:(Timeunit.ms 270));
  Alcotest.(check int) "MX(0) = 0 (faithful)" 0
    (Ctx.mx ctx_f flow ~src:0 ~dst:4 ~dt:0)

let test_config () =
  Alcotest.(check string) "variant names" "faithful"
    (Config.variant_to_string Config.Faithful);
  Alcotest.(check string) "variant names" "repaired"
    (Config.variant_to_string Config.Repaired);
  Alcotest.(check bool) "default is repaired" true
    (Config.default.Config.variant = Config.Repaired);
  Alcotest.(check bool) "faithful preset" true
    (Config.faithful.Config.variant = Config.Faithful)

let tests =
  [
    Alcotest.test_case "fixpoint converges" `Quick test_fixpoint_converges;
    Alcotest.test_case "fixpoint seed" `Quick test_fixpoint_identity_seed;
    Alcotest.test_case "fixpoint horizon" `Quick test_fixpoint_horizon;
    Alcotest.test_case "fixpoint cap" `Quick test_fixpoint_iteration_cap;
    Alcotest.test_case "fixpoint validation" `Quick test_fixpoint_validation;
    Alcotest.test_case "fixpoint overflow" `Quick test_fixpoint_overflow;
    Alcotest.test_case "stages of route" `Quick test_stage_list;
    Alcotest.test_case "stages of direct route" `Quick test_stage_direct_route;
    Alcotest.test_case "jitter state" `Quick test_jitter_state;
    Alcotest.test_case "ctx initial jitters" `Quick test_ctx_initial_jitters;
    Alcotest.test_case "ctx MX/NX" `Quick test_ctx_mx_nx;
    Alcotest.test_case "config" `Quick test_config;
  ]
