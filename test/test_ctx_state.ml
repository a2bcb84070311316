(* The jitters a context's stage nodes own: the source jitters every
   reset and every seed starts from, seeding from a partial result set,
   and the per-frame slots, extras, write count and per-flow deltas
   against an entry model. *)

module Ctx = Analysis.Ctx
module Stage = Analysis.Stage

let scenario () = Workload.Scenarios.fig1_videoconf ()

let stages (flow : Traffic.Flow.t) =
  Stage.stages_of_route flow.Traffic.Flow.route

(* Every (flow, frame, stage) of the scenario with its source-jitter
   value: the flow's GJ at its first link, 0 downstream. *)
let bottom scenario =
  List.concat_map
    (fun (f : Traffic.Flow.t) ->
      List.concat_map
        (fun stage ->
          List.init (Traffic.Flow.n f) (fun k ->
              let v =
                match stage with
                | Stage.First_link _ ->
                    (Gmf.Spec.jitters f.Traffic.Flow.spec).(k)
                | Stage.Ingress _ | Stage.Egress _ -> 0
              in
              (f, k, stage, v)))
        (stages f))
    (Traffic.Scenario.flows scenario)

let check_entries what ctx entries =
  List.iter
    (fun (f, k, stage, v) ->
      Alcotest.(check int)
        (Format.asprintf "%s: %s frame %d at %a" what f.Traffic.Flow.name k
           Stage.pp stage)
        v
        (Ctx.get_jitter ctx f ~frame:k ~stage))
    entries

(* Source jitters come back on a reset and on a seed; [Pipeline.seed]
   with no results is a reset. *)
let test_restore_reinstalls_source_jitters () =
  let sc = scenario () in
  let ctx = Ctx.create sc in
  let expect = bottom sc in
  Alcotest.(check bool) "fig1 has a jittered frame" true
    (List.exists (fun (_, _, _, j) -> j > 0) expect);
  check_entries "create" ctx expect;
  let scribble () =
    List.iter
      (fun (f, k, stage, v) ->
        Ctx.set_jitter ctx f ~frame:k ~stage (v + 7_000))
      expect
  in
  scribble ();
  Ctx.reset_jitters ctx;
  check_entries "reset" ctx expect;
  scribble ();
  Analysis.Pipeline.seed ctx [];
  check_entries "empty seed" ctx expect

(* A seed from the results of a subset of the flows (an admission
   warm-starting from its committed report): the seeded flows take the
   jitters their results fix, the unseen one its source jitters. *)
let test_restore_completes_unseen_flows () =
  let sc = scenario () in
  let ctx = Ctx.create sc in
  let report = Analysis.Holistic.run ctx in
  let ran =
    List.map
      (fun (f, k, stage, _) ->
        (f, k, stage, Ctx.get_jitter ctx f ~frame:k ~stage))
      (bottom sc)
  in
  let newcomer = List.hd (Traffic.Scenario.flows sc) in
  let is_new (f : Traffic.Flow.t) =
    f.Traffic.Flow.id = newcomer.Traffic.Flow.id
  in
  let fresh = Ctx.create sc in
  Analysis.Pipeline.seed fresh
    (List.filter
       (fun (r : Analysis.Result_types.flow_result) ->
         not (is_new r.Analysis.Result_types.flow))
       report.Analysis.Holistic.results);
  check_entries "veterans" fresh
    (List.filter (fun (f, _, _, _) -> not (is_new f)) ran);
  check_entries "newcomer" fresh
    (List.filter (fun (f, _, _, _) -> is_new f) (bottom sc));
  Alcotest.(check bool) "the newcomer moved in the run" true
    (List.exists
       (fun (f, _, stage, v) ->
         is_new f && v > 0
         && match stage with Stage.First_link _ -> false | _ -> true)
       ran)

(* ------------------------------------------------------------------ *)
(* Node jitters against an entry model                                *)
(* ------------------------------------------------------------------ *)

(* Flow, stage and frame are indices reduced modulo what the scenario
   offers, so every generated write lands on a real node slot. *)
type op =
  | Set of int * int * int * int  (* flow, stage, frame, value *)
  | Mark  (* take the before-copy the deltas are measured against *)

let pp_op = function
  | Set (f, s, k, v) -> Printf.sprintf "set f%d s%d k%d=%d" f s k v
  | Mark -> "mark"

let gen_op =
  QCheck.Gen.(
    frequency
      [
        ( 8,
          let* f = int_range 0 5 and* s = int_range 0 4
          and* k = int_range 0 9
          and* v = frequency [ (2, return 0); (3, int_range 1 50) ] in
          return (Set (f, s, k, v)) );
        (1, return Mark);
      ])

let arb_script =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    QCheck.Gen.(list_size (int_range 1 40) gen_op)

let prop_matches_model =
  QCheck.Test.make ~name:"node jitters match an entry model" ~count:300
    arb_script (fun ops ->
      let sc = scenario () in
      let flows = Array.of_list (Traffic.Scenario.flows sc) in
      let ctx = Ctx.create sc in
      let key (f : Traffic.Flow.t) k stage = (f.Traffic.Flow.id, k, stage) in
      let model = Hashtbl.create 64 in
      List.iter
        (fun (f, k, stage, v) -> Hashtbl.replace model (key f k stage) v)
        (bottom sc);
      let mark = ref (Hashtbl.copy model, Ctx.copy_jitters ctx) in
      let changed = ref 0 and writes0 = Ctx.writes ctx in
      List.iter
        (function
          | Set (fi, si, ki, v) ->
              let f = flows.(fi mod Array.length flows) in
              let st = stages f in
              let stage = List.nth st (si mod List.length st) in
              let k = ki mod Traffic.Flow.n f in
              if Hashtbl.find model (key f k stage) <> v then incr changed;
              Hashtbl.replace model (key f k stage) v;
              Ctx.set_jitter ctx f ~frame:k ~stage v
          | Mark -> mark := (Hashtbl.copy model, Ctx.copy_jitters ctx))
        ops;
      let before, since = !mark in
      let entries_agree =
        Hashtbl.fold
          (fun (id, k, stage) v ok ->
            ok
            && Ctx.get_jitter ctx (Traffic.Scenario.flow sc id) ~frame:k ~stage
               = v)
          model true
      in
      let extras_agree =
        Array.for_all
          (fun (f : Traffic.Flow.t) ->
            List.for_all
              (fun stage ->
                Ctx.extra ctx f ~stage
                = List.fold_left max 0
                    (List.init (Traffic.Flow.n f) (fun k ->
                         Hashtbl.find model (key f k stage))))
              (stages f))
          flows
      in
      let model_deltas =
        Array.to_list flows
        |> List.filter_map (fun (f : Traffic.Flow.t) ->
               let pairs =
                 List.concat_map
                   (fun stage ->
                     List.init (Traffic.Flow.n f) (fun k ->
                         ( Hashtbl.find before (key f k stage),
                           Hashtbl.find model (key f k stage) )))
                   (stages f)
               in
               if List.for_all (fun (a, b) -> a = 0 && b = 0) pairs then None
               else
                 Some
                   ( f.Traffic.Flow.id,
                     List.fold_left
                       (fun d (a, b) -> max d (abs (a - b)))
                       0 pairs ))
        |> List.sort compare
      in
      entries_agree && extras_agree
      && Ctx.writes ctx - writes0 = !changed
      && Ctx.flow_deltas ctx ~since = model_deltas)

(* ------------------------------------------------------------------ *)
(* Node lookup contract                                               *)
(* ------------------------------------------------------------------ *)

let parse_fig1 () =
  let path = Filename.concat (Example_corpus.dir ()) "fig1.gmfnet" in
  match Scenario_io.Parse.scenario_of_file path with
  | Ok s -> s
  | Error e -> Alcotest.failf "fig1.gmfnet: %a" Scenario_io.Parse.pp_error e

(* A flow's nodes come in route order; a stage off the route has none. *)
let test_node_off_route () =
  let sc = scenario () in
  let ctx = Ctx.create sc in
  List.iter
    (fun (f : Traffic.Flow.t) ->
      let nodes = Ctx.nodes ctx f in
      Alcotest.(check int)
        (f.Traffic.Flow.name ^ ": one node per stage")
        (List.length (stages f)) (Array.length nodes);
      List.iteri
        (fun k stage ->
          Alcotest.(check bool)
            (Format.asprintf "%s: node %d is %a" f.Traffic.Flow.name k
               Stage.pp stage)
            true
            (Ctx.node ctx f ~stage == nodes.(k)))
        (stages f);
      let off =
        [
          Stage.Ingress 99;
          Stage.Egress (99, 0);
          Stage.First_link (99, 98);
        ]
      in
      List.iter
        (fun stage ->
          match Ctx.node ctx f ~stage with
          | _ ->
              Alcotest.failf "%s has no node at %a" f.Traffic.Flow.name
                Stage.pp stage
          | exception Invalid_argument _ -> ())
        off)
    (Traffic.Scenario.flows sc)

(* A record of the same id from another scenario (the file parsed again:
   equal records, none of them physically the context's) reaches the
   context's node of that id, for lookups, writes and whole-flow runs. *)
let test_same_id_record () =
  let sc = parse_fig1 () and other = parse_fig1 () in
  let ctx = Ctx.create sc in
  List.iter2
    (fun (own : Traffic.Flow.t) (foreign : Traffic.Flow.t) ->
      Alcotest.(check bool) "another record" false (own == foreign);
      List.iter
        (fun stage ->
          let node = Ctx.node ctx foreign ~stage in
          Alcotest.(check bool) "the context's node" true
            (Ctx.node ctx own ~stage == node);
          Alcotest.(check bool) "the context's record" true
            (Ctx.node_flow node == own);
          Ctx.set_jitter ctx foreign ~frame:0 ~stage 4_321;
          Alcotest.(check int) "written to the context's node" 4_321
            (Ctx.get_jitter ctx own ~frame:0 ~stage))
        (stages own))
    (Traffic.Scenario.flows sc)
    (Traffic.Scenario.flows other);
  let analyze flow =
    Ctx.reset_jitters ctx;
    match Analysis.Pipeline.analyze_flow ctx ~flow with
    | Ok res ->
        Array.to_list res.Analysis.Result_types.frames
        |> List.map
             (Format.asprintf "%a" Analysis.Result_types.pp_frame_result)
        |> String.concat ""
    | Error f -> Format.asprintf "%a" Analysis.Result_types.pp_failure f
  in
  List.iter2
    (fun own foreign ->
      Alcotest.(check string) "same analysis" (analyze own) (analyze foreign))
    (Traffic.Scenario.flows sc)
    (Traffic.Scenario.flows other)

(* A context reset after a run, its stage descriptions and reads kept,
   runs as a fresh one does: same jitters after the reset, same report,
   same jitters after the run. *)
let test_reset_then_run () =
  let spec =
    {
      Gmf_topogen.Gen_spec.default with
      Gmf_topogen.Gen_spec.family =
        Gmf_topogen.Gen_spec.Ring_of_rings { rings = 4; ring_size = 4 };
      flows = 40;
      seed = 7;
    }
  in
  let generated =
    (Gmf_topogen.Topogen.generate spec).Gmf_topogen.Topogen.scenario
  in
  List.iter
    (fun (what, config, sc) ->
      let read ctx =
        List.map
          (fun (f, k, stage, _) -> Ctx.get_jitter ctx f ~frame:k ~stage)
          (bottom sc)
      in
      let used = Ctx.create ~config sc in
      ignore (Analysis.Holistic.run used);
      Ctx.reset_jitters used;
      let fresh = Ctx.create ~config sc in
      Alcotest.(check (list int)) (what ^ ": jitters after the reset")
        (read fresh) (read used);
      let expected = Analysis.Holistic.run fresh in
      let again = Analysis.Holistic.run used in
      Alcotest.(check string) (what ^ ": stage csv")
        (Analysis.Report_io.stage_csv expected)
        (Analysis.Report_io.stage_csv again);
      Alcotest.(check int) (what ^ ": rounds") expected.Analysis.Holistic.rounds
        again.Analysis.Holistic.rounds;
      Alcotest.(check bool) (what ^ ": verdict") true
        (expected.Analysis.Holistic.verdict = again.Analysis.Holistic.verdict);
      Alcotest.(check (list int)) (what ^ ": jitters after the run")
        (read fresh) (read used))
    [
      ("fig1", Analysis.Config.default, scenario ());
      ("fig1 tight", Analysis.Config.tight, scenario ());
      ("rings", Analysis.Config.default, generated);
      ("rings faithful", Analysis.Config.faithful, generated);
    ]

let tests =
  [
    Alcotest.test_case "restore re-installs source jitters" `Quick
      test_restore_reinstalls_source_jitters;
    Alcotest.test_case "restore completes unseen flows" `Quick
      test_restore_completes_unseen_flows;
    QCheck_alcotest.to_alcotest prop_matches_model;
    Alcotest.test_case "node off the route raises" `Quick test_node_off_route;
    Alcotest.test_case "same-id record of another scenario" `Quick
      test_same_id_record;
    Alcotest.test_case "reset then run == fresh context" `Quick
      test_reset_then_run;
  ]
