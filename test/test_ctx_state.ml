(* Analysis.Ctx snapshot/restore and Jitter_state.filter_flows — the
   state plumbing a warm-started admission session leans on.  A snapshot
   must be an isolated deep copy, restore must re-install source jitters
   on top, and filter_flows must behave at both edges (keep nothing /
   keep everything). *)

module Ctx = Analysis.Ctx
module Jitter_state = Analysis.Jitter_state
module Stage = Analysis.Stage

let scenario () = Workload.Scenarios.fig1_videoconf ()

let stage_of (flow : Traffic.Flow.t) =
  List.hd (Stage.stages_of_route flow.Traffic.Flow.route)

(* ------------------------------------------------------------------ *)
(* Ctx.snapshot / Ctx.restore                                         *)
(* ------------------------------------------------------------------ *)

let test_snapshot_is_isolated () =
  let ctx = Ctx.create (scenario ()) in
  let flow = List.hd (Traffic.Scenario.flows (Ctx.scenario ctx)) in
  let stage = Stage.Ingress 4 in
  Ctx.set_jitter ctx flow ~frame:0 ~stage 700;
  let snap = Ctx.snapshot ctx in
  Alcotest.(check int) "snapshot sees the value" 700
    (Jitter_state.get snap ~flow:flow.Traffic.Flow.id ~stage ~frame:0);
  (* Later context mutations must not leak into the snapshot... *)
  Ctx.set_jitter ctx flow ~frame:0 ~stage 1_300;
  Alcotest.(check int) "snapshot unchanged by ctx writes" 700
    (Jitter_state.get snap ~flow:flow.Traffic.Flow.id ~stage ~frame:0);
  (* ...and mutating the snapshot must not leak back. *)
  Jitter_state.set snap ~flow:flow.Traffic.Flow.id ~stage ~frame:0 9_999;
  Alcotest.(check int) "ctx unchanged by snapshot writes" 1_300
    (Ctx.get_jitter ctx flow ~frame:0 ~stage)

let test_snapshot_restore_round_trip () =
  let ctx = Ctx.create (scenario ()) in
  let flows = Traffic.Scenario.flows (Ctx.scenario ctx) in
  let fa = List.nth flows 0 and fb = List.nth flows 1 in
  Ctx.set_jitter ctx fa ~frame:0 ~stage:(Stage.Ingress 4) 111;
  Ctx.set_jitter ctx fb ~frame:1 ~stage:(Stage.Ingress 4) 222;
  let snap = Ctx.snapshot ctx in
  (* Scribble over everything, then restore. *)
  Ctx.set_jitter ctx fa ~frame:0 ~stage:(Stage.Ingress 4) 5_000;
  Ctx.set_jitter ctx fb ~frame:1 ~stage:(Stage.Ingress 4) 6_000;
  Ctx.set_jitter ctx fa ~frame:0 ~stage:(Stage.Ingress 6) 7_000;
  Ctx.restore ctx snap;
  Alcotest.(check int) "fa restored" 111
    (Ctx.get_jitter ctx fa ~frame:0 ~stage:(Stage.Ingress 4));
  Alcotest.(check int) "fb restored" 222
    (Ctx.get_jitter ctx fb ~frame:1 ~stage:(Stage.Ingress 4));
  Alcotest.(check int) "scribble gone" 0
    (Ctx.get_jitter ctx fa ~frame:0 ~stage:(Stage.Ingress 6));
  (* The restore argument is copied, not aliased. *)
  Ctx.set_jitter ctx fa ~frame:0 ~stage:(Stage.Ingress 4) 8_000;
  Alcotest.(check int) "restore argument not aliased" 111
    (Jitter_state.get snap ~flow:fa.Traffic.Flow.id
       ~stage:(Stage.Ingress 4) ~frame:0)

let test_restore_reinstalls_source_jitters () =
  (* fig1's video flow carries a 1 ms source jitter on its first frame;
     restoring from an empty state must still re-install it at the
     first-link stage, exactly as Ctx.create does. *)
  let ctx = Ctx.create (scenario ()) in
  let flows = Traffic.Scenario.flows (Ctx.scenario ctx) in
  let expectations =
    List.concat_map
      (fun (f : Traffic.Flow.t) ->
        let stage = stage_of f in
        List.mapi
          (fun k (fs : Gmf.Frame_spec.t) ->
            (f, k, stage, fs.Gmf.Frame_spec.jitter))
          (Array.to_list (Gmf.Spec.frames f.Traffic.Flow.spec)))
      flows
  in
  Alcotest.(check bool) "fig1 has a jittered frame" true
    (List.exists (fun (_, _, _, j) -> j > 0) expectations);
  Ctx.restore ctx (Jitter_state.create ());
  List.iter
    (fun (f, k, stage, jitter) ->
      Alcotest.(check int)
        (Printf.sprintf "%s frame %d source jitter" f.Traffic.Flow.name k)
        jitter
        (Ctx.get_jitter ctx f ~frame:k ~stage))
    expectations

let test_restore_completes_unseen_flows () =
  (* A state captured on a smaller flow set: the session admits a new
     flow and warm-starts from the old fixpoint.  The unseen flow must
     enter at its source jitters, the old entries must survive. *)
  let ctx = Ctx.create (scenario ()) in
  let flows = Traffic.Scenario.flows (Ctx.scenario ctx) in
  let newcomer = List.hd flows in
  let veteran = List.nth flows 1 in
  Ctx.set_jitter ctx veteran ~frame:0 ~stage:(Stage.Ingress 4) 333;
  let partial =
    Jitter_state.filter_flows (Ctx.snapshot ctx)
      ~keep:(fun id -> id <> newcomer.Traffic.Flow.id)
  in
  Ctx.restore ctx partial;
  Alcotest.(check int) "veteran entry carried over" 333
    (Ctx.get_jitter ctx veteran ~frame:0 ~stage:(Stage.Ingress 4));
  let first_spec = (Gmf.Spec.frames newcomer.Traffic.Flow.spec).(0) in
  Alcotest.(check int) "newcomer starts from its source jitter"
    first_spec.Gmf.Frame_spec.jitter
    (Ctx.get_jitter ctx newcomer ~frame:0 ~stage:(stage_of newcomer))

(* ------------------------------------------------------------------ *)
(* Jitter_state.filter_flows edges                                    *)
(* ------------------------------------------------------------------ *)

let populated () =
  let js = Jitter_state.create () in
  Jitter_state.set js ~flow:0 ~stage:(Stage.Ingress 4) ~frame:0 10;
  Jitter_state.set js ~flow:0 ~stage:(Stage.Egress (4, 6)) ~frame:2 20;
  Jitter_state.set js ~flow:1 ~stage:(Stage.Ingress 4) ~frame:0 30;
  Jitter_state.set js ~flow:2 ~stage:(Stage.Ingress 5) ~frame:1 40;
  js

let test_filter_flows_edges () =
  let js = populated () in
  let none = Jitter_state.filter_flows js ~keep:(fun _ -> false) in
  Alcotest.(check bool) "keep nothing = empty state" true
    (Jitter_state.equal none (Jitter_state.create ()));
  Alcotest.(check int) "empty max_value" 0 (Jitter_state.max_value none);
  let all = Jitter_state.filter_flows js ~keep:(fun _ -> true) in
  Alcotest.(check bool) "keep everything = same state" true
    (Jitter_state.equal all js);
  (* The full copy is fresh, not an alias. *)
  Jitter_state.set all ~flow:0 ~stage:(Stage.Ingress 4) ~frame:0 99;
  Alcotest.(check int) "filter returns a fresh state" 10
    (Jitter_state.get js ~flow:0 ~stage:(Stage.Ingress 4) ~frame:0)

let test_filter_flows_partial () =
  let js = populated () in
  let kept = Jitter_state.filter_flows js ~keep:(fun id -> id <> 0) in
  Alcotest.(check int) "dropped flow reads as unset" 0
    (Jitter_state.get kept ~flow:0 ~stage:(Stage.Ingress 4) ~frame:0);
  Alcotest.(check int) "dropped flow extra is 0" 0
    (Jitter_state.extra kept ~flow:0 ~n_frames:3 ~stage:(Stage.Egress (4, 6)));
  Alcotest.(check int) "kept flow survives" 30
    (Jitter_state.get kept ~flow:1 ~stage:(Stage.Ingress 4) ~frame:0);
  Alcotest.(check int) "other kept flow survives" 40
    (Jitter_state.get kept ~flow:2 ~stage:(Stage.Ingress 5) ~frame:1);
  Alcotest.(check int) "max over the remainder" 40
    (Jitter_state.max_value kept);
  (* Filtering is idempotent on the survivors. *)
  let again = Jitter_state.filter_flows kept ~keep:(fun id -> id <> 0) in
  Alcotest.(check bool) "idempotent" true (Jitter_state.equal kept again)

(* ------------------------------------------------------------------ *)
(* Jitter_state against a reference model                             *)
(* ------------------------------------------------------------------ *)

(* The reference keeps only non-zero entries, keyed by (flow, stage,
   frame): setting an entry to 0 removes it, so a flow whose entries are
   all 0 has no entry at all.  Two states live in slots 0 and 1. *)
type op =
  | Set of int * int * Stage.t * int * int  (* slot, flow, stage, frame, v *)
  | Copy of int  (* slot <- copy of the other slot *)
  | Filter of int * int  (* slot <- its flows other than the given one *)
  | Union of int  (* slot <- union (other slot) slot *)

let model_stages = [| Stage.Ingress 4; Stage.Egress (4, 6); Stage.Ingress 6 |]

let pp_op = function
  | Set (s, f, st, k, v) ->
      Format.asprintf "set s%d f%d %a k%d=%d" s f Stage.pp st k v
  | Copy s -> Printf.sprintf "copy ->s%d" s
  | Filter (s, f) -> Printf.sprintf "filter s%d drop f%d" s f
  | Union s -> Printf.sprintf "union ->s%d" s

let gen_op =
  QCheck.Gen.(
    let slot = int_range 0 1 and flow = int_range 0 2 in
    frequency
      [
        ( 8,
          let* s = slot and* f = flow
          and* st = oneofa model_stages
          and* k = int_range 0 3
          and* v = frequency [ (2, return 0); (3, int_range 1 50) ] in
          return (Set (s, f, st, k, v)) );
        (1, map (fun s -> Copy s) slot);
        (1, map2 (fun s f -> Filter (s, f)) slot flow);
        (1, map (fun s -> Union s) slot);
      ])

let arb_script =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    QCheck.Gen.(list_size (int_range 1 25) gen_op)

let model_get m key = Option.value ~default:0 (List.assoc_opt key m)

let model_set m key v =
  let rest = List.remove_assoc key m in
  if v = 0 then rest else (key, v) :: rest

let model_union a b =
  List.filter (fun (key, _) -> not (List.mem_assoc key b)) a @ b

let model_keys a b = List.sort_uniq compare (List.map fst a @ List.map fst b)

let model_max_delta a b =
  List.fold_left
    (fun acc key -> max acc (abs (model_get a key - model_get b key)))
    0 (model_keys a b)

let model_flow_deltas a b =
  let flows =
    List.sort_uniq compare (List.map (fun (f, _, _) -> f) (model_keys a b))
  in
  List.map
    (fun flow ->
      ( flow,
        List.fold_left
          (fun acc ((f, _, _) as key) ->
            if f = flow then max acc (abs (model_get a key - model_get b key))
            else acc)
          0 (model_keys a b) ))
    flows

let run_script ops =
  let real = [| Jitter_state.create (); Jitter_state.create () |] in
  let model = [| []; [] |] in
  List.iter
    (function
      | Set (s, flow, stage, frame, v) ->
          Jitter_state.set real.(s) ~flow ~stage ~frame v;
          model.(s) <- model_set model.(s) (flow, stage, frame) v
      | Copy s ->
          real.(s) <- Jitter_state.copy real.(1 - s);
          model.(s) <- model.(1 - s)
      | Filter (s, drop) ->
          real.(s) <- Jitter_state.filter_flows real.(s) ~keep:(( <> ) drop);
          model.(s) <- List.filter (fun ((f, _, _), _) -> f <> drop) model.(s)
      | Union s ->
          real.(s) <- Jitter_state.union real.(1 - s) real.(s);
          model.(s) <- model_union model.(1 - s) model.(s))
    ops;
  (real, model)

let prop_matches_model =
  QCheck.Test.make ~name:"Jitter_state matches an entry model" ~count:500
    arb_script (fun ops ->
      let real, model = run_script ops in
      let a = real.(0) and b = real.(1) in
      let ma = model.(0) and mb = model.(1) in
      let entries_agree s =
        List.for_all
          (fun flow ->
            Array.for_all
              (fun stage ->
                List.for_all
                  (fun frame ->
                    Jitter_state.get real.(s) ~flow ~stage ~frame
                    = model_get model.(s) (flow, stage, frame))
                  [ 0; 1; 2; 3; 4 ]
                && List.for_all
                     (fun n_frames ->
                       Jitter_state.extra real.(s) ~flow ~n_frames ~stage
                       = List.fold_left
                           (fun acc frame ->
                             max acc (model_get model.(s) (flow, stage, frame)))
                           0
                           (List.init n_frames Fun.id))
                     [ 1; 2; 4 ])
              model_stages)
          [ 0; 1; 2 ]
        && Jitter_state.max_value real.(s)
           = List.fold_left (fun acc (_, v) -> max acc v) 0 model.(s)
      in
      entries_agree 0 && entries_agree 1
      && Jitter_state.equal a b = (List.sort compare ma = List.sort compare mb)
      && Jitter_state.max_delta a b = model_max_delta ma mb
      && Jitter_state.flow_deltas a b = model_flow_deltas ma mb
      && Jitter_state.flow_deltas b a = model_flow_deltas mb ma)

let tests =
  [
    Alcotest.test_case "snapshot is isolated" `Quick test_snapshot_is_isolated;
    Alcotest.test_case "snapshot/restore round trip" `Quick
      test_snapshot_restore_round_trip;
    Alcotest.test_case "restore re-installs source jitters" `Quick
      test_restore_reinstalls_source_jitters;
    Alcotest.test_case "restore completes unseen flows" `Quick
      test_restore_completes_unseen_flows;
    Alcotest.test_case "filter_flows: keep none / keep all" `Quick
      test_filter_flows_edges;
    Alcotest.test_case "filter_flows: partial" `Quick
      test_filter_flows_partial;
    QCheck_alcotest.to_alcotest prop_matches_model;
  ]
