(* churn-tiles: one op is one [Gmf_admctl.Session.apply] event on the
   6x6 tile-local mesh.  Set-up admits the 108-flow base one event at a
   time.  The churn then visits every tile once per period:

     remove A, admit A, update B to 1.25x payload, update B back,

   and on every third tile also fails the tile's fabric link, restores
   it, moves every rerouted flow back with an update and re-admits every
   shed flow.  Each tile visit restores the base set exactly (same flow
   values, same ids), so every period must repeat the first one's
   outcomes line for line; the first period's transcript and the
   session fingerprints after set-up and after it are recorded.  The
   seed permutes the order the tiles are visited in; the recorded
   digests put the tile groups back in canonical order. *)

open Common
module Session = Gmf_admctl.Session
module Replay = Gmf_admctl.Replay

let kind = function
  | Session.Admit _ -> "admit"
  | Session.Remove _ -> "remove"
  | Session.Update _ -> "update"
  | Session.Fail_link _ -> "fail"
  | Session.Restore_link _ -> "restore"
  | Session.Query -> "query"

(* Everything [Session.fingerprint] covers except the event counters. *)
let state_text s =
  let b = Buffer.create 4096 in
  List.iter
    (fun (f : Traffic.Flow.t) ->
      Printf.bprintf b "%d %s %d %s [%s] %s\n" f.Traffic.Flow.id
        f.Traffic.Flow.name f.Traffic.Flow.priority
        (String.concat ","
           (List.map string_of_int (Network.Route.nodes f.Traffic.Flow.route)))
        (String.concat ";"
           (List.map
              (fun ((a, c), p) -> Printf.sprintf "%d/%d:%d" a c p)
              f.Traffic.Flow.remarks))
        (String.concat ";"
           (Array.to_list
              (Array.map
                 (fun (fr : Gmf.Frame_spec.t) ->
                   Printf.sprintf "%d,%d,%d,%d" fr.period fr.deadline fr.jitter
                     fr.payload_bits)
                 (Gmf.Spec.frames f.Traffic.Flow.spec)))))
    (Session.flows s);
  List.iter
    (fun (a, c) -> Printf.bprintf b "failed %d-%d\n" a c)
    (Session.failed_links s);
  Buffer.add_string b
    (Format.asprintf "%a\n" Analysis.Holistic.pp_verdict
       (Session.report s).Analysis.Holistic.verdict);
  Buffer.contents b

let counters s =
  let m = Session.summary s in
  Session.
    [ m.events; m.admitted; m.rejected; m.warm_hits; m.cold_resets; m.rounds_total;
      m.rounds_saved; m.flow_count ]

let admits trace_text =
  match Scenario_io.Admtrace.of_string trace_text with
  | Ok t ->
      ( t,
        List.map
          (fun (_, e) ->
            match Replay.session_event e with
            | Session.Admit f -> f
            | _ -> failwith "churn trace: only admits expected")
          t.Scenario_io.Admtrace.events )
  | Error e ->
      failwith (Format.asprintf "churn trace: %a" Scenario_io.Parse.pp_error e)

let run ~seed ~seconds ~traced =
  let canon = Inputs.read "tiles6x6.gmfnet" in
  let tiles = Array.of_list (Inputs.read_tiles "tiles6x6.tiles") in
  let prologue, blocks = Inputs.split_blocks canon in
  let trace, base =
    admits
      (Inputs.lines
         (prologue
         @ List.concat_map
             (function l :: rest -> ("admit " ^ l) :: rest | [] -> [])
             blocks))
  in
  let topo = trace.Scenario_io.Admtrace.topo in
  let flow_named = Hashtbl.create 128 and flow_id = Hashtbl.create 128 in
  List.iter
    (fun (f : Traffic.Flow.t) ->
      Hashtbl.replace flow_named f.Traffic.Flow.name f;
      Hashtbl.replace flow_id f.Traffic.Flow.id f)
    base;
  let s =
    Session.create ~switches:trace.Scenario_io.Admtrace.switches ~topo ()
  in
  let problems = ref [] in
  let problem msg = problems := msg :: !problems in
  (* Set-up: the base population, one admit at a time. *)
  isolate ();
  Speed.probe ();
  let setup_out, setup_ns =
    time (fun () -> List.map (fun f -> Session.apply s (Session.Admit f)) base)
  in
  let setup_s = ref nan in
  Speed.record (float_of_int setup_ns /. 1e9) (fun v -> setup_s := v);
  Speed.probe ();
  let observed = ref [] in
  let expect key value expected =
    observed := (key, value) :: !observed;
    if value <> expected then problem (key ^ " differs from the recorded value")
  in
  expect "setup.transcript" (digest (Replay.transcript setup_out))
    Expected.churn_setup_transcript;
  expect "setup.fingerprint" (Session.fingerprint s)
    Expected.churn_setup_fingerprint;
  let report_digest () =
    digest (Analysis.Report_io.frame_csv (Session.report s))
  in
  expect "setup.report" (report_digest ()) Expected.churn_base_report;
  let base_state = state_text s and c0 = counters s in
  (* One tile visit: fixed events, then the follow-ups a link failure's
     degradation calls for. *)
  let visit t =
    let tile = tiles.(t) in
    let member i = Hashtbl.find flow_named (List.nth tile.Inputs.members i) in
    let a = member 0 and b = member 3 in
    let b' =
      match Traffic.Flow.scale_payloads_checked b 1.25 with
      | Ok f -> f
      | Error _ -> b
    in
    let fixed =
      [
        Session.Remove a.Traffic.Flow.id;
        Session.Admit a;
        Session.Update b';
        Session.Update b;
      ]
    in
    if t mod 3 <> 0 then fixed
    else
      let sa, sb = tile.Inputs.link in
      let x = Inputs.node_id topo sa and y = Inputs.node_id topo sb in
      fixed @ [ Session.Fail_link (x, y); Session.Restore_link (x, y) ]
  in
  let follow_ups e (o : Session.outcome) =
    match (e, o.Session.degradation) with
    | Session.Fail_link _, Some { Session.rerouted; shed } ->
        List.map
          (fun (f : Traffic.Flow.t) ->
            Session.Update (Hashtbl.find flow_id f.Traffic.Flow.id))
          rerouted
        @ List.map
            (fun (f : Traffic.Flow.t) ->
              Session.Admit (Hashtbl.find flow_id f.Traffic.Flow.id))
            shed
    | _ -> []
  in
  let order = Array.init (Array.length tiles) Fun.id in
  shuffle (rng_of_seed ~salt:4 seed) order;
  let reference = Array.make (Array.length tiles) [] in
  (* Plain event latencies scaled to the reference host (also per kind),
     and as measured. *)
  let lat = ref [] and by_kind = Hashtbl.create 8 and lat_raw = ref [] in
  let traced_kind = Hashtbl.create 8 and deltas = ref [] in
  let warm = ref 0 and fixpoints = ref 0 and rounds = ref 0 in
  let busy = ref 0. and plain_busy = ref [] and traced_busy = ref [] in
  let attempted = ref 0 and failed = ref 0 and op = ref 0 in
  let add tbl k v =
    Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k))
  in
  (* Applies one event after [isolate]; returns its outcome line (seq
     stripped) and the follow-up events. *)
  let step ~tracing e =
    isolate ();
    Speed.tick ();
    incr attempted;
    incr op;
    let k = kind e in
    let call () = Session.apply s e in
    match
      if tracing then
        Loop.counted (fun () ->
            time (fun () -> Trace.span ~op:!op ("session.apply." ^ k) call))
      else (time call, [])
    with
    | (o, ns), d ->
        let ms = ms_of_ns ns in
        busy := !busy +. ms;
        if tracing then begin
          add traced_kind k ms;
          deltas := d :: !deltas;
          if o.Session.start <> Session.Skipped then incr fixpoints;
          if o.Session.start = Session.Warm then incr warm;
          rounds := !rounds + o.Session.rounds;
          if Loop.memo_hits d > 0 then incr failed
        end
        else begin
          lat_raw := ms :: !lat_raw;
          Speed.record ms (fun v ->
              lat := v :: !lat;
              add by_kind k v)
        end;
        Some (strip_seq (Replay.outcome_line o), follow_ups e o)
    | exception ex ->
        prerr_endline ("event raised: " ^ Printexc.to_string ex);
        incr failed;
        None
  in
  let rec apply_all ~tracing acc = function
    | [] -> List.rev acc
    | e :: rest -> (
        match step ~tracing e with
        | Some (line, more) -> apply_all ~tracing (line :: acc) (rest @ more)
        | None -> apply_all ~tracing acc rest)
  in
  let min_periods = if traced then 2 else 1 in
  let t_start = now_ns () in
  let elapsed () = float_of_int (now_ns () - t_start) /. 1e9 in
  let period = ref 0 and stop = ref false and increment = ref [] in
  while not !stop do
    let tracing = traced && !period mod 2 = 1 in
    busy := 0.;
    let complete =
      Array.for_all
        (fun t ->
          if elapsed () >= seconds && !period >= min_periods then false
          else begin
            let lines = apply_all ~tracing [] (visit t) in
            if !period = 0 then reference.(t) <- lines
            else if lines <> reference.(t) then begin
              (* Count the events that disagree with the first period. *)
              let rec diff a b =
                match (a, b) with
                | x :: a, y :: b -> (if x = y then 0 else 1) + diff a b
                | a, b -> List.length a + List.length b
              in
              failed := !failed + diff lines reference.(t)
            end;
            true
          end)
        order
    in
    if not complete then stop := true
    else begin
      (* A complete period restores the base set and moves the counters
         by exactly the first period's increments. *)
      incr period;
      if state_text s <> base_state then
        problem (Printf.sprintf "period %d did not restore the base set" !period);
      let moved = List.map2 ( - ) (counters s) c0 in
      if !period = 1 then begin
        increment := moved;
        let transcript =
          String.concat "\n" (List.concat (Array.to_list reference))
        in
        expect "period.transcript" (digest transcript)
          Expected.churn_period_transcript;
        expect "period.fingerprint" (Session.fingerprint s)
          Expected.churn_period_fingerprint;
        expect "period.report" (report_digest ()) Expected.churn_base_report
      end
      else if moved <> List.map (fun x -> x * !period) !increment then
        problem (Printf.sprintf "period %d moved the counters differently" !period);
      if tracing then traced_busy := !busy :: !traced_busy
      else plain_busy := !busy :: !plain_busy
    end
  done;
  Speed.probe ();
  (* The session's committed report must equal a cold batch analysis of
     its flow set. *)
  let cold =
    Analysis.Holistic.analyze
      (Traffic.Scenario.make ~switches:trace.Scenario_io.Admtrace.switches
         ~topo ~flows:(Session.flows s) ())
  in
  if
    Analysis.Report_io.frame_csv cold
    <> Analysis.Report_io.frame_csv (Session.report s)
  then problem "final session report differs from a cold analysis";
  let kind_ms k = Option.value ~default:[] (Hashtbl.find_opt by_kind k) in
  let edits = kind_ms "remove" @ kind_ms "update" @ kind_ms "fail" in
  let lat = !lat in
  let n_events = float_of_int (max 1 (List.length !deltas)) in
  let per_event name =
    ( name,
      float_of_int
        (List.fold_left
           (fun a d -> a + Option.value ~default:0 (List.assoc_opt name d))
           0 !deltas)
      /. n_events )
  in
  let layers =
    if not traced then []
    else
      Loop.layer_metrics
        (List.map
           (fun k ->
             ( "session.apply_ms." ^ k,
               median (Option.value ~default:[] (Hashtbl.find_opt traced_kind k)) ))
           [ "admit"; "remove"; "update"; "fail"; "restore" ]
        @ [
            ( "session.warm_frac",
              float_of_int !warm /. float_of_int (max 1 !fixpoints) );
            ( "exec.memo_hits",
              float_of_int
                (List.fold_left (fun a d -> a + Loop.memo_hits d) 0 !deltas) );
            ("lat_p90_ms", percentile 90. !lat_raw);
            ("lat_samples", float_of_int (List.length !lat_raw));
            ( "trace.overhead_ratio",
              median !traced_busy /. median !plain_busy );
          ]
        @ List.map (fun (name, _) -> per_event name) Loop.counters
        @ [ ("holistic.rounds", float_of_int !rounds /. n_events) ])
  in
  {
    attempted = !attempted;
    failed = !failed;
    problems = List.rev !problems;
    observed = List.rev !observed;
    e2e =
      [
        ("setup_s", !setup_s, "s");
        ("ops_per_s", float_of_int (List.length lat) /. (sum lat /. 1e3), "1/s");
        ("lat_p50_ms", median lat, "ms");
        ("peak_rss_mb", peak_rss_mb (), "MB");
      ];
    extra =
      [
        ( "input",
          Printf.sprintf
            "6x6 tile mesh: %d tiles, %d base flows, %d complete periods"
            (Array.length tiles) (List.length base) !period );
        ( "admit_p50_ms",
          Printf.sprintf "%.3f (%d)" (median (kind_ms "admit"))
            (List.length (kind_ms "admit")) );
        ( "edit_p50_ms",
          Printf.sprintf "%.3f (%d)" (median edits) (List.length edits) );
      ];
    layers;
  }
