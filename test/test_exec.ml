(* Gmf_exec: backend equivalence, memo accounting, worker crashes and
   the supervised persistent worker.

   The pool tests fork real worker processes; the case lists stay small
   enough that a full run is fast even at one hardware thread. *)

let outcome_str = function
  | Ok n -> Printf.sprintf "ok:%d" n
  | Error e -> "err:" ^ Gmf_exec.error_to_string e

let check_outcomes = Alcotest.(check (list string))

let strs os = List.map outcome_str os

(* A deterministic case function with both success and failure paths. *)
let eval x =
  ignore (Array.make 16 x);
  if x < 0 then failwith (Printf.sprintf "negative %d" x) else (x * 7) + 1

(* --- seq == pool determinism ---------------------------------------- *)

let prop_map_seq_eq_pool =
  QCheck.Test.make ~name:"map_cases: pool results equal seq" ~count:30
    QCheck.(pair (small_list (int_range (-3) 50)) (int_range 2 4))
    (fun (cases, jobs) ->
      let s = Gmf_exec.map_cases ~exec:Gmf_exec.seq ~f:eval cases in
      let p = Gmf_exec.map_cases ~exec:(Gmf_exec.pool jobs) ~f:eval cases in
      strs s = strs p)

(* --- combinator semantics (seq) ------------------------------------- *)

let test_map_order () =
  let r = Gmf_exec.map_cases ~f:eval [ 3; -1; 0 ] in
  check_outcomes "ordered outcomes"
    [ "ok:22"; "err:exception: Failure(\"negative -1\")"; "ok:1" ]
    (strs r)

(* --- the component memo ------------------------------------------- *)

(* [Analysis.Case] owns the one analysis memo: it looks each scenario up
   by digest and hands only the misses to [map_cases]. *)
let memo_scenarios () =
  let fig1 = Workload.Scenarios.fig1_videoconf () in
  let fewer =
    Traffic.Scenario.with_flows fig1 (List.tl (Traffic.Scenario.flows fig1))
  in
  (fig1, fewer)

let test_memo_hits () =
  let memo = Analysis.Case.shared_memo in
  Gmf_exec.Memo.clear memo;
  let a, b = memo_scenarios () in
  let r1 = Analysis.Case.analyze_all [ a; b; a ] in
  Alcotest.(check bool) "a hit within one run returns the stored report"
    true
    (List.nth r1 2 == List.nth r1 0);
  Alcotest.(check int) "rounds as a cold analysis"
    (Analysis.Holistic.analyze a).Analysis.Holistic.rounds
    (List.hd r1).Analysis.Holistic.rounds;
  (* Keyed by digest: a byte-identical scenario built afresh hits. *)
  let r2 = Analysis.Case.analyze_all [ b; fst (memo_scenarios ()) ] in
  Alcotest.(check bool) "second run all hits" true
    (List.nth r2 0 == List.nth r1 1 && List.nth r2 1 == List.nth r1 0);
  Alcotest.(check int) "table size" 2 (Gmf_exec.Memo.size memo)

let test_memo_counter () =
  let reg = Gmf_obs.Metrics.default in
  let was = Gmf_obs.Metrics.enabled reg in
  Gmf_obs.Metrics.set_enabled reg true;
  let hits = Gmf_obs.Metrics.counter reg "exec.memo_hits" in
  let cases = Gmf_obs.Metrics.counter reg "exec.cases" in
  let h0 = Gmf_obs.Metrics.counter_value hits in
  let c0 = Gmf_obs.Metrics.counter_value cases in
  Gmf_exec.Memo.clear Analysis.Case.shared_memo;
  let a, b = memo_scenarios () in
  ignore (Analysis.Case.analyze_all [ a; a; b ]);
  Gmf_obs.Metrics.set_enabled reg was;
  Alcotest.(check int) "exec.memo_hits"
    1
    (Gmf_obs.Metrics.counter_value hits - h0);
  Alcotest.(check int) "exec.cases" 2 (Gmf_obs.Metrics.counter_value cases - c0)

(* Telemetry recorded inside a worker must survive the fork: the worker
   dumps its registry with each result and the parent absorbs it, so the
   pooled totals equal the sequential ones — except [exec.workers],
   which only a pool spawn increments. *)
let test_pool_metrics_merge () =
  let reg = Gmf_obs.Metrics.default in
  let was = Gmf_obs.Metrics.enabled reg in
  let f x =
    ignore (Array.make 16 x);
    Gmf_obs.Metrics.incr ~by:x (Gmf_obs.Metrics.counter reg "test.pool.work");
    Gmf_obs.Metrics.observe
      (Gmf_obs.Metrics.histogram ~bounds:[| 4; 16 |] reg "test.pool.size")
      x;
    x * 3
  in
  let cases = [ 1; 2; 3; 5; 8; 13; 21 ] in
  let run exec =
    Gmf_obs.Metrics.set_enabled reg true;
    Gmf_obs.Metrics.reset reg;
    let r = Gmf_exec.map_cases ~exec ~f cases in
    let s = Gmf_obs.Metrics.snapshot reg in
    Gmf_obs.Metrics.set_enabled reg was;
    (strs r, s)
  in
  let rs, s_seq = run Gmf_exec.seq in
  let rp, s_pool = run (Gmf_exec.pool 2) in
  check_outcomes "pool results equal seq" rs rp;
  let drop_workers (s : Gmf_obs.Metrics.snapshot) =
    {
      s with
      Gmf_obs.Metrics.counters =
        List.filter (fun (n, _) -> n <> "exec.workers") s.Gmf_obs.Metrics.counters;
    }
  in
  Alcotest.(check bool) "pool metrics equal seq (modulo exec.workers)" true
    (drop_workers s_seq = drop_workers s_pool);
  (* Sanity: the workload really reached the registry both times. *)
  Alcotest.(check bool) "workload counter present" true
    (List.mem_assoc "test.pool.work" s_pool.Gmf_obs.Metrics.counters)

(* --- pool failure modes ---------------------------------------------- *)

let test_worker_crash () =
  let f x =
    ignore (Array.make 16 x);
    if x = 2 then exit 7 else x + 100
  in
  let r = Gmf_exec.map_cases ~exec:(Gmf_exec.pool 2) ~f [ 0; 1; 2; 3; 4 ] in
  let ok, err =
    List.partition (function Ok _ -> true | Error _ -> false) r
  in
  Alcotest.(check int) "other cases complete" 4 (List.length ok);
  (match err with
  | [ Error (Gmf_exec.Crashed _) ] -> ()
  | _ -> Alcotest.fail "expected exactly one crash error");
  (* The crash lands on the case that called exit. *)
  match List.nth r 2 with
  | Error (Gmf_exec.Crashed _) -> ()
  | _ -> Alcotest.fail "crash not attributed to the crashing case"

(* Every case kills its worker, so each one after the first [jobs]
   runs on a respawned replacement: the counters are exact, unlike a
   single crash among surviving cases, where how many forks replace it
   depends on which worker is idle first. *)
let test_pool_replaces_crashed_workers () =
  let reg = Gmf_obs.Metrics.default in
  let was = Gmf_obs.Metrics.enabled reg in
  Gmf_obs.Metrics.set_enabled reg true;
  let counter name = Gmf_obs.Metrics.counter reg name in
  let names =
    [ "exec.cases"; "exec.workers"; "exec.respawns"; "exec.pool_exhausted" ]
  in
  let before =
    List.map (fun n -> Gmf_obs.Metrics.counter_value (counter n)) names
  in
  let r =
    Gmf_exec.map_cases ~exec:(Gmf_exec.pool 2)
      ~f:(fun (_ : int) : int -> Unix._exit 3)
      [ 0; 1; 2; 3; 4 ]
  in
  let deltas =
    List.map2
      (fun n b -> (n, Gmf_obs.Metrics.counter_value (counter n) - b))
      names before
  in
  Gmf_obs.Metrics.set_enabled reg was;
  check_outcomes "every case crashed, in order"
    (List.init 5 (fun _ -> "err:crash: worker exited with code 3"))
    (strs r);
  Alcotest.(check (list (pair string int)))
    "exec counters"
    [
      ("exec.cases", 5);
      ("exec.workers", 5);
      ("exec.respawns", 3);
      ("exec.pool_exhausted", 0);
    ]
    deltas

(* One request/response round trip on a worker with nothing outstanding. *)
let call w x =
  match Gmf_exec.Persistent.send w x with
  | Ok () -> Gmf_exec.Persistent.recv w
  | Error e -> Error e

(* exec.respawns counts replacement forks — here via the supervised
   persistent worker the daemon uses. *)
let test_respawn_counter () =
  let reg = Gmf_obs.Metrics.default in
  let was = Gmf_obs.Metrics.enabled reg in
  Gmf_obs.Metrics.set_enabled reg true;
  let respawns = Gmf_obs.Metrics.counter reg "exec.respawns" in
  let r0 = Gmf_obs.Metrics.counter_value respawns in
  let w =
    Gmf_exec.Persistent.spawn
      ~init:(fun () -> ())
      ~handle:(fun () x ->
        if x = 0 then Unix._exit 5;
        x * 2)
      ()
  in
  (match call w 0 with
  | Error (Gmf_exec.Crashed _) -> ()
  | o -> Alcotest.fail ("expected a crash, got " ^ outcome_str o));
  Alcotest.(check int) "crash alone is not a respawn" 0
    (Gmf_obs.Metrics.counter_value respawns - r0);
  Gmf_exec.Persistent.respawn w;
  Alcotest.(check bool) "replacement works" true (call w 3 = Ok 6);
  Gmf_exec.Persistent.stop w;
  Gmf_obs.Metrics.set_enabled reg was;
  Alcotest.(check int) "exec.respawns counts the replacement" 1
    (Gmf_obs.Metrics.counter_value respawns - r0);
  Alcotest.(check int) "respawn_count agrees" 1
    (Gmf_exec.Persistent.respawn_count w)

(* --- knobs ----------------------------------------------------------- *)

let test_jobs_resolution () =
  Alcotest.(check bool) "jobs<=1 is Seq" true
    (Gmf_exec.of_jobs 1 = Gmf_exec.seq);
  (match Gmf_exec.of_jobs 4 with
  | Gmf_exec.Pool { jobs = 4 } -> ()
  | _ -> Alcotest.fail "of_jobs 4");
  Unix.putenv "GMFNET_JOBS" "3";
  Alcotest.(check int) "env fallback" 3 (Gmf_exec.resolve_jobs None);
  Alcotest.(check int) "cli wins" 2 (Gmf_exec.resolve_jobs (Some 2));
  Unix.putenv "GMFNET_JOBS" "bogus";
  Alcotest.(check int) "bogus env ignored" 1 (Gmf_exec.resolve_jobs None);
  Unix.putenv "GMFNET_JOBS" ""

let tests =
  [
    Alcotest.test_case "map order and error capture" `Quick test_map_order;
    Alcotest.test_case "memo hits" `Quick test_memo_hits;
    Alcotest.test_case "memo counters" `Quick test_memo_counter;
    Alcotest.test_case "pool merges worker telemetry" `Quick
      test_pool_metrics_merge;
    Alcotest.test_case "worker crash is per-case" `Quick test_worker_crash;
    Alcotest.test_case "pool replaces crashed workers" `Quick
      test_pool_replaces_crashed_workers;
    Alcotest.test_case "respawn counter" `Quick test_respawn_counter;
    Alcotest.test_case "jobs knob" `Quick test_jobs_resolution;
    QCheck_alcotest.to_alcotest prop_map_seq_eq_pool;
  ]
