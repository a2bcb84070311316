(* Gmf_exec: the case evaluator and the supervised persistent worker. *)

let outcome_str = function
  | Ok n -> Printf.sprintf "ok:%d" n
  | Error e -> "err:" ^ Gmf_exec.error_to_string e

let check_outcomes = Alcotest.(check (list string))

let strs os = List.map outcome_str os

(* A deterministic case function with both success and failure paths. *)
let eval x =
  ignore (Array.make 16 x);
  if x < 0 then failwith (Printf.sprintf "negative %d" x) else (x * 7) + 1

(* --- the evaluator ------------------------------------------------- *)

let test_map_order () =
  let r = List.map (Gmf_exec.run ~f:eval) [ 3; -1; 0 ] in
  check_outcomes "ordered outcomes"
    [ "ok:22"; "err:exception: Failure(\"negative -1\")"; "ok:1" ]
    (strs r)

(* One request/response round trip on a worker with nothing outstanding. *)
let call w x =
  match Gmf_exec.Persistent.send w x with
  | Ok () -> Gmf_exec.Persistent.recv w
  | Error e -> Error e

(* A crash fails only the request that was running: the supervisor
   respawns the worker and every other request still completes. *)
let test_worker_crash () =
  let w =
    Gmf_exec.Persistent.spawn ~init:ignore
      ~handle:(fun () x -> if x = 2 then Unix._exit 7 else x + 100)
      ()
  in
  let r =
    List.map
      (fun x ->
        let o = call w x in
        if Result.is_error o then Gmf_exec.Persistent.respawn w;
        o)
      [ 0; 1; 2; 3; 4 ]
  in
  Gmf_exec.Persistent.stop w;
  check_outcomes "the crash lands on the request that exited"
    [ "ok:100"; "ok:101"; "err:crash: worker exited with code 7"; "ok:103";
      "ok:104" ]
    (strs r)

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

let tests =
  [
    Alcotest.test_case "map order and error capture" `Quick test_map_order;
    Alcotest.test_case "worker crash is per-case" `Quick test_worker_crash;
    Alcotest.test_case "respawn counter" `Quick test_respawn_counter;
  ]
