(* gmfnetd: the admission-control daemon and its command-line client.

   [gmfnetd serve] runs the crash-safe daemon: concurrent admtrace
   sessions over a Unix-domain socket, each in a supervised worker
   process, every committed event fsync'd to a per-session journal
   before its decision is released, bounded queues shedding with
   explicit "overloaded" responses.

   [gmfnetd client] streams a .admtrace file through a session and
   prints output byte-identical to [gmfnet session] — the CI smoke job
   diffs it against the committed golden transcript.  On a lost
   connection it prints the outcomes it did receive, then the error on
   stderr, and exits 1.

   [gmfnetd fingerprint] fetches a session's state digest, queued
   behind any journal-recovery replay — the hook the kill -9 recovery
   tests use. *)

open Cmdliner

let exit_of_result = function
  | Ok () -> 0
  | Error msg ->
      prerr_endline ("gmfnetd: " ^ msg);
      1

let socket_arg =
  let doc = "Unix-domain socket path." in
  Arg.(
    value
    & opt string Gmf_daemon.Server.default_config.socket_path
    & info [ "socket" ] ~docv:"PATH" ~doc)

(* [conv] narrowed to the values [ok] accepts: any other value is a
   cmdliner usage error (exit 124), as in gmfnet. *)
let narrow conv ~expected ok =
  let parse s =
    Result.bind (Arg.conv_parser conv s) (fun v ->
        if ok v then Ok v
        else
          Error
            (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected)))
  in
  Arg.conv (parse, Arg.conv_printer conv)

let int_in lo =
  narrow Arg.int ~expected:(Printf.sprintf "an integer >= %d" lo) (( <= ) lo)

let seconds =
  narrow Arg.float ~expected:"a finite number > 0" (fun d ->
      Float.is_finite d && d > 0.)

let session_arg =
  let doc = "Session name (also the journal file name)." in
  Arg.(value & opt string "default" & info [ "session" ] ~docv:"NAME" ~doc)

(* ------------------------------------------------------------------ *)
(* serve                                                              *)
(* ------------------------------------------------------------------ *)

let serve_cmd =
  let journal_dir_arg =
    let doc = "Directory for per-session write-ahead journals." in
    Arg.(
      value
      & opt string Gmf_daemon.Server.default_config.journal_dir
      & info [ "journal-dir" ] ~docv:"DIR" ~doc)
  in
  let max_sessions_arg =
    let doc = "Maximum concurrently live sessions (worker processes)." in
    Arg.(
      value
      & opt (int_in 1) Gmf_daemon.Server.default_config.max_sessions
      & info [ "max-sessions" ] ~docv:"N" ~doc)
  in
  let queue_cap_arg =
    let doc =
      "Per-session pending-request bound; arrivals beyond it are shed \
       with an explicit $(b,overloaded) response."
    in
    Arg.(
      value
      & opt (int_in 1) Gmf_daemon.Server.default_config.queue_cap
      & info [ "queue-cap" ] ~docv:"N" ~doc)
  in
  let deadline_arg =
    let doc =
      "Per-request worker deadline in seconds; an overrun kills the \
       worker (the event is rejected, the worker respawned and \
       journal-replayed)."
    in
    Arg.(value & opt (some seconds) None & info [ "deadline" ] ~docv:"S" ~doc)
  in
  let run socket journal_dir max_sessions queue_cap deadline =
    exit_of_result
      (try
         Gmf_daemon.Server.run
           ~on_ready:(fun () ->
             Printf.printf "gmfnetd: listening on %s\n%!" socket)
           {
             Gmf_daemon.Server.default_config with
             socket_path = socket;
             journal_dir;
             max_sessions;
             queue_cap;
             deadline_s = deadline;
           };
         Ok ()
       with
      | Invalid_argument msg -> Error msg
      | Unix.Unix_error (e, fn, arg) ->
          Error
            (Printf.sprintf "%s(%s): %s" fn arg (Unix.error_message e)))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the admission-control daemon: concurrent $(b,.admtrace) \
          sessions over a Unix-domain socket, supervised worker \
          processes, fsync'd per-session event journals, bounded queues \
          with explicit overload shedding.  SIGTERM drains and exits.")
    Term.(
      const run $ socket_arg $ journal_dir_arg $ max_sessions_arg
      $ queue_cap_arg $ deadline_arg)

(* ------------------------------------------------------------------ *)
(* client                                                             *)
(* ------------------------------------------------------------------ *)

let client_cmd =
  let file_arg =
    let doc = "Admission trace ($(b,.admtrace)) to stream." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let verify_arg =
    let doc = "Shadow mode, as $(b,gmfnet session --verify)." in
    Arg.(value & flag & info [ "verify" ] ~doc)
  in
  let explain_arg =
    Arg.(value & flag & info [ "explain" ] ~doc:"Attribute fixpoint events.")
  in
  let survivable_arg =
    let doc = "Arm the survivable-admission gate with budget $(docv)." in
    Arg.(
      value & opt (some (int_in 0)) None & info [ "survivable" ] ~docv:"K" ~doc)
  in
  let throttle_arg =
    let doc =
      "Ask the worker to spend at least $(docv) seconds per event — \
       overload-test pacing."
    in
    Arg.(value & opt float 0. & info [ "throttle" ] ~docv:"S" ~doc)
  in
  let run socket session file verify explain survivable throttle =
    exit_of_result
      (match In_channel.with_open_text file In_channel.input_all with
      | exception Sys_error msg -> Error msg
      | text -> (
          match
            Gmf_daemon.Client.run_trace ~socket ~session ~verify ~explain
              ?survivable ~throttle_s:throttle text
          with
          | Error { Gmf_daemon.Client.received; reason } ->
              print_string received;
              Error reason
          | Ok r ->
              print_string r.Gmf_daemon.Client.output;
              List.iter
                (fun (code, message) ->
                  Printf.eprintf "gmfnetd: event rejected [%s]: %s\n" code
                    message)
                r.Gmf_daemon.Client.rejected;
              if r.Gmf_daemon.Client.mismatches > 0 then
                Error
                  (Printf.sprintf
                     "%d event(s) where the warm-started fixpoint disagreed \
                      with the cold analysis"
                     r.Gmf_daemon.Client.mismatches)
              else if r.Gmf_daemon.Client.rejected <> [] then
                Error
                  (Printf.sprintf "%d event(s) rejected by the daemon"
                     (List.length r.Gmf_daemon.Client.rejected))
              else Ok ()))
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Stream an admission trace through a daemon session and print \
          the transcript and summary, byte-identical to \
          $(b,gmfnet session) on the same trace.  On a lost connection \
          the outcomes received so far are printed before the error.")
    Term.(
      const run $ socket_arg $ session_arg $ file_arg $ verify_arg
      $ explain_arg $ survivable_arg $ throttle_arg)

(* ------------------------------------------------------------------ *)
(* fingerprint                                                        *)
(* ------------------------------------------------------------------ *)

let fingerprint_cmd =
  let run socket session =
    exit_of_result
      (match Gmf_daemon.Client.fingerprint ~socket ~session with
      | Ok (digest, events) ->
          Printf.printf "%s %d\n" digest events;
          Ok ()
      | Error _ as e -> e)
  in
  Cmd.v
    (Cmd.info "fingerprint"
       ~doc:
         "Print a session's state digest and event count.  The request \
          queues behind any journal-recovery replay, so the digest \
          reflects fully recovered state — the hook crash-recovery \
          checks diff.")
    Term.(const run $ socket_arg $ session_arg)

(* ------------------------------------------------------------------ *)

let main =
  let doc =
    "crash-safe admission-control daemon for generalized multiframe \
     traffic on multihop networks"
  in
  Cmd.group
    (Cmd.info "gmfnetd" ~version:"1.0.0" ~doc)
    [ serve_cmd; client_cmd; fingerprint_cmd ]

(* A daemon that closes the connection must surface as a send error
   (the client then prints what it received), not kill the process. *)
let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  exit (Cmd.eval' main)
