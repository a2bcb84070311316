(* Gmf_daemon: wire codec, journal durability, supervised workers,
   and the daemon's three robustness pillars driven end-to-end over a
   real Unix socket — transcript parity with in-process replay, kill -9
   crash recovery via journal replay, and explicit overload shedding.

   Daemon tests fork a real gmfnetd server process (Unix._exit in the
   child keeps the test runner's state out of it) and talk to it with
   Gmf_daemon.Client.  Everything runs under a per-process temp root. *)

module Jsonl = Scenario_io.Admtrace_jsonl
module Journal = Gmf_daemon.Journal
module Server = Gmf_daemon.Server
module Client = Gmf_daemon.Client
module Worker = Gmf_daemon.Worker
module Session = Gmf_admctl.Session
module Replay = Gmf_admctl.Replay
module Persistent = Gmf_exec.Persistent

let () = Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* ---------------- scratch dirs and daemon lifecycle ----------------- *)

let tmp_root =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "gmfnetd-test-%d" (Unix.getpid ()))

let rec mkdirs dir =
  if dir <> "" && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdirs (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d = Filename.concat tmp_root (string_of_int !n) in
    mkdirs d;
    d

let start_daemon cfg =
  match Unix.fork () with
  | 0 ->
      (try Server.run cfg with _ -> ());
      Unix._exit 0
  | pid ->
      (* A stale socket file can survive kill -9, so poll with a real
         ping, not file existence. *)
      let rec wait n =
        if n <= 0 then Alcotest.fail "gmfnetd did not come up"
        else
          let ok =
            match Client.connect cfg.Server.socket_path with
            | Error _ -> false
            | Ok c ->
                let r = Client.request c Jsonl.Ping in
                Client.close c;
                r = Ok Jsonl.Pong
          in
          if not ok then begin
            Unix.sleepf 0.02;
            wait (n - 1)
          end
      in
      wait 250;
      pid

let stop_daemon pid =
  (try Unix.kill pid Sys.sigterm with _ -> ());
  ignore (Unix.waitpid [] pid)

let kill9_daemon pid =
  (try Unix.kill pid Sys.sigkill with _ -> ());
  ignore (Unix.waitpid [] pid)

(* ---------------- traces and in-process references ------------------ *)

(* Random churn over two clustered switches: admits (some heavy enough
   to be rejected), removals, updates, queries.  Deterministic per
   seed, so daemon and in-process replays see the same trace. *)
let gen_trace_text seed =
  let open Gmf_util in
  let rng = Rng.create ~seed in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "node h0 endhost\nnode h1 endhost\nnode h2 endhost\nnode h3 endhost\n\
     node s0 switch\nnode s1 switch\n\
     duplex h0 s0 rate=100M\nduplex h1 s0 rate=100M\n\
     duplex h2 s1 rate=100M\nduplex h3 s1 rate=100M\n\
     duplex s0 s1 rate=100M\n\
     switch s0 ports=3 cpus=1 croute=2.7us csend=1us\n\
     switch s1 ports=3 cpus=1 croute=2.7us csend=1us\n";
  let hosts = [| "h0"; "h1"; "h2"; "h3" |] in
  let active = ref [] in
  let fresh = ref 0 in
  let flow_block keyword name =
    let src = Rng.pick rng hosts in
    let dst = ref (Rng.pick rng hosts) in
    while !dst = src do
      dst := Rng.pick rng hosts
    done;
    Printf.bprintf buf "%s flow %s from=%s to=%s prio=%d encap=udp\n" keyword
      name src !dst (Rng.int rng 8);
    for _ = 0 to Rng.int rng 2 do
      Printf.bprintf buf
        "  frame period=%dms deadline=%dms jitter=%dus payload=%dB\n"
        (2 + Rng.int rng 10)
        (1 + Rng.int rng 40)
        (Rng.int rng 500)
        (60 + Rng.int rng 12000)
    done;
    Buffer.add_string buf "end\n"
  in
  let n_events = 4 + Rng.int rng 8 in
  for _ = 1 to n_events do
    match Rng.int rng 6 with
    | 0 | 1 | 2 ->
        let name = Printf.sprintf "f%d" !fresh in
        incr fresh;
        flow_block "admit" name;
        active := name :: !active
    | 3 when !active <> [] ->
        let name = List.nth !active (Rng.int rng (List.length !active)) in
        active := List.filter (fun n -> n <> name) !active;
        Printf.bprintf buf "remove %s\n" name
    | 4 when !active <> [] ->
        let name = List.nth !active (Rng.int rng (List.length !active)) in
        flow_block "update" name
    | _ -> Buffer.add_string buf "query\n"
  done;
  Buffer.contents buf

let parse_trace text =
  match Scenario_io.Admtrace.of_string text with
  | Ok t -> t
  | Error e ->
      Alcotest.fail
        (Format.asprintf "trace did not parse: %a" Scenario_io.Parse.pp_error e)

(* The uninterrupted in-process run: per-event (transcript line,
   session fingerprint after the event), final fingerprint, summary. *)
let reference text =
  let trace = parse_trace text in
  let session =
    Session.create ~switches:trace.Scenario_io.Admtrace.switches
      ~topo:trace.Scenario_io.Admtrace.topo ()
  in
  let steps =
    List.map
      (fun (_line, ev) ->
        let o = Session.apply session (Replay.session_event ev) in
        (Replay.outcome_line o, Session.fingerprint session))
      trace.Scenario_io.Admtrace.events
  in
  let summary =
    Format.asprintf "%a" Replay.pp_summary (Session.summary session)
  in
  (steps, Session.fingerprint session, summary)

(* ---------------- wire codec ---------------------------------------- *)

let test_codec_roundtrip () =
  let requests =
    [
      Jsonl.Open
        {
          session = "s-1.x";
          topology = "node a endhost\nnode b switch\n";
          verify = true;
          explain = false;
          cold = true;
          survivable = Some 2;
          throttle_s = 0.25;
        };
      Jsonl.Open
        {
          session = "d";
          topology = "";
          verify = false;
          explain = false;
          cold = false;
          survivable = None;
          throttle_s = 0.;
        };
      Jsonl.Event { text = "admit flow f0 from=a to=b prio=1 encap=udp\nend" };
      Jsonl.Event { text = "weird \"quotes\" \\ and \t control \x01 bytes" };
      Jsonl.Summary;
      Jsonl.Fingerprint;
      Jsonl.Ping;
      Jsonl.Close;
    ]
  in
  List.iter
    (fun r ->
      let line = Jsonl.encode_request r in
      Alcotest.(check bool)
        (Printf.sprintf "request round-trips: %s" line)
        true
        (Jsonl.decode_request line = Ok r))
    requests;
  let responses =
    [
      Jsonl.Opened { session = "s"; replayed = 7 };
      Jsonl.Outcome
        {
          seq = 3;
          label = "admit f0";
          accepted = false;
          text = "#03 admit f0 | rejected | ...\n     error[GMF001] dup";
        };
      Jsonl.Summary_is { text = "  events           8\n" };
      Jsonl.Fingerprint_is { digest = "abcd"; events = 4 };
      Jsonl.Pong;
      Jsonl.Closed;
      Jsonl.Rejected { code = Jsonl.code_overloaded; message = "queue full" };
    ]
  in
  List.iter
    (fun r ->
      let line = Jsonl.encode_response r in
      Alcotest.(check bool)
        (Printf.sprintf "response round-trips: %s" line)
        true
        (Jsonl.decode_response line = Ok r))
    responses

let test_codec_canonical_and_errors () =
  let open_line =
    Jsonl.encode_request
      (Jsonl.Open
         {
           session = "s";
           topology = "t";
           verify = false;
           explain = false;
           cold = false;
           survivable = None;
           throttle_s = 0.;
         })
  in
  (* Canonical form omits default-valued fields. *)
  List.iter
    (fun needle ->
      let contains =
        let nl = String.length needle and hl = String.length open_line in
        let rec go i =
          i + nl <= hl && (String.sub open_line i nl = needle || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s omitted from %s" needle open_line)
        false contains)
    [ "verify"; "explain"; "cold"; "survivable"; "throttle" ];
  List.iter
    (fun line ->
      Alcotest.(check bool)
        (Printf.sprintf "rejects %S" line)
        true
        (Result.is_error (Jsonl.decode_request line)))
    [ ""; "{"; "[1,2]"; "42"; {|{"op":"nope"}|}; {|{"op":"open"}|} ];
  (* Event text escapes decode to UTF-8: a surrogate pair to one 4-byte
     scalar (not two 3-byte CESU-8 halves), U+00E9 to two bytes; a lone
     low surrogate is malformed. *)
  List.iter
    (fun (escaped, want) ->
      Alcotest.(check bool)
        (Printf.sprintf "event text %s" escaped)
        true
        (Jsonl.decode_request
           (Printf.sprintf {|{"op":"event","text":"%s"}|} escaped)
        = Ok (Jsonl.Event { text = want })))
    [ ({|\ud83d\ude00|}, "\xf0\x9f\x98\x80"); ({|\u00e9|}, "\xc3\xa9") ];
  Alcotest.(check bool) "lone low surrogate rejected" true
    (Result.is_error
       (Jsonl.decode_request {|{"op":"event","text":"\udc00"}|}))

let test_json_parser () =
  let open Gmf_util.Json in
  (match of_string {| {"a":[1,2.5,true,null],"b":"xé\n"} |} with
  | Ok (Obj [ ("a", Arr [ Int 1; Float 2.5; Bool true; Null ]); ("b", Str s) ])
    ->
      Alcotest.(check string) "utf8 escape decodes" "x\xc3\xa9\n" s
  | Ok v -> Alcotest.fail ("unexpected parse: " ^ to_string v)
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool)
    "trailing garbage rejected" true
    (Result.is_error (of_string "{} x"));
  (* Printer/parser round-trip on an escaping-heavy value. *)
  let v =
    Obj [ ("k\"ey", Str "a\nb\tc\\d\x01"); ("n", Arr [ Int (-3); Float 0.5 ]) ]
  in
  Alcotest.(check bool) "print/parse round-trip" true
    (of_string (to_string v) = Ok v)

(* ---------------- journal -------------------------------------------- *)

let test_journal_names () =
  List.iter
    (fun (name, want) ->
      Alcotest.(check bool) (Printf.sprintf "valid_name %S" name) want
        (Journal.valid_name name))
    [
      ("ok-1.x_Y", true); ("a", true); ("", false); ("a/b", false);
      (".hidden", false); ("a b", false); (String.make 129 'a', false);
    ]

let test_journal_torn_tail () =
  let dir = fresh_dir () in
  let j, recovered = Journal.open_ ~dir ~session:"s" in
  Alcotest.(check (list string)) "fresh journal is empty" [] recovered;
  Journal.append j "alpha";
  Journal.append j "beta";
  let path = Journal.path j in
  Journal.close j;
  (* Simulate a crash mid-append: a trailing fragment without newline. *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "torn-fragm";
  close_out oc;
  Alcotest.(check (list string))
    "load drops the torn tail" [ "alpha"; "beta" ]
    (Journal.load ~dir ~session:"s");
  let j2, recovered2 = Journal.open_ ~dir ~session:"s" in
  Alcotest.(check (list string))
    "open recovers complete lines" [ "alpha"; "beta" ] recovered2;
  Journal.append j2 "gamma";
  Alcotest.(check int) "entries counts recovered + appended" 3
    (Journal.entries j2);
  Journal.close j2;
  (* The torn fragment must not fuse with the post-recovery append. *)
  Alcotest.(check (list string))
    "append after recovery is clean" [ "alpha"; "beta"; "gamma" ]
    (Journal.load ~dir ~session:"s")

(* ---------------- persistent workers --------------------------------- *)

(* One request/response round trip on a worker with nothing outstanding. *)
let call w x =
  match Persistent.send w x with Ok () -> Persistent.recv w | Error e -> Error e

let test_persistent_worker () =
  let w =
    Persistent.spawn
      ~init:(fun () -> ref 0)
      ~handle:(fun st x ->
        if x = 13 then failwith "unlucky";
        if x = 99 then Unix._exit 3;
        st := !st + x;
        !st)
      ()
  in
  Alcotest.(check bool) "call" true (call w 5 = Ok 5);
  Alcotest.(check bool) "state persists across calls" true (call w 2 = Ok 7);
  (* A handler exception comes back as Error (Exn _), worker stays up. *)
  (match call w 13 with
  | Error (Gmf_exec.Exn msg) ->
      Alcotest.(check bool) "exn payload" true
        (String.length msg > 0)
  | _ -> Alcotest.fail "expected Error (Exn _)");
  Alcotest.(check bool) "worker survives handler exception" true
    (call w 1 = Ok 8);
  (* A crash mid-request surfaces as Crashed and detaches the process. *)
  (match call w 99 with
  | Error (Gmf_exec.Crashed _) -> ()
  | _ -> Alcotest.fail "expected Error (Crashed _)");
  Alcotest.(check bool) "dead after crash" false (Persistent.alive w);
  (* Respawn re-runs init from scratch. *)
  Persistent.respawn w;
  Alcotest.(check int) "respawn counted" 1 (Persistent.respawn_count w);
  Alcotest.(check bool) "fresh state after respawn" true (call w 4 = Ok 4);
  Persistent.stop w

let test_backoff () =
  let b = Persistent.Backoff.create ~base_s:1. ~max_s:8. () in
  Alcotest.(check bool) "fresh is ready" true
    (Persistent.Backoff.ready b ~now:0.);
  Persistent.Backoff.note_failure b ~now:0.;
  Alcotest.(check bool) "not ready inside window" false
    (Persistent.Backoff.ready b ~now:0.5);
  Alcotest.(check bool) "ready after base delay" true
    (Persistent.Backoff.ready b ~now:1.0);
  Persistent.Backoff.note_failure b ~now:10.;
  Alcotest.(check (float 1e-9)) "second failure doubles" 12.
    (Persistent.Backoff.next_try b);
  Persistent.Backoff.note_failure b ~now:20.;
  Alcotest.(check (float 1e-9)) "third failure doubles again" 24.
    (Persistent.Backoff.next_try b);
  Persistent.Backoff.note_failure b ~now:30.;
  Persistent.Backoff.note_failure b ~now:40.;
  Alcotest.(check (float 1e-9)) "delay caps at max_s" 48.
    (Persistent.Backoff.next_try b);
  Alcotest.(check int) "failures counted" 5 (Persistent.Backoff.failures b);
  Persistent.Backoff.note_success b;
  Alcotest.(check bool) "success resets" true
    (Persistent.Backoff.ready b ~now:40.);
  Alcotest.check_raises "base_s must be positive"
    (Invalid_argument "Gmf_exec.Persistent.Backoff.create") (fun () ->
      ignore (Persistent.Backoff.create ~base_s:0. ()))

(* ---------------- session workers ------------------------------------ *)

(* The freeze discipline: a topology directive smuggled into an event
   request must fail *before* mutating the worker's name/topology
   tables, so a Reject (which is never journaled) provably leaves the
   worker in step with the journal. *)
let test_worker_frozen_prologue () =
  let topology =
    "node a endhost\nnode b switch\nnode c endhost\n\
     duplex a b rate=100M\nduplex b c rate=100M\n"
  in
  let st = Worker.init ~opts:Worker.default_opts ~topology () in
  let admit name dst =
    Printf.sprintf
      "admit flow %s from=a to=%s\n\
      \  frame period=10ms deadline=10ms payload=100B\n\
       end"
      name dst
  in
  (match Worker.handle st (Worker.Event_text "node x endhost") with
  | Worker.Reject msg ->
      Alcotest.(check bool)
        (Printf.sprintf "frozen-prologue rejection: %s" msg)
        true
        (contains ~needle:"must precede" msg)
  | _ -> Alcotest.fail "expected Reject for a topology directive in an event");
  (* The rejected directive left no trace: "x" is still unknown. *)
  (match Worker.handle st (Worker.Event_text (admit "f0" "x")) with
  | Worker.Reject msg ->
      Alcotest.(check bool)
        (Printf.sprintf "name table untouched: %s" msg)
        true
        (contains ~needle:"unknown node" msg)
  | _ -> Alcotest.fail "expected Reject for an unknown node");
  (* And the worker is still good: a valid admit goes through. *)
  (match Worker.handle st (Worker.Event_text (admit "f0" "c")) with
  | Worker.Outcome o -> Alcotest.(check int) "first committed event" 1 o.seq
  | _ -> Alcotest.fail "expected Outcome for a valid admit");
  (* Comment-only text stays a clean reject, not a worker death. *)
  match Worker.handle st (Worker.Event_text "# nothing here\n\n") with
  | Worker.Reject _ -> ()
  | _ -> Alcotest.fail "expected Reject for comment-only text"

(* The tokenizer treats tabs as separators; event slicing must too. *)
let test_slice_tab_separated () =
  let text =
    "node a endhost\nnode b endhost\n\
     admit\tflow f from=a to=b\n\
    \  frame period=10ms deadline=10ms payload=100B\nend\n\
     remove\tf\n"
  in
  let prologue, chunks = Client.slice_trace text in
  Alcotest.(check bool) "prologue holds only topology" true
    (contains ~needle:"node b endhost" prologue
    && not (contains ~needle:"admit" prologue));
  Alcotest.(check int) "two events sliced" 2 (List.length chunks);
  match chunks with
  | [ a; r ] ->
      Alcotest.(check bool) "flow block chunk" true
        (contains ~needle:"admit\tflow f" a && contains ~needle:"end" a);
      Alcotest.(check bool) "remove chunk" true (contains ~needle:"remove" r)
  | _ -> Alcotest.fail "expected exactly two chunks"

(* ---------------- daemon end-to-end ---------------------------------- *)

let expected_output steps summary =
  String.concat "" (List.map (fun (line, _) -> line ^ "\n") steps)
  ^ "\nsummary:\n" ^ summary

let test_daemon_transcript_parity () =
  let dir = fresh_dir () in
  let cfg =
    {
      Server.default_config with
      socket_path = Filename.concat dir "d.sock";
      journal_dir = Filename.concat dir "journal";
    }
  in
  let text = gen_trace_text 7 in
  let steps, fp, summary = reference text in
  let pid = start_daemon cfg in
  Fun.protect
    ~finally:(fun () -> stop_daemon pid)
    (fun () ->
      (match
         Client.run_trace ~socket:cfg.Server.socket_path ~session:"parity" text
       with
      | Error msg -> Alcotest.fail msg
      | Ok r ->
          Alcotest.(check (list (pair string string))) "nothing rejected" []
            r.Client.rejected;
          Alcotest.(check string)
            "daemon output byte-identical to in-process replay"
            (expected_output steps summary)
            r.Client.output);
      match
        Client.fingerprint ~socket:cfg.Server.socket_path ~session:"parity"
      with
      | Error msg -> Alcotest.fail msg
      | Ok (digest, events) ->
          Alcotest.(check string) "fingerprint matches in-process" fp digest;
          Alcotest.(check int) "event count" (List.length steps) events)

(* The crash-safety property: kill -9 the daemon after a random number
   of committed events, restart it on the same journal, stream the rest
   of the trace — every transcript line, the fingerprint and the
   summary must equal the uninterrupted run's. *)
let prop_kill9_recovery =
  QCheck.Test.make ~name:"kill -9 mid-trace recovers byte-identical state"
    ~count:4
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let text = gen_trace_text seed in
      let steps, fp, summary = reference text in
      let prologue, chunks = Client.slice_trace text in
      let n = List.length chunks in
      if n < 2 then true
      else begin
        let kill_at = 1 + (seed mod (n - 1)) in
        let dir = fresh_dir () in
        let cfg =
          {
            Server.default_config with
            socket_path = Filename.concat dir "d.sock";
            journal_dir = Filename.concat dir "journal";
          }
        in
        let socket = cfg.Server.socket_path in
        let open_req =
          Jsonl.Open
            {
              session = "crashy";
              topology = prologue;
              verify = false;
              explain = false;
              cold = false;
              survivable = None;
              throttle_s = 0.;
            }
        in
        let send_events c lo hi =
          List.iteri
            (fun i chunk ->
              if i >= lo && i < hi then
                match Client.request c (Jsonl.Event { text = chunk }) with
                | Ok (Jsonl.Outcome o) ->
                    let want, _ = List.nth steps i in
                    if o.text <> want then
                      QCheck.Test.fail_reportf
                        "event %d transcript drifted:@\n%s@\nvs@\n%s" i o.text
                        want
                | Ok r ->
                    QCheck.Test.fail_reportf "event %d: unexpected %s" i
                      (Jsonl.encode_response r)
                | Error msg ->
                    QCheck.Test.fail_reportf "event %d: %s" i msg)
            chunks
        in
        (* Phase 1: commit [0, kill_at), then kill -9. *)
        let pid = start_daemon cfg in
        (match Client.connect socket with
        | Error msg ->
            kill9_daemon pid;
            QCheck.Test.fail_report msg
        | Ok c ->
            (match Client.request c open_req with
            | Ok (Jsonl.Opened { replayed = 0; _ }) -> ()
            | r ->
                kill9_daemon pid;
                QCheck.Test.fail_reportf "fresh open: %s"
                  (match r with
                  | Ok resp -> Jsonl.encode_response resp
                  | Error m -> m));
            send_events c 0 kill_at;
            Client.close c);
        kill9_daemon pid;
        (* Phase 2: restart on the same journal, finish the trace. *)
        let pid = start_daemon cfg in
        Fun.protect
          ~finally:(fun () -> stop_daemon pid)
          (fun () ->
            (match Client.connect socket with
            | Error msg -> QCheck.Test.fail_report msg
            | Ok c ->
                (match Client.request c open_req with
                | Ok (Jsonl.Opened { replayed; _ }) ->
                    if replayed <> kill_at then
                      QCheck.Test.fail_reportf
                        "expected %d journaled events, recovered %d" kill_at
                        replayed
                | r ->
                    QCheck.Test.fail_reportf "re-open: %s"
                      (match r with
                      | Ok resp -> Jsonl.encode_response resp
                      | Error m -> m));
                send_events c kill_at n;
                (match Client.request c Jsonl.Summary with
                | Ok (Jsonl.Summary_is { text }) ->
                    if text <> summary then
                      QCheck.Test.fail_reportf "summary drifted:@\n%s@\nvs@\n%s"
                        text summary
                | _ -> QCheck.Test.fail_report "summary request failed");
                Client.close c);
            match Client.fingerprint ~socket ~session:"crashy" with
            | Ok (digest, events) ->
                if digest <> fp || events <> n then
                  QCheck.Test.fail_reportf
                    "recovered fingerprint %s/%d, want %s/%d" digest events fp
                    n;
                true
            | Error msg -> QCheck.Test.fail_report msg)
      end)

(* Overload: a throttled worker, a queue capped at 2 and 8 pipelined
   events.  The daemon must answer all 8 — the first three with
   outcomes, the rest shed with explicit "overloaded" — and the
   committed state must be exactly the three answered events. *)
let test_daemon_shedding () =
  let dir = fresh_dir () in
  let cfg =
    {
      Server.default_config with
      socket_path = Filename.concat dir "d.sock";
      journal_dir = Filename.concat dir "journal";
      queue_cap = 2;
    }
  in
  let text = gen_trace_text 11 in
  let prologue, _ = Client.slice_trace text in
  let pid = start_daemon cfg in
  Fun.protect
    ~finally:(fun () -> stop_daemon pid)
    (fun () ->
      (match Client.connect cfg.Server.socket_path with
      | Error msg -> Alcotest.fail msg
      | Ok c ->
          (match
             Client.request c
               (Jsonl.Open
                  {
                    session = "busy";
                    topology = prologue;
                    verify = false;
                    explain = false;
                    cold = false;
                    survivable = None;
                    throttle_s = 0.3;
                  })
           with
          | Ok (Jsonl.Opened _) -> ()
          | _ -> Alcotest.fail "open failed");
          (* Pipeline 8 queries without reading a single response. *)
          for _ = 1 to 8 do
            match Client.send c (Jsonl.Event { text = "query" }) with
            | Ok () -> ()
            | Error msg -> Alcotest.fail msg
          done;
          let outcomes = ref 0 and shed = ref 0 in
          for _ = 1 to 8 do
            match Client.recv c with
            | Ok (Jsonl.Outcome _) -> incr outcomes
            | Ok (Jsonl.Rejected { code; _ })
              when code = Jsonl.code_overloaded ->
                incr shed
            | Ok r ->
                Alcotest.fail ("unexpected: " ^ Jsonl.encode_response r)
            | Error msg -> Alcotest.fail msg
          done;
          Client.close c;
          (* 1 in flight + 2 queued complete; 5 are shed explicitly. *)
          Alcotest.(check int) "completed events" 3 !outcomes;
          Alcotest.(check int) "explicitly shed" 5 !shed);
      (* The committed state is exactly the three answered events. *)
      match
        Client.fingerprint ~socket:cfg.Server.socket_path ~session:"busy"
      with
      | Ok (_digest, events) ->
          Alcotest.(check int) "journal holds only completed events" 3 events
      | Error msg -> Alcotest.fail msg)

(* SIGTERM drains: pipelined work in the queue is finished and answered
   before the daemon exits. *)
let test_daemon_drain () =
  let dir = fresh_dir () in
  let cfg =
    {
      Server.default_config with
      socket_path = Filename.concat dir "d.sock";
      journal_dir = Filename.concat dir "journal";
    }
  in
  let text = gen_trace_text 11 in
  let prologue, _ = Client.slice_trace text in
  let pid = start_daemon cfg in
  match Client.connect cfg.Server.socket_path with
  | Error msg ->
      stop_daemon pid;
      Alcotest.fail msg
  | Ok c ->
      (match
         Client.request c
           (Jsonl.Open
              {
                session = "draining";
                topology = prologue;
                verify = false;
                explain = false;
                cold = false;
                survivable = None;
                throttle_s = 0.2;
              })
       with
      | Ok (Jsonl.Opened _) -> ()
      | _ ->
          stop_daemon pid;
          Alcotest.fail "open failed");
      for _ = 1 to 3 do
        ignore (Client.send c (Jsonl.Event { text = "query" }))
      done;
      (* Let the daemon read all three requests, then ask it to stop. *)
      Unix.sleepf 0.1;
      Unix.kill pid Sys.sigterm;
      let outcomes = ref 0 in
      for _ = 1 to 3 do
        match Client.recv c with
        | Ok (Jsonl.Outcome _) -> incr outcomes
        | Ok r -> Alcotest.fail ("unexpected: " ^ Jsonl.encode_response r)
        | Error msg -> Alcotest.fail msg
      done;
      Client.close c;
      ignore (Unix.waitpid [] pid);
      Alcotest.(check int) "all queued events answered before exit" 3 !outcomes;
      Alcotest.(check bool) "socket unlinked on exit" false
        (Sys.file_exists cfg.Server.socket_path)

(* A client that pipelines requests without ever reading must not stall
   the event loop: its responses park in the daemon's per-connection
   output buffer (client fds are non-blocking) while other clients keep
   being served, and every parked response is delivered once the
   stalled client reads again. *)
let test_stalled_client_isolation () =
  let dir = fresh_dir () in
  let cfg =
    {
      Server.default_config with
      socket_path = Filename.concat dir "d.sock";
      journal_dir = Filename.concat dir "journal";
    }
  in
  let text = gen_trace_text 3 in
  let prologue, _ = Client.slice_trace text in
  let n = 3000 in
  let pid = start_daemon cfg in
  Fun.protect
    ~finally:(fun () -> stop_daemon pid)
    (fun () ->
      match Client.connect cfg.Server.socket_path with
      | Error msg -> Alcotest.fail msg
      | Ok a ->
          (match
             Client.request a
               (Jsonl.Open
                  {
                    session = "stall";
                    topology = prologue;
                    verify = false;
                    explain = false;
                    cold = false;
                    survivable = None;
                    throttle_s = 0.;
                  })
           with
          | Ok (Jsonl.Opened _) -> ()
          | _ -> Alcotest.fail "open failed");
          (* Enough responses to overflow the socket buffers several
             times over while we read none of them. *)
          for _ = 1 to n do
            match Client.send a (Jsonl.Event { text = "query" }) with
            | Ok () -> ()
            | Error msg -> Alcotest.fail msg
          done;
          (* The loop must still serve a second client promptly. *)
          let t0 = Unix.gettimeofday () in
          (match Client.connect cfg.Server.socket_path with
          | Error msg -> Alcotest.fail msg
          | Ok b ->
              Alcotest.(check bool) "ping answered while a is stalled" true
                (Client.request b Jsonl.Ping = Ok Jsonl.Pong);
              Client.close b);
          Alcotest.(check bool) "answered promptly, not after a's backlog"
            true
            (Unix.gettimeofday () -. t0 < 5.);
          (* Nothing was silently dropped: outcomes + explicit sheds
             account for every pipelined request. *)
          let outcomes = ref 0 and shed = ref 0 in
          for _ = 1 to n do
            match Client.recv a with
            | Ok (Jsonl.Outcome _) -> incr outcomes
            | Ok (Jsonl.Rejected { code; _ })
              when code = Jsonl.code_overloaded ->
                incr shed
            | Ok r -> Alcotest.fail ("unexpected: " ^ Jsonl.encode_response r)
            | Error msg -> Alcotest.fail msg
          done;
          Client.close a;
          Alcotest.(check int) "every pipelined request answered" n
            (!outcomes + !shed))

(* The per-request deadline: an event that runs past it is answered
   with an explicit "deadline" rejection and its worker is killed, so
   the event is never journaled — the respawned worker replays an empty
   journal. *)
let test_daemon_deadline_kill () =
  let dir = fresh_dir () in
  let cfg =
    {
      Server.default_config with
      socket_path = Filename.concat dir "d.sock";
      journal_dir = Filename.concat dir "journal";
      deadline_s = Some 0.1;
    }
  in
  let topology = "node a endhost\nnode b endhost\nduplex a b rate=100M\n" in
  let pid = start_daemon cfg in
  Fun.protect
    ~finally:(fun () -> stop_daemon pid)
    (fun () ->
      (match Client.connect cfg.Server.socket_path with
      | Error msg -> Alcotest.fail msg
      | Ok c ->
          (match
             Client.request c
               (Jsonl.Open
                  {
                    session = "late";
                    topology;
                    verify = false;
                    explain = false;
                    cold = false;
                    survivable = None;
                    throttle_s = 0.5;
                  })
           with
          | Ok (Jsonl.Opened _) -> ()
          | _ -> Alcotest.fail "open failed");
          (match Client.request c (Jsonl.Event { text = "query" }) with
          | Ok (Jsonl.Rejected { code; _ }) ->
              Alcotest.(check string) "rejection code" Jsonl.code_deadline code
          | Ok r -> Alcotest.fail ("unexpected: " ^ Jsonl.encode_response r)
          | Error msg -> Alcotest.fail msg);
          Client.close c);
      match
        Client.fingerprint ~socket:cfg.Server.socket_path ~session:"late"
      with
      | Ok (_digest, events) ->
          Alcotest.(check int) "killed event never journaled" 0 events
      | Error msg -> Alcotest.fail msg)

(* Journal replay is exempt from the per-request deadline: a session
   whose events replay slower than the client-facing latency bound must
   still recover instead of being deadline-killed mid-replay and
   restarted under backoff forever. *)
let test_replay_exempt_from_deadline () =
  let dir = fresh_dir () in
  let base =
    {
      Server.default_config with
      socket_path = Filename.concat dir "d.sock";
      journal_dir = Filename.concat dir "journal";
    }
  in
  let topology = "node a endhost\nnode b endhost\nduplex a b rate=100M\n" in
  (* Phase 1: no deadline; a throttled session commits two events that
     take ~0.3s each (the throttle is journaled with the open line, so
     replay pays it too). *)
  let pid = start_daemon base in
  (match Client.connect base.Server.socket_path with
  | Error msg ->
      kill9_daemon pid;
      Alcotest.fail msg
  | Ok c ->
      (match
         Client.request c
           (Jsonl.Open
              {
                session = "slow";
                topology;
                verify = false;
                explain = false;
                cold = false;
                survivable = None;
                throttle_s = 0.3;
              })
       with
      | Ok (Jsonl.Opened _) -> ()
      | _ ->
          kill9_daemon pid;
          Alcotest.fail "open failed");
      for i = 1 to 2 do
        match Client.request c (Jsonl.Event { text = "query" }) with
        | Ok (Jsonl.Outcome _) -> ()
        | _ ->
            kill9_daemon pid;
            Alcotest.fail (Printf.sprintf "query %d failed" i)
      done;
      Client.close c);
  kill9_daemon pid;
  (* Phase 2: restart with a per-request deadline shorter than a single
     replayed event.  Recovery must complete anyway. *)
  let pid = start_daemon { base with deadline_s = Some 0.1 } in
  Fun.protect
    ~finally:(fun () -> stop_daemon pid)
    (fun () ->
      match
        Client.fingerprint ~socket:base.Server.socket_path ~session:"slow"
      with
      | Ok (_digest, events) ->
          Alcotest.(check int) "journal replayed in full" 2 events
      | Error msg -> Alcotest.fail msg)

let open_req ?(cold = false) session topology =
  Jsonl.Open
    {
      session;
      topology;
      verify = false;
      explain = false;
      cold;
      survivable = None;
      throttle_s = 0.;
    }

(* Runs [f] against a fresh daemon's socket and journal directory. *)
let with_daemon f =
  let dir = fresh_dir () in
  let cfg =
    {
      Server.default_config with
      socket_path = Filename.concat dir "d.sock";
      journal_dir = Filename.concat dir "journal";
    }
  in
  mkdirs cfg.Server.journal_dir;
  let pid = start_daemon cfg in
  Fun.protect
    ~finally:(fun () -> stop_daemon pid)
    (fun () ->
      match Client.connect cfg.Server.socket_path with
      | Error msg -> Alcotest.fail msg
      | Ok c ->
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () -> f c cfg.Server.journal_dir))

let check_proto_reject what ?needle resp =
  match resp with
  | Ok (Jsonl.Rejected { code; message }) ->
      Alcotest.(check string) (what ^ ": code") Jsonl.code_proto code;
      Option.iter
        (fun needle ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %S names %S" what message needle)
            true (contains ~needle message))
        needle
  | Ok r -> Alcotest.failf "%s: unexpected %s" what (Jsonl.encode_response r)
  | Error msg -> Alcotest.fail msg

let topology_ab = "node a endhost\nnode b endhost\nduplex a b rate=100M\n"

(* Sessions have one (warm) mode: an open asking for a cold one is
   refused, for a new session and for a live one alike. *)
let test_cold_open_rejected () =
  with_daemon (fun c _journal_dir ->
      check_proto_reject "new session"
        (Client.request c (open_req ~cold:true "s" topology_ab));
      (match Client.request c (open_req "s" topology_ab) with
      | Ok (Jsonl.Opened _) -> ()
      | _ -> Alcotest.fail "warm open failed");
      check_proto_reject "live session"
        (Client.request c (open_req ~cold:true "s" topology_ab)))

(* Recovery fails closed: a journal whose first line is not a warm
   session open is refused with [proto] naming the file, no session is
   registered and the file is left byte-for-byte as it was. *)
let test_journal_recovery_fails_closed () =
  with_daemon (fun c journal_dir ->
      let event = Jsonl.encode_request (Jsonl.Event { text = "query" }) in
      List.iter
        (fun (session, first) ->
          let path = Journal.file ~dir:journal_dir ~session in
          let text = first ^ "\n" ^ event ^ "\n" in
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc text);
          check_proto_reject session ~needle:path
            (Client.request c (open_req session topology_ab));
          Alcotest.(check string)
            (session ^ ": journal untouched")
            text
            (In_channel.with_open_bin path In_channel.input_all);
          check_proto_reject (session ^ ": no session registered")
            ~needle:"no session open"
            (Client.request c Jsonl.Summary))
        [
          ("event-first", event);
          ( "cold-open",
            Jsonl.encode_request (open_req ~cold:true "cold-open" topology_ab)
          );
        ])

(* Every line after the open must be an event: a foreign line in the
   middle of a journal is refused the same way, naming the file and the
   line, rather than skipped while the events around it are replayed. *)
let test_journal_recovery_foreign_line () =
  with_daemon (fun c journal_dir ->
      let session = "foreign-middle" in
      let path = Journal.file ~dir:journal_dir ~session in
      let event = Jsonl.encode_request (Jsonl.Event { text = "query" }) in
      let text =
        String.concat "\n"
          [
            Jsonl.encode_request (open_req session topology_ab);
            event;
            "{\"not\": \"a request\"}";
            event;
          ]
        ^ "\n"
      in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc text);
      check_proto_reject session
        ~needle:(path ^ ": line 3 is not an event")
        (Client.request c (open_req session topology_ab));
      Alcotest.(check string) "journal untouched" text
        (In_channel.with_open_bin path In_channel.input_all);
      check_proto_reject "no session registered" ~needle:"no session open"
        (Client.request c Jsonl.Summary))

(* A fresh journal under not-yet-existing directories: each created
   directory's parent is synced as it is made, and the journal
   directory itself once the file exists in it. *)
let test_journal_dir_fsync () =
  let root = fresh_dir () in
  let dir = Filename.concat (Filename.concat root "a") "b" in
  let synced = ref [] in
  let real = !Journal.fsync_dir in
  Journal.fsync_dir := (fun d -> synced := d :: !synced; real d);
  let j, _ =
    Fun.protect
      ~finally:(fun () -> Journal.fsync_dir := real)
      (fun () -> Journal.open_ ~dir ~session:"s")
  in
  Journal.close j;
  Alcotest.(check (list string)) "directories synced, in order"
    [ root; Filename.dirname dir; dir ]
    (List.rev !synced)

let tests =
  [
    Alcotest.test_case "codec: round-trip" `Quick test_codec_roundtrip;
    Alcotest.test_case "codec: canonical form and errors" `Quick
      test_codec_canonical_and_errors;
    Alcotest.test_case "codec: json parser" `Quick test_json_parser;
    Alcotest.test_case "journal: session names" `Quick test_journal_names;
    Alcotest.test_case "journal: torn tail recovery" `Quick
      test_journal_torn_tail;
    Alcotest.test_case "journal: new entries fsync their directory" `Quick
      test_journal_dir_fsync;
    Alcotest.test_case "persistent: lifecycle" `Quick test_persistent_worker;
    Alcotest.test_case "persistent: backoff pacing" `Quick test_backoff;
    Alcotest.test_case "worker: frozen prologue keeps rejects pure" `Quick
      test_worker_frozen_prologue;
    Alcotest.test_case "client: tab-separated event keywords" `Quick
      test_slice_tab_separated;
    Alcotest.test_case "daemon: transcript parity" `Quick
      test_daemon_transcript_parity;
    QCheck_alcotest.to_alcotest prop_kill9_recovery;
    Alcotest.test_case "daemon: overload shedding" `Quick test_daemon_shedding;
    Alcotest.test_case "daemon: stalled client isolation" `Quick
      test_stalled_client_isolation;
    Alcotest.test_case "daemon: deadline kill" `Quick
      test_daemon_deadline_kill;
    Alcotest.test_case "daemon: replay exempt from deadline" `Quick
      test_replay_exempt_from_deadline;
    Alcotest.test_case "daemon: SIGTERM drain" `Quick test_daemon_drain;
    Alcotest.test_case "daemon: cold open rejected" `Quick
      test_cold_open_rejected;
    Alcotest.test_case "daemon: journal recovery fails closed" `Quick
      test_journal_recovery_fails_closed;
    Alcotest.test_case "daemon: journal with a foreign middle line" `Quick
      test_journal_recovery_foreign_line;
  ]
