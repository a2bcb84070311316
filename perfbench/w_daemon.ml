(* daemon-voip: one op is one synchronous [Gmf_daemon.Client.request]
   event against a forked gmfnetd (socket -> supervised session worker
   -> fsync'd journal append -> decision).  The trace is a single-switch
   VoIP churn of at most 10 live flows: a 10-flow base, then alternating
   "remove the oldest" and "admit a new call".  The seed draws each
   call's endpoints, priority and period.

   Every response is checked against an in-process replica session fed
   the same event text through the same incremental parser (outside the
   timing); at the end the daemon's fingerprint and summary must equal
   the replica's.  For the seeds in [Expected.daemon] the replica's
   transcript and fingerprint after [check_events] churn events are
   recorded as well. *)

open Common
module Jsonl = Scenario_io.Admtrace_jsonl
module Session = Gmf_admctl.Session
module Replay = Gmf_admctl.Replay
module Incremental = Scenario_io.Admtrace.Incremental

let hosts = 6
let base_flows = 10
let check_events = 1000
let session_name = "bench"

let prologue =
  let b = Buffer.create 512 in
  for h = 0 to hosts - 1 do
    Printf.bprintf b "node h%d endhost\n" h
  done;
  Buffer.add_string b "node sw switch\n";
  for h = 0 to hosts - 1 do
    Printf.bprintf b "duplex h%d sw rate=100M prop=2us\n" h
  done;
  Printf.bprintf b "switch sw ports=%d cpus=1 croute=2.7us csend=1us\n" hosts;
  Buffer.contents b

(* The event texts, generated on demand: [event i] is the i-th event of
   the trace, base admits first. *)
let events ~seed =
  let rng = rng_of_seed ~salt:5 seed in
  let admits = Hashtbl.create 1024 in
  let admit id =
    match Hashtbl.find_opt admits id with
    | Some t -> t
    | None ->
        (* Drawn in id order: [event] asks for ids in increasing order. *)
        let src = Random.State.int rng hosts in
        let dst = (src + 1 + Random.State.int rng (hosts - 1)) mod hosts in
        let prio = Random.State.int rng 8 in
        let period = [| 10; 20; 30 |].(Random.State.int rng 3) in
        let t =
          Printf.sprintf
            "admit flow v%d from=h%d to=h%d route=h%d,sw,h%d prio=%d \
             encap=rtp\n\
            \  frame period=%dms deadline=150ms payload=160B\n\
             end"
            id src dst src dst prio period
        in
        Hashtbl.replace admits id t;
        t
  in
  fun i ->
    if i < base_flows then admit i
    else
      let k = i - base_flows in
      if k mod 2 = 0 then Printf.sprintf "remove v%d" (k / 2)
      else admit (base_flows + (k / 2))

(* The in-process replica: what a session worker does with one request
   text, rendered as the daemon renders its outcome. *)
type replica = { inc : Incremental.t; session : Session.t }

let replica () =
  let inc = Incremental.create () in
  (match Incremental.feed_text inc prologue with
  | Ok [] -> ()
  | _ -> failwith "daemon prologue");
  Incremental.freeze inc;
  let session =
    Session.create ~switches:(Incremental.switches inc)
      ~topo:(Incremental.topology inc) ()
  in
  { inc; session }

let replica_apply r text =
  match Incremental.feed_text r.inc text with
  | Ok evs ->
      let outcomes =
        List.map
          (fun (_, ev) -> Session.apply r.session (Replay.session_event ev))
          evs
      in
      List.nth outcomes (List.length outcomes - 1),
      String.concat "\n" (List.map Replay.outcome_line outcomes)
  | Error e ->
      failwith (Format.asprintf "replica: %a" Scenario_io.Parse.pp_error e)

(* Replica-only digests after [check_events] churn events — what
   [Expected.daemon] records per seed. *)
let replica_digests ~seed =
  let ev = events ~seed and r = replica () in
  let b = Buffer.create 65536 in
  for i = 0 to base_flows + check_events - 1 do
    let _, text = replica_apply r (ev i) in
    Buffer.add_string b text;
    Buffer.add_char b '\n'
  done;
  (digest (Buffer.contents b), Session.fingerprint r.session)

(* ------------------------------------------------------------------ *)
(* The daemon process                                                 *)
(* ------------------------------------------------------------------ *)

let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error _ -> ()

type daemon = { pid : int; dir : string; client : Gmf_daemon.Client.t }

let request c req =
  match Gmf_daemon.Client.request c req with
  | Ok r -> r
  | Error msg -> failwith ("daemon: " ^ msg)

(* Fork gmfnetd, wait until it listens, connect and open the session.
   The socket path is relative to the working directory so it stays
   short. *)
let start ~workdir =
  let dir = Filename.concat workdir (Printf.sprintf "d%d" (Unix.getpid ())) in
  remove_tree dir;
  Unix.mkdir dir 0o755;
  let socket = Filename.concat dir "s" in
  let rd, wr = Unix.pipe ~cloexec:true () in
  flush_all ();
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      (try
         Gmf_daemon.Server.run
           ~on_ready:(fun () -> ignore (Unix.write_substring wr "r" 0 1))
           {
             Gmf_daemon.Server.default_config with
             socket_path = socket;
             journal_dir = Filename.concat dir "journal";
           }
       with _ -> ());
      Unix._exit 0
  | pid -> (
      Unix.close wr;
      let ready =
        match Unix.select [ rd ] [] [] 30. with
        | [ _ ], _, _ -> Unix.read rd (Bytes.create 1) 0 1 = 1
        | _ -> false
      in
      Unix.close rd;
      let stop () =
        (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
      in
      if not ready then begin
        stop ();
        failwith "gmfnetd did not come up"
      end;
      match Gmf_daemon.Client.connect socket with
      | Error msg ->
          stop ();
          failwith msg
      | Ok client -> (
          let d = { pid; dir; client } in
          match
            request client
              (Jsonl.Open
                 {
                   session = session_name;
                   topology = prologue;
                   verify = false;
                   explain = false;
                   cold = false;
                   survivable = None;
                   throttle_s = 0.;
                 })
          with
          | Jsonl.Opened _ -> d
          | _ ->
              stop ();
              failwith "daemon refused to open the session"))

let stop d =
  Gmf_daemon.Client.close d.client;
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] d.pid);
  remove_tree d.dir

(* The session worker is the daemon's child process. *)
let worker_peak_rss_mb d =
  let children =
    try
      In_channel.with_open_text
        (Printf.sprintf "/proc/%d/task/%d/children" d.pid d.pid)
        In_channel.input_all
    with Sys_error _ -> ""
  in
  match String.split_on_char ' ' (String.trim children) with
  | pid :: _ when pid <> "" -> peak_rss_mb ~pid ()
  | _ -> peak_rss_mb ~pid:(string_of_int d.pid) ()

(* ------------------------------------------------------------------ *)
(* The run                                                            *)
(* ------------------------------------------------------------------ *)

let setups = 9
let block = 200

let run ~workdir ~seed ~seconds ~traced =
  let ev = events ~seed in
  (* Set-up, [setups] times: fork, socket ready, open, base admits.  The
     last daemon stays up for the churn. *)
  let setup () =
    let t0 = now_ns () in
    let d = start ~workdir in
    for i = 0 to base_flows - 1 do
      ignore (request d.client (Jsonl.Event { text = ev i }))
    done;
    (d, now_ns () - t0)
  in
  let setup_s = ref [] in
  let record ns =
    Speed.record (float_of_int ns /. 1e9) (fun v -> setup_s := v :: !setup_s)
  in
  Speed.probe ();
  for _ = 2 to setups do
    let d, ns = setup () in
    record ns;
    stop d
  done;
  let d, ns = setup () in
  record ns;
  Speed.probe ();
  Fun.protect
    ~finally:(fun () -> stop d)
    (fun () ->
      let r = replica () in
      let transcript = Buffer.create 65536 in
      for i = 0 to base_flows - 1 do
        let _, text = replica_apply r (ev i) in
        Buffer.add_string transcript text;
        Buffer.add_char transcript '\n'
      done;
      let journal, _ =
        Gmf_daemon.Journal.open_ ~dir:(Filename.concat d.dir "scratch")
          ~session:"probe"
      in
      let problems = ref [] and observed = ref [] in
      let problem msg = problems := msg :: !problems in
      (* Plain round trips scaled to the reference host, and as measured. *)
      let lat = ref [] and lat_raw = ref [] in
      let traced_rtt = ref [] and apply = ref [] in
      let journal_ms = ref [] and codec_us = ref [] and deltas = ref [] in
      let attempted = ref 0 and failed = ref 0 in
      let t_start = now_ns () in
      let i = ref 0 in
      while
        !i < check_events + (if traced then 2 * block else 0)
        || float_of_int (now_ns () - t_start) /. 1e9 < seconds
      do
        let tracing = traced && !i / block mod 2 = 1 in
        let text = ev (base_flows + !i) in
        let req = Jsonl.Event { text } in
        let sp name f = if tracing then Trace.span ~op:!i name f else f () in
        isolate ();
        Speed.tick ();
        incr attempted;
        (match
           time (fun () ->
               sp "daemon.rtt" (fun () -> Gmf_daemon.Client.request d.client req))
         with
        | Ok resp, ns ->
            let ms = ms_of_ns ns in
            if tracing then traced_rtt := ms :: !traced_rtt
            else begin
              lat_raw := ms :: !lat_raw;
              Speed.record ms (fun v -> lat := v :: !lat)
            end;
            let (o, expected), hits =
              if not tracing then (replica_apply r text, 0)
              else
                let (out, ns), counts =
                  Loop.counted (fun () ->
                      time (fun () ->
                          sp "session.apply" (fun () -> replica_apply r text)))
                in
                deltas := counts :: !deltas;
                apply := ms_of_ns ns :: !apply;
                (out, Loop.memo_hits counts)
            in
            if !i < check_events then begin
              Buffer.add_string transcript expected;
              Buffer.add_char transcript '\n'
            end;
            (match resp with
            | Jsonl.Outcome { seq; label; accepted; text = got }
              when seq = o.Session.seq && label = o.Session.label
                   && accepted = o.Session.accepted && got = expected
                   && hits = 0 ->
                ()
            | _ -> incr failed);
            if tracing then begin
              let line = Jsonl.encode_request req in
              let (), ns =
                time (fun () ->
                    sp "journal.append" (fun () ->
                        Gmf_daemon.Journal.append journal line))
              in
              journal_ms := ms_of_ns ns :: !journal_ms;
              (* Encode and decode one request and one response, 100 times
                 over: a single pass is below the clock's resolution. *)
              let reps = 100 in
              let (), ns =
                time (fun () ->
                    sp "codec" (fun () ->
                        for _ = 1 to reps do
                          ignore (Jsonl.decode_request (Jsonl.encode_request req));
                          ignore
                            (Jsonl.decode_response (Jsonl.encode_response resp))
                        done))
              in
              codec_us := (float_of_int ns /. 1e3 /. float_of_int reps) :: !codec_us
            end
        | Error msg, _ ->
            prerr_endline ("request failed: " ^ msg);
            incr failed
        | exception e ->
            prerr_endline ("request raised: " ^ Printexc.to_string e);
            incr failed);
        incr i;
        if !i = check_events then begin
          let t = digest (Buffer.contents transcript)
          and f = Session.fingerprint r.session in
          observed := [ ("transcript", t); ("fingerprint", f) ];
          match List.find_opt (fun (s, _, _) -> s = seed) Expected.daemon with
          | Some (_, t', f') when t <> t' || f <> f' ->
              problem "transcript or fingerprint differs from the recorded one"
          | _ -> ()
        end
      done;
      Speed.probe ();
      Gmf_daemon.Journal.close journal;
      (* The daemon's committed state must be the replica's. *)
      let summary = Session.summary r.session in
      (match request d.client Jsonl.Fingerprint with
      | Jsonl.Fingerprint_is { digest; events }
        when digest = Session.fingerprint r.session
             && events = summary.Session.events ->
          ()
      | _ -> problem "daemon fingerprint differs from the replica's");
      (match request d.client Jsonl.Summary with
      | Jsonl.Summary_is { text }
        when text = Format.asprintf "%a" Replay.pp_summary summary ->
          ()
      | _ -> problem "daemon summary differs from the replica's");
      let rss = worker_peak_rss_mb d in
      ignore (request d.client Jsonl.Close);
      let lat = !lat in
      let layers =
        if not traced then []
        else
          Loop.layer_metrics
            [
              ("daemon.rtt_ms", median !traced_rtt);
              ("daemon.apply_ms", median !apply);
              ("daemon.overhead_ms", median !traced_rtt -. median !apply);
              ("journal.append_ms", median !journal_ms);
              ("codec.us", median !codec_us);
              ( "exec.memo_hits",
                float_of_int
                  (List.fold_left (fun a d -> a + Loop.memo_hits d) 0 !deltas) );
              ("lat_p90_ms", percentile 90. !lat_raw);
              ("lat_samples", float_of_int (List.length !lat_raw));
              ("trace.overhead_ratio", median !traced_rtt /. median !lat_raw);
            ]
      in
      {
        attempted = !attempted;
        failed = !failed;
        problems = List.rev !problems;
        observed = !observed;
        e2e =
          [
            ("setup_s", median !setup_s, "s");
            ( "ops_per_s",
              float_of_int (List.length lat) /. (sum lat /. 1e3),
              "1/s" );
            ("lat_p50_ms", median lat, "ms");
            ("peak_rss_mb", rss, "MB");
          ];
        extra =
          [
            ( "input",
              Printf.sprintf
                "single switch, %d hosts, %d base flows, %d churn events" hosts
                base_flows !i );
          ];
        layers;
      })
