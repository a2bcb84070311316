(* gmfnetd's event loop: a single-threaded [Unix.select] server
   multiplexing client connections (JSONL over a Unix-domain socket)
   and supervised session workers.

   The three robustness pillars live here:

   - supervision: each session's worker is a [Persistent] process.  A
     crash, a [handle] exception or a missed per-request deadline
     answers the affected request with an explicit rejection, kills
     the worker, and rebuilds it — paced by exponential backoff —
     by replaying the session journal.  The replayed worker is
     byte-identical to the lost one for every committed event.
   - write-ahead journal: an event is journaled (write + fsync) after
     the worker applied it and before the decision goes out.  Any
     decision a client saw survives [kill -9] of the whole daemon.
   - shedding: per-session request queues are bounded; an arrival over
     the cap is answered ["overloaded"] immediately.  Nothing is
     silently dropped and nothing is admitted without a completed,
     journaled analysis. *)

module Jsonl = Scenario_io.Admtrace_jsonl
module Backoff = Persistent.Backoff
module Metrics = Gmf_obs.Metrics

type config = {
  socket_path : string;
  journal_dir : string;
  max_sessions : int;
  queue_cap : int;
  deadline_s : float option;
  backoff_base_s : float;
  backoff_max_s : float;
}

let default_config =
  {
    socket_path = "gmfnetd.sock";
    journal_dir = "gmfnetd.journal";
    max_sessions = 8;
    queue_cap = 64;
    deadline_s = None;
    backoff_base_s = 0.05;
    backoff_max_s = 5.;
  }

let m_requests = Metrics.counter Metrics.default "daemon.requests"
let m_events = Metrics.counter Metrics.default "daemon.events_committed"
let m_replayed = Metrics.counter Metrics.default "daemon.events_replayed"
let m_shed = Metrics.counter Metrics.default "daemon.shed"
let m_deadline_kills = Metrics.counter Metrics.default "daemon.deadline_kills"
let m_crashes = Metrics.counter Metrics.default "daemon.worker_crashes"
let g_sessions = Metrics.gauge Metrics.default "daemon.sessions"
let g_queue = Metrics.gauge Metrics.default "daemon.queue_depth"

type conn = {
  c_fd : Unix.file_descr;  (* non-blocking *)
  c_buf : Buffer.t;  (* inbound bytes, not yet a full line *)
  mutable c_out : string;  (* outbound bytes the socket would not take *)
  mutable c_out_since : float;
      (* last time a write on [c_out] made progress; meaningless while
         [c_out] is empty *)
  mutable c_sess : sess option;
  mutable c_closed : bool;
      (* no further requests; the fd closes once [c_out] drains *)
}

and pending = {
  p_conn : conn option;  (* None: internal journal replay, no reply *)
  p_req : Worker.req;
  p_event : string option;  (* event text to journal on commit *)
}

and sess = {
  s_name : string;
  s_opts : Worker.opts;
  s_topology : string;
  s_journal : Journal.t;
  mutable s_events : string list;  (* journaled event texts, newest first *)
  mutable s_worker : (Worker.req, Worker.resp) Persistent.t option;
  s_backoff : Backoff.b;
  mutable s_inflight : pending option;
  mutable s_deadline : float option;  (* absolute expiry of s_inflight *)
  s_replay : string Queue.t;  (* journaled event texts awaiting re-apply *)
  s_queue : pending Queue.t;  (* bounded client requests *)
}

type t = {
  cfg : config;
  mutable lfd : Unix.file_descr;
  mutable lfd_open : bool;
  mutable conns : conn list;
  sessions : (string, sess) Hashtbl.t;
  mutable draining : bool;
}

(* ---------------- plumbing ---------------- *)

(* Client sockets are non-blocking.  A response is appended to the
   connection's output buffer and flushed opportunistically here, then
   from the [select] writability set — so a client that stops reading
   (send buffer full) can never stall the event loop, the other
   sessions, deadline enforcement or the SIGTERM drain.  Such a client
   is instead disconnected once its backlog trips [out_cap] or sits
   without progress for [write_timeout_s]. *)

let out_cap = 1 lsl 20
let write_timeout_s = 10.

(* The peer is gone or not worth waiting for: forget its backlog so
   [prune_conns] reaps the fd immediately. *)
let drop_conn conn =
  conn.c_out <- "";
  conn.c_closed <- true

let rec flush_conn conn ~now =
  if conn.c_out <> "" then
    match
      Unix.write_substring conn.c_fd conn.c_out 0 (String.length conn.c_out)
    with
    | 0 -> ()
    | n ->
        conn.c_out <- String.sub conn.c_out n (String.length conn.c_out - n);
        conn.c_out_since <- now;
        flush_conn conn ~now
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> flush_conn conn ~now
    | exception _ -> drop_conn conn

let respond _t conn resp =
  if not conn.c_closed then begin
    let now = Unix.gettimeofday () in
    if conn.c_out = "" then conn.c_out_since <- now;
    conn.c_out <- conn.c_out ^ Jsonl.encode_response resp ^ "\n";
    flush_conn conn ~now;
    if String.length conn.c_out > out_cap then drop_conn conn
  end

let fail_pending t p ~code ~message =
  match p.p_conn with
  | Some c -> respond t c (Jsonl.Rejected { code; message })
  | None -> ()

(* In a freshly forked worker, drop the daemon's listening socket and
   client connections so clients see EOF as soon as the daemon itself is
   gone, workers notwithstanding. *)
let close_inherited t () =
  if t.lfd_open then (try Unix.close t.lfd with _ -> ());
  List.iter (fun c -> try Unix.close c.c_fd with _ -> ()) t.conns

(* ---------------- workers ---------------- *)

let refill_replay sess =
  Queue.clear sess.s_replay;
  List.iter (fun l -> Queue.add l sess.s_replay) (List.rev sess.s_events)

(* A live worker for [sess], (re)spawning — and queueing a full journal
   replay — when the previous one is gone and the backoff allows a new
   attempt.  [None] while backing off. *)
let ensure_worker t sess ~now =
  match sess.s_worker with
  | Some w when Persistent.alive w -> Some w
  | prev ->
      if not (Backoff.ready sess.s_backoff ~now) then None
      else begin
        let w =
          match prev with
          | Some w ->
              Persistent.respawn w;
              w
          | None ->
              Persistent.spawn ~on_child:(close_inherited t)
                ~init:(Worker.init ~opts:sess.s_opts ~topology:sess.s_topology)
                ~handle:Worker.handle ()
        in
        sess.s_worker <- Some w;
        refill_replay sess;
        Some w
      end

(* The worker is gone or untrustworthy: answer the victim request
   explicitly, reap, and let the next [pump] respawn under backoff. *)
let worker_failure t sess ~now ~code ~message =
  Metrics.incr m_crashes;
  (match sess.s_inflight with
  | Some p -> fail_pending t p ~code ~message
  | None -> ());
  sess.s_inflight <- None;
  sess.s_deadline <- None;
  (match sess.s_worker with Some w -> Persistent.kill w | None -> ());
  Backoff.note_failure sess.s_backoff ~now

(* Dispatch the session's next piece of work, journal replays first. *)
let pump t sess ~now =
  if
    sess.s_inflight = None
    && not (Queue.is_empty sess.s_replay && Queue.is_empty sess.s_queue)
  then
    match ensure_worker t sess ~now with
    | None -> ()
    | Some w -> (
        let p =
          if not (Queue.is_empty sess.s_replay) then begin
            Metrics.incr m_replayed;
            {
              p_conn = None;
              p_req = Worker.Event_text (Queue.pop sess.s_replay);
              p_event = None;
            }
          end
          else begin
            Metrics.add_gauge g_queue (-1.);
            Queue.pop sess.s_queue
          end
        in
        match Persistent.send w p.p_req with
        | Ok () ->
            sess.s_inflight <- Some p;
            (* The per-request deadline is a client-facing latency
               bound; journal replays ([p_conn = None]) are exempt —
               deadline-killing a replay that runs colder than the
               original request would restart the whole replay under
               backoff, potentially starving recovery forever.
               Replayed analyses therefore run unbounded. *)
            sess.s_deadline <-
              (if p.p_conn = None then None
               else Option.map (fun d -> now +. d) t.cfg.deadline_s)
        | Error e ->
            Metrics.incr m_crashes;
            fail_pending t p ~code:Jsonl.code_crashed
              ~message:(Persistent.error_to_string e);
            Persistent.kill w;
            Backoff.note_failure sess.s_backoff ~now)

let deliver t sess p (r : Worker.resp) =
  match r with
  | Worker.Outcome o ->
      (* Commit order: fsync the journal line before the decision is
         released — a decision a client observed is always durable. *)
      (match p.p_event with
      | Some text ->
          Journal.append sess.s_journal
            (Jsonl.encode_request (Jsonl.Event { text }));
          sess.s_events <- text :: sess.s_events;
          Metrics.incr m_events
      | None -> ());
      (match p.p_conn with
      | Some c ->
          respond t c
            (Jsonl.Outcome
               {
                 seq = o.seq;
                 label = o.label;
                 accepted = o.accepted;
                 text = o.text;
               })
      | None -> ())
  | Worker.Reject message ->
      fail_pending t p ~code:Jsonl.code_parse ~message
  | Worker.Summary_text text -> (
      match p.p_conn with
      | Some c -> respond t c (Jsonl.Summary_is { text })
      | None -> ())
  | Worker.Fingerprint_of f -> (
      match p.p_conn with
      | Some c ->
          respond t c
            (Jsonl.Fingerprint_is { digest = f.digest; events = f.events })
      | None -> ())

let on_worker_readable t sess ~now =
  match sess.s_worker with
  | None -> ()
  | Some w -> (
      match sess.s_inflight with
      | None ->
          (* Readable with nothing outstanding: the worker died while
             idle (EOF).  Reap; the next pump respawns on demand. *)
          ignore (Persistent.recv w);
          Persistent.kill w
      | Some p ->
          let resp = Persistent.recv w in
          sess.s_inflight <- None;
          sess.s_deadline <- None;
          (match resp with
          | Ok r ->
              Backoff.note_success sess.s_backoff;
              deliver t sess p r
          | Error e ->
              (* Crashed mid-request, or [handle] raised: either way the
                 worker's state may be out of step with the journal.
                 Kill it and rebuild from the journal. *)
              Metrics.incr m_crashes;
              fail_pending t p ~code:Jsonl.code_crashed
                ~message:(Persistent.error_to_string e);
              Persistent.kill w;
              Backoff.note_failure sess.s_backoff ~now);
          pump t sess ~now)

(* ---------------- sessions ---------------- *)

let idle sess =
  sess.s_inflight = None
  && Queue.is_empty sess.s_replay
  && Queue.is_empty sess.s_queue

let attached t sess =
  List.exists
    (fun c ->
      (not c.c_closed)
      && match c.c_sess with Some s -> s == sess | None -> false)
    t.conns

let drop_session t sess =
  (match sess.s_worker with Some w -> Persistent.stop w | None -> ());
  Journal.close sess.s_journal;
  Hashtbl.remove t.sessions sess.s_name;
  Metrics.set_gauge g_sessions (float_of_int (Hashtbl.length t.sessions))

(* Evict one idle, unattached session to make room; its journal stays on
   disk, so a later [open] recovers it in full. *)
let evict_idle t =
  let victim =
    Hashtbl.fold
      (fun _ s acc ->
        match acc with
        | Some _ -> acc
        | None -> if idle s && not (attached t s) then Some s else None)
      t.sessions None
  in
  match victim with
  | None -> false
  | Some s ->
      drop_session t s;
      true

(* Recovery is authoritative: an existing journal's open line defines
   topology and options, so replay rebuilds the original session even if
   this re-open drifted.  [Ok None] for a new session, else the options,
   the topology and the event texts.  A journal that does not start with
   a session open, or holds anything but events after it, cannot be
   replayed faithfully: it is refused after a read-only look, so nothing
   is registered and the file stays as it is. *)
let recover_journal t ~session =
  let dir = t.cfg.journal_dir in
  let refuse what =
    Error
      (Printf.sprintf "journal %s: %s; not recovered"
         (Journal.file ~dir ~session) what)
  in
  let rec events lineno acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        match Jsonl.decode_request line with
        | Ok (Jsonl.Event { text }) -> events (lineno + 1) (text :: acc) rest
        | _ -> refuse (Printf.sprintf "line %d is not an event" lineno))
  in
  match Journal.load ~dir ~session with
  | [] -> Ok None
  | first :: rest -> (
      match Jsonl.decode_request first with
      | Ok
          (Jsonl.Open
            { topology; verify; explain; cold = false; survivable; throttle_s;
              _ }) ->
          Result.map
            (fun texts ->
              Some
                ( { Worker.verify; explain; survivable; throttle_s },
                  topology,
                  texts ))
            (events 2 [] rest)
      | _ -> refuse "first line is not a replayable session open")

let handle_open t conn ~now ~session ~topology ~verify ~explain ~survivable
    ~throttle_s =
  if t.draining then
    respond t conn
      (Jsonl.Rejected
         { code = Jsonl.code_shutdown; message = "daemon is draining" })
  else if not (Journal.valid_name session) then
    respond t conn
      (Jsonl.Rejected
         {
           code = Jsonl.code_proto;
           message =
             Printf.sprintf "bad session name %S (want [A-Za-z0-9._-]+)"
               session;
         })
  else if Option.value ~default:0 survivable < 0 then
    (* Every respawned worker's session would refuse it. *)
    respond t conn
      (Jsonl.Rejected
         { code = Jsonl.code_proto; message = "negative survivable budget" })
  else
    match Hashtbl.find_opt t.sessions session with
    | Some sess ->
        (* Re-attach to the live session. *)
        conn.c_sess <- Some sess;
        respond t conn
          (Jsonl.Opened { session; replayed = List.length sess.s_events })
    | None ->
        if
          Hashtbl.length t.sessions >= t.cfg.max_sessions
          && not (evict_idle t)
        then
          respond t conn
            (Jsonl.Rejected
               {
                 code = Jsonl.code_overloaded;
                 message =
                   Printf.sprintf "session table full (%d live)"
                     (Hashtbl.length t.sessions);
               })
        else begin
          (* Validate the prologue parent-side so a bad open fails fast
             instead of as a crash-looping worker. *)
          let probe = Scenario_io.Admtrace.Incremental.create () in
          let prologue_error =
            match Scenario_io.Admtrace.Incremental.feed_text probe topology with
            | Error e ->
                Some (Format.asprintf "%a" Scenario_io.Parse.pp_error e)
            | Ok (_ :: _) -> Some "topology prologue contains events"
            | Ok [] ->
                if Scenario_io.Admtrace.Incremental.in_flow_block probe then
                  Some "topology prologue ends inside a flow block"
                else None
          in
          match prologue_error with
          | Some message ->
              respond t conn
                (Jsonl.Rejected { code = Jsonl.code_parse; message })
          | None -> (
              match recover_journal t ~session with
              | Error message ->
                  respond t conn
                    (Jsonl.Rejected { code = Jsonl.code_proto; message })
              | Ok recovered ->
                  let journal, _ =
                    Journal.open_ ~dir:t.cfg.journal_dir ~session
                  in
                  let opts, topology, event_texts =
                    match recovered with
                    | Some r -> r
                    | None ->
                        Journal.append journal
                          (Jsonl.encode_request
                             (Jsonl.Open
                                {
                                  session;
                                  topology;
                                  verify;
                                  explain;
                                  cold = false;
                                  survivable;
                                  throttle_s;
                                }));
                        ( { Worker.verify; explain; survivable; throttle_s },
                          topology,
                          [] )
                  in
                  let sess =
                    {
                      s_name = session;
                      s_opts = opts;
                      s_topology = topology;
                      s_journal = journal;
                      s_events = List.rev event_texts;
                      s_worker = None;
                      s_backoff =
                        Backoff.create ~base_s:t.cfg.backoff_base_s
                          ~max_s:t.cfg.backoff_max_s ();
                      s_inflight = None;
                      s_deadline = None;
                      s_replay = Queue.create ();
                      s_queue = Queue.create ();
                    }
                  in
                  Hashtbl.replace t.sessions session sess;
                  Metrics.set_gauge g_sessions
                    (float_of_int (Hashtbl.length t.sessions));
                  conn.c_sess <- Some sess;
                  respond t conn
                    (Jsonl.Opened
                       { session; replayed = List.length event_texts });
                  (* Start the recovery replay right away. *)
                  pump t sess ~now)
        end

let enqueue t conn ~now p =
  match conn.c_sess with
  | None ->
      respond t conn
        (Jsonl.Rejected
           {
             code = Jsonl.code_proto;
             message = "no session open on this connection";
           })
  | Some sess ->
      if t.draining then
        respond t conn
          (Jsonl.Rejected
             { code = Jsonl.code_shutdown; message = "daemon is draining" })
      else if Queue.length sess.s_queue >= t.cfg.queue_cap then begin
        (* Bounded queue: shed loudly, never drop silently. *)
        Metrics.incr m_shed;
        respond t conn
          (Jsonl.Rejected
             {
               code = Jsonl.code_overloaded;
               message =
                 Printf.sprintf "session %S queue full (%d pending)"
                   sess.s_name (Queue.length sess.s_queue);
             })
      end
      else begin
        Queue.add p sess.s_queue;
        Metrics.add_gauge g_queue 1.;
        pump t sess ~now
      end

let handle_request t conn line ~now =
  Metrics.incr m_requests;
  match Jsonl.decode_request line with
  | Error message ->
      respond t conn (Jsonl.Rejected { code = Jsonl.code_proto; message })
  | Ok Jsonl.Ping -> respond t conn Jsonl.Pong
  | Ok Jsonl.Close ->
      respond t conn Jsonl.Closed;
      conn.c_closed <- true
  | Ok (Jsonl.Open { cold = true; _ }) ->
      respond t conn
        (Jsonl.Rejected
           {
             code = Jsonl.code_proto;
             message = "cold sessions are not supported; use verify";
           })
  | Ok
      (Jsonl.Open
        {
          session;
          topology;
          verify;
          explain;
          cold = false;
          survivable;
          throttle_s;
        }) ->
      handle_open t conn ~now ~session ~topology ~verify ~explain ~survivable
        ~throttle_s
  | Ok (Jsonl.Event { text }) ->
      enqueue t conn ~now
        {
          p_conn = Some conn;
          p_req = Worker.Event_text text;
          p_event = Some text;
        }
  | Ok Jsonl.Summary ->
      enqueue t conn ~now
        { p_conn = Some conn; p_req = Worker.Summary; p_event = None }
  | Ok Jsonl.Fingerprint ->
      enqueue t conn ~now
        { p_conn = Some conn; p_req = Worker.Fingerprint; p_event = None }

(* ---------------- connection reads ---------------- *)

let process_lines t conn ~now =
  let rec go () =
    if not conn.c_closed then begin
      let s = Buffer.contents conn.c_buf in
      match String.index_opt s '\n' with
      | None -> ()
      | Some i ->
          let line = String.sub s 0 i in
          Buffer.clear conn.c_buf;
          Buffer.add_substring conn.c_buf s (i + 1) (String.length s - i - 1);
          let line = String.trim line in
          if line <> "" then handle_request t conn line ~now;
          go ()
    end
  in
  go ()

let on_conn_readable t conn ~now =
  let bytes = Bytes.create 4096 in
  match Unix.read conn.c_fd bytes 0 (Bytes.length bytes) with
  | 0 -> drop_conn conn
  | n ->
      Buffer.add_subbytes conn.c_buf bytes 0 n;
      process_lines t conn ~now
  | exception
      Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      ()
  | exception _ -> drop_conn conn

(* ---------------- main loop ---------------- *)

let stop_requested = ref false

let all_idle t = Hashtbl.fold (fun _ s acc -> acc && idle s) t.sessions true

(* A closed connection's fd lingers until its output buffer drains, so
   a [close] request's [closed] response still reaches the client. *)
let prune_conns t =
  let closed, open_ =
    List.partition (fun c -> c.c_closed && c.c_out = "") t.conns
  in
  List.iter (fun c -> try Unix.close c.c_fd with _ -> ()) closed;
  t.conns <- open_

let all_flushed t = List.for_all (fun c -> c.c_out = "") t.conns

let rec loop t =
  if !stop_requested && not t.draining then begin
    (* Graceful drain: stop accepting, finish queued work, then exit. *)
    t.draining <- true;
    if t.lfd_open then begin
      (try Unix.close t.lfd with _ -> ());
      t.lfd_open <- false
    end
  end;
  prune_conns t;
  if t.draining && all_idle t && all_flushed t then ()
  else begin
    let now = Unix.gettimeofday () in
    (* Expired per-request deadlines: kill, answer, backoff-respawn. *)
    Hashtbl.iter
      (fun _ sess ->
        match sess.s_deadline with
        | Some d when now >= d ->
            Metrics.incr m_deadline_kills;
            worker_failure t sess ~now ~code:Jsonl.code_deadline
              ~message:"per-request deadline expired"
        | _ -> ())
      t.sessions;
    (* Clients whose reads stalled long enough that their backlog made
       no progress: disconnect them rather than hold their output (and,
       during a drain, the daemon's exit) hostage. *)
    List.iter
      (fun c ->
        if c.c_out <> "" && now -. c.c_out_since > write_timeout_s then
          drop_conn c)
      t.conns;
    (* Dispatch anything dispatchable (also retries expired backoffs). *)
    Hashtbl.iter (fun _ sess -> pump t sess ~now) t.sessions;
    let rfds = ref [] in
    if t.lfd_open then rfds := t.lfd :: !rfds;
    List.iter (fun c -> if not c.c_closed then rfds := c.c_fd :: !rfds) t.conns;
    let wfds =
      List.filter_map
        (fun c -> if c.c_out <> "" then Some c.c_fd else None)
        t.conns
    in
    let worker_fds = ref [] in
    Hashtbl.iter
      (fun _ sess ->
        match sess.s_worker with
        | Some w when Persistent.alive w -> (
            match Persistent.fd w with
            | Some fd ->
                rfds := fd :: !rfds;
                worker_fds := (fd, sess) :: !worker_fds
            | None -> ())
        | _ -> ())
      t.sessions;
    (* Sleep until the nearest deadline / backoff retry, 0.5s at most so
       signal flags are polled promptly. *)
    let timeout = ref 0.5 in
    let shrink v = if v < !timeout then timeout := max 0.01 v in
    Hashtbl.iter
      (fun _ sess ->
        (match sess.s_deadline with
        | Some d -> shrink (d -. now)
        | None -> ());
        if sess.s_inflight = None && not (idle sess) then
          (* Work waiting on a backoff window. *)
          shrink (Backoff.next_try sess.s_backoff -. now))
      t.sessions;
    match Unix.select !rfds wfds [] !timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop t
    | ready, writable, _ ->
        let now = Unix.gettimeofday () in
        List.iter
          (fun fd ->
            match List.find_opt (fun c -> c.c_fd = fd) t.conns with
            | Some c -> flush_conn c ~now
            | None -> ())
          writable;
        List.iter
          (fun fd ->
            if t.lfd_open && fd = t.lfd then begin
              match Unix.accept t.lfd with
              | cfd, _ ->
                  Unix.set_nonblock cfd;
                  t.conns <-
                    {
                      c_fd = cfd;
                      c_buf = Buffer.create 256;
                      c_out = "";
                      c_out_since = 0.;
                      c_sess = None;
                      c_closed = false;
                    }
                    :: t.conns
              | exception _ -> ()
            end
            else
              match List.assoc_opt fd !worker_fds with
              | Some sess -> on_worker_readable t sess ~now
              | None -> (
                  match
                    List.find_opt (fun c -> c.c_fd = fd && not c.c_closed)
                      t.conns
                  with
                  | Some c -> on_conn_readable t c ~now
                  | None -> ()))
          ready;
        loop t
  end

let shutdown t =
  Hashtbl.iter
    (fun _ sess ->
      (match sess.s_inflight with
      | Some p ->
          fail_pending t p ~code:Jsonl.code_shutdown ~message:"daemon exiting"
      | None -> ());
      Queue.iter
        (fun p ->
          fail_pending t p ~code:Jsonl.code_shutdown ~message:"daemon exiting")
        sess.s_queue;
      Queue.clear sess.s_queue;
      (match sess.s_worker with Some w -> Persistent.stop w | None -> ());
      Journal.close sess.s_journal)
    t.sessions;
  Hashtbl.reset t.sessions;
  (* One best-effort flush so goodbye responses reach clients that are
     keeping up; anything the sockets will not take right now is lost. *)
  let now = Unix.gettimeofday () in
  List.iter (fun c -> flush_conn c ~now) t.conns;
  List.iter (fun c -> try Unix.close c.c_fd with _ -> ()) t.conns;
  t.conns <- [];
  if t.lfd_open then begin
    (try Unix.close t.lfd with _ -> ());
    t.lfd_open <- false
  end;
  try Unix.unlink t.cfg.socket_path with _ -> ()

let check_config cfg =
  if cfg.max_sessions < 1 then invalid_arg "Server.run: max_sessions < 1";
  if cfg.queue_cap < 1 then invalid_arg "Server.run: queue_cap < 1";
  (match cfg.deadline_s with
  | Some d when not (Float.is_finite d && d > 0.) ->
      invalid_arg "Server.run: deadline_s not finite and > 0"
  | _ -> ());
  if cfg.socket_path = "" then invalid_arg "Server.run: empty socket_path"

let run ?(on_ready = fun () -> ()) cfg =
  check_config cfg;
  stop_requested := false;
  let prev_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let stopper = Sys.Signal_handle (fun _ -> stop_requested := true) in
  let prev_term = Sys.signal Sys.sigterm stopper in
  let prev_int = Sys.signal Sys.sigint stopper in
  (try Unix.unlink cfg.socket_path with _ -> ());
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let t =
    {
      cfg;
      lfd;
      lfd_open = true;
      conns = [];
      sessions = Hashtbl.create 8;
      draining = false;
    }
  in
  let finally () =
    shutdown t;
    Sys.set_signal Sys.sigpipe prev_pipe;
    Sys.set_signal Sys.sigterm prev_term;
    Sys.set_signal Sys.sigint prev_int
  in
  Fun.protect ~finally (fun () ->
      Unix.bind lfd (Unix.ADDR_UNIX cfg.socket_path);
      Unix.listen lfd 16;
      on_ready ();
      loop t)
