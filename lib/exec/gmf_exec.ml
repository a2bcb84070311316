type t = Seq | Pool of { jobs : int }

let seq = Seq
let pool jobs = Pool { jobs }
let of_jobs jobs = if jobs <= 1 then Seq else pool jobs

let resolve_jobs cli =
  match cli with
  | Some n -> n
  | None -> (
      match Option.bind (Sys.getenv_opt "GMFNET_JOBS") (fun s ->
                int_of_string_opt (String.trim s))
      with
      | Some n when n > 0 -> n
      | _ -> 1)

type error = Crashed of string | Exn of string

let error_to_string = function
  | Crashed msg -> Printf.sprintf "crash: %s" msg
  | Exn msg -> Printf.sprintf "exception: %s" msg

type 'b outcome = ('b, error) result

module Memo = struct
  type 'b t = (string, 'b) Hashtbl.t

  let create () = Hashtbl.create 64
  let find = Hashtbl.find_opt
  let add = Hashtbl.replace
  let size = Hashtbl.length
  let clear = Hashtbl.reset
end

let m_cases = Gmf_obs.Metrics.counter Gmf_obs.Metrics.default "exec.cases"

let m_workers = Gmf_obs.Metrics.counter Gmf_obs.Metrics.default "exec.workers"

let m_respawns =
  Gmf_obs.Metrics.counter Gmf_obs.Metrics.default "exec.respawns"

let m_pool_exhausted =
  Gmf_obs.Metrics.counter Gmf_obs.Metrics.default "exec.pool_exhausted"

(* Worker-side observability recordings, marshalled back with each case
   result.  The metrics dump replays samples into the parent registry
   ({!Gmf_obs.Metrics.absorb}), so pooled totals — bucket counts and
   percentiles included — match a sequential run exactly; worker spans are
   re-emitted into the parent tracer in their case-local time domain. *)
type telemetry = {
  tm_metrics : Gmf_obs.Metrics.dump;
  tm_spans : Gmf_obs.Tracer.span list;
}

let absorb_telemetry tm =
  Gmf_obs.Metrics.absorb Gmf_obs.Metrics.default tm.tm_metrics;
  List.iter
    (fun (s : Gmf_obs.Tracer.span) ->
      Gmf_obs.Tracer.emit ~cat:s.Gmf_obs.Tracer.cat ~tid:s.Gmf_obs.Tracer.tid
        Gmf_obs.Tracer.default ~name:s.Gmf_obs.Tracer.name
        ~begin_ns:s.Gmf_obs.Tracer.begin_ns
        ~end_ns:(s.Gmf_obs.Tracer.begin_ns + s.Gmf_obs.Tracer.dur_ns))
    tm.tm_spans

(* Parent-side span for one completed case.  Durations are measured
   where the case ran (possibly a worker process) and recorded here in
   a caller-owned time domain (lane 1, origin 0), so aggregates stay
   correct under both backends. *)
let emit_case_span dur_s =
  let dur_ns = int_of_float (dur_s *. 1e9) in
  let dur_ns = if dur_ns < 0 then 0 else dur_ns in
  Gmf_obs.Tracer.emit ~cat:"exec" ~tid:1 Gmf_obs.Tracer.default
    ~name:"exec.case" ~begin_ns:0 ~end_ns:dur_ns

(* Outcome plus wall-clock duration in seconds. *)
let eval_one ~f x =
  let t0 = Unix.gettimeofday () in
  let outcome =
    match f x with v -> Ok v | exception e -> Error (Exn (Printexc.to_string e))
  in
  (outcome, Unix.gettimeofday () -. t0)

(* ------------------------------------------------------------------ *)
(* Supervised workers                                                  *)
(* ------------------------------------------------------------------ *)

let reap_message pid =
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED c -> Printf.sprintf "worker exited with code %d" c
  | _, Unix.WSIGNALED s -> Printf.sprintf "worker killed by signal %d" s
  | _, Unix.WSTOPPED s -> Printf.sprintf "worker stopped by signal %d" s
  | exception Unix.Unix_error _ -> "worker vanished"

(* The one forked-worker implementation.  A worker is forked around an
   [init] payload and then serves marshalled requests until it is
   stopped, killed, or crashes.  The daemon keeps one per admission
   session, so the topology ships exactly once and the session state
   survives across events; the case pool below forks up to [jobs] per
   batch, each inheriting the batch's cases by memory. *)
module Persistent = struct
  type 'req message = Request of 'req | Quit

  type proc = {
    pid : int;
    to_child : out_channel;
    from_child : in_channel;
    fd : Unix.file_descr;  (* read side, for select *)
  }

  type ('req, 'resp) t = {
    body : Unix.file_descr -> Unix.file_descr -> unit;
    on_child : unit -> unit;
    mutable proc : proc option;
    mutable respawns : int;
  }

  (* Child-side serve loop: one [init], then strict request/reply — one
     message per request, so the parent's channel buffer never holds
     more than one response and select-readability stays truthful.  An
     exception from [handle] is caught and shipped back as an [Error]
     string (the worker stays up); an exception from [init] or a
     truncated stream ends the child, which the parent observes as EOF
     ([Crashed]). *)
  let serve ~init ~handle task_r res_w =
    let ic = Unix.in_channel_of_descr task_r in
    let oc = Unix.out_channel_of_descr res_w in
    let st = init () in
    let rec loop () =
      match (Marshal.from_channel ic : _ message) with
      | exception End_of_file -> ()
      | Quit -> ()
      | Request req ->
          let result =
            match handle st req with
            | v -> Ok v
            | exception e -> Error (Printexc.to_string e)
          in
          Marshal.to_channel oc (result : (_, string) result)
            [ Marshal.Closures ];
          flush oc;
          loop ()
    in
    loop ()

  let spawn_proc ~on_child body =
    let task_r, task_w = Unix.pipe () in
    let res_r, res_w = Unix.pipe () in
    flush stdout;
    flush stderr;
    match Unix.fork () with
    | 0 ->
        (try
           Unix.close task_w;
           Unix.close res_r;
           on_child ();
           body task_r res_w
         with _ -> ());
        Unix._exit 0
    | pid ->
        Unix.close task_r;
        Unix.close res_w;
        Gmf_obs.Metrics.incr m_workers;
        {
          pid;
          to_child = Unix.out_channel_of_descr task_w;
          from_child = Unix.in_channel_of_descr res_r;
          fd = res_r;
        }

  let spawn ?(on_child = fun () -> ()) ~init ~handle () =
    let body task_r res_w = serve ~init ~handle task_r res_w in
    { body; on_child; proc = Some (spawn_proc ~on_child body); respawns = 0 }

  let alive t = t.proc <> None
  let fd t = Option.map (fun p -> p.fd) t.proc
  let respawn_count t = t.respawns

  (* Reap a dead child: close both channels, collect its exit status
     message, drop the proc.  Safe to call once per death. *)
  let crashed t =
    match t.proc with
    | None -> "worker not running"
    | Some p ->
        t.proc <- None;
        (try close_out p.to_child with _ -> ());
        (try close_in p.from_child with _ -> ());
        reap_message p.pid

  let kill t =
    match t.proc with
    | None -> ()
    | Some p ->
        (try Unix.kill p.pid Sys.sigkill with _ -> ());
        ignore (crashed t)

  (* Writing to a dead child raises EPIPE only if SIGPIPE is not fatal;
     mask it for the duration of the write so the failure surfaces as a
     [Crashed] result instead of killing the calling process. *)
  let without_sigpipe f =
    if not Sys.unix then f ()
    else begin
      let old =
        try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore) with _ -> None
      in
      let finally () =
        match old with
        | Some h -> ( try Sys.set_signal Sys.sigpipe h with _ -> ())
        | None -> ()
      in
      Fun.protect ~finally f
    end

  let write p msg =
    without_sigpipe (fun () ->
        Marshal.to_channel p.to_child (msg : _ message) [ Marshal.Closures ];
        flush p.to_child)

  let stop t =
    match t.proc with
    | None -> ()
    | Some p ->
        (try write p Quit with _ -> ());
        ignore (crashed t)

  let send t req =
    match t.proc with
    | None -> Error (Crashed "worker not running")
    | Some p -> (
        match write p (Request req) with
        | () -> Ok ()
        | exception _ -> Error (Crashed (crashed t)))

  let recv t =
    match t.proc with
    | None -> Error (Crashed "worker not running")
    | Some p -> (
        match (Marshal.from_channel p.from_child : (_, string) result) with
        | Ok v -> Ok v
        | Error msg -> Error (Exn msg)
        | exception _ -> Error (Crashed (crashed t)))

  let respawn t =
    kill t;
    t.proc <- Some (spawn_proc ~on_child:t.on_child t.body);
    t.respawns <- t.respawns + 1;
    Gmf_obs.Metrics.incr m_respawns

  (* Exponential-backoff bookkeeping for a supervisor deciding when a
     crashed worker may be respawned.  Pure arithmetic on caller-supplied
     clocks, so tests can drive it deterministically. *)
  module Backoff = struct
    type b = {
      base_s : float;
      max_s : float;
      mutable failures : int;
      mutable not_before : float;
    }

    let create ?(base_s = 0.1) ?(max_s = 30.) () =
      if base_s <= 0. || max_s < base_s then
        invalid_arg "Gmf_exec.Persistent.Backoff.create";
      { base_s; max_s; failures = 0; not_before = 0. }

    let note_failure b ~now =
      b.failures <- b.failures + 1;
      let delay = b.base_s *. (2. ** float_of_int (min 16 (b.failures - 1))) in
      let delay = if delay > b.max_s then b.max_s else delay in
      b.not_before <- now +. delay

    let note_success b =
      b.failures <- 0;
      b.not_before <- 0.

    let ready b ~now = now >= b.not_before
    let next_try b = b.not_before
    let failures b = b.failures
  end
end

(* ------------------------------------------------------------------ *)
(* Case pool                                                           *)
(* ------------------------------------------------------------------ *)

(* A pool worker and the index of the case it is evaluating. *)
type 'r slot = { w : (int, 'r) Persistent.t; mutable current : int option }

(* A pool worker's handler for one case.  The fork copied the parent's
   accumulated recordings; zero them at case start so the telemetry sent
   back carries exactly this case's activity, once. *)
let eval_in_worker ~f x =
  let reg = Gmf_obs.Metrics.default in
  let tracer = Gmf_obs.Tracer.default in
  let obs_on = Gmf_obs.Metrics.enabled reg || Gmf_obs.Tracer.enabled tracer in
  if obs_on then begin
    Gmf_obs.Metrics.reset reg;
    Gmf_obs.Tracer.reset tracer
  end;
  let outcome, dur = eval_one ~f x in
  let telemetry =
    if obs_on then
      Some
        {
          tm_metrics = Gmf_obs.Metrics.dump reg;
          tm_spans = Gmf_obs.Tracer.spans tracer;
        }
    else None
  in
  (outcome, dur, telemetry)

(* Drive up to [jobs] workers over [cases].

   [record idx outcome dur] stores a collected result, exactly once per
   index.  A worker crash records [Crashed] for the case it was
   running, and the worker is respawned while work remains; a batch
   forks at most one process per case.  Ordering of [record] calls is
   scheduling-dependent — determinism is the caller's job (it stores by
   index). *)
let pool_run ~jobs ~f ~record (cases : 'a array) =
  let n = Array.length cases in
  let next = ref 0 in
  let next_case () = if !next < n then Some !next else None in
  let handle () idx = eval_in_worker ~f cases.(idx) in
  let forks_left = ref n in
  let slots = ref [] in
  (* An idle live worker, else a fork: a new worker while the pool is
     below [jobs], then a respawn of a dead one. *)
  let worker () =
    let live s = Persistent.alive s.w in
    match List.find_opt (fun s -> live s && s.current = None) !slots with
    | Some _ as s -> s
    | None when !forks_left <= 0 -> None
    | None when List.length !slots < jobs ->
        decr forks_left;
        let w = Persistent.spawn ~init:ignore ~handle () in
        let s = { w; current = None } in
        slots := s :: !slots;
        Some s
    | None -> (
        match List.find_opt (fun s -> not (live s)) !slots with
        | Some s ->
            decr forks_left;
            Persistent.respawn s.w;
            Some s
        | None -> None)
  in
  let collect s idx =
    s.current <- None;
    match Persistent.recv s.w with
    | Ok (outcome, dur, telemetry) ->
        Option.iter absorb_telemetry telemetry;
        record idx outcome dur
    | Error e -> record idx (Error e) 0.
  in
  let exhausted_noted = ref false in
  let rec drive () =
    (* Hand every remaining case to a worker while one can be had. *)
    let rec fill () =
      match next_case () with
      | None -> ()
      | Some idx -> (
          match worker () with
          | None -> ()
          | Some s ->
              (match Persistent.send s.w idx with
              | Ok () ->
                  s.current <- Some idx;
                  Gmf_obs.Metrics.incr m_cases;
                  incr next
              | Error _ ->
                  (* The worker died before taking a task (its real
                     failure, if any, was already collected); [idx] goes
                     to another worker. *)
                  ());
              fill ())
    in
    fill ();
    match
      List.filter_map
        (fun s -> Option.map (fun idx -> (s, idx)) s.current)
        !slots
    with
    | [] -> (
        (* Nothing in flight yet no worker to be had: the fork budget is
           spent.  Fail the remaining cases rather than hang. *)
        match next_case () with
        | None -> ()
        | Some idx ->
            if not !exhausted_noted then begin
              exhausted_noted := true;
              Gmf_obs.Metrics.incr m_pool_exhausted
            end;
            record idx (Error (Crashed "worker pool exhausted")) 0.;
            incr next;
            drive ())
    | busy ->
        let fds = List.filter_map (fun (s, _) -> Persistent.fd s.w) busy in
        let ready, _, _ = Unix.select fds [] [] (-1.) in
        List.iter
          (fun (s, idx) ->
            match Persistent.fd s.w with
            | Some fd when List.mem fd ready -> collect s idx
            | _ -> ())
          busy;
        drive ()
  in
  Fun.protect
    ~finally:(fun () -> List.iter (fun s -> Persistent.stop s.w) !slots)
    drive

(* ------------------------------------------------------------------ *)
(* Combinators                                                         *)
(* ------------------------------------------------------------------ *)

let eval_seq ~f x =
  Gmf_obs.Metrics.incr m_cases;
  let outcome, dur = eval_one ~f x in
  emit_case_span dur;
  outcome

let map_cases ?(exec = seq) ~f cases =
  match exec with
  | Pool { jobs }
    when jobs > 1 && Sys.unix && List.compare_length_with cases 1 > 0 ->
      let arr = Array.of_list cases in
      let results = Array.make (Array.length arr) None in
      let record i outcome dur =
        results.(i) <- Some outcome;
        emit_case_span dur
      in
      pool_run ~jobs ~f ~record arr;
      Array.to_list
        (Array.map
           (function
             | Some o -> o
             | None -> Error (Crashed "case never completed"))
           results)
  | Seq | Pool _ -> List.map (eval_seq ~f) cases
