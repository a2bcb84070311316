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

let m_respawns =
  Gmf_obs.Metrics.counter Gmf_obs.Metrics.default "exec.respawns"

(* The [exec.case] span carries the case's measured duration in a
   caller-owned time domain (lane 1, origin 0): its aggregates are what
   the profile reads. *)
let run ~f x =
  Gmf_obs.Metrics.incr m_cases;
  let t0 = Unix.gettimeofday () in
  let outcome =
    match f x with v -> Ok v | exception e -> Error (Exn (Printexc.to_string e))
  in
  let dur_ns = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9) in
  Gmf_obs.Tracer.emit ~cat:"exec" ~tid:1 Gmf_obs.Tracer.default
    ~name:"exec.case" ~begin_ns:0 ~end_ns:(max 0 dur_ns);
  outcome

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
   survives across events. *)
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

