(** Client side of the [gmfnetd] protocol: a blocking JSONL connection
    over the daemon's Unix-domain socket, plus the trace driver the
    CLI, the CI smoke job and the benchmarks share.

    All calls are synchronous (send one request, wait for its one
    response) and never raise on I/O problems — errors come back as
    [Error message]. *)

type t

val connect : string -> (t, string) result
(** Connect to the daemon's socket path. *)

val close : t -> unit

val send : t -> Scenario_io.Admtrace_jsonl.request -> (unit, string) result
(** Fire a request without waiting — pipelining, for overload tests. *)

val recv : t -> (Scenario_io.Admtrace_jsonl.response, string) result
(** Read the next response line (blocking). *)

val request :
  t ->
  Scenario_io.Admtrace_jsonl.request ->
  (Scenario_io.Admtrace_jsonl.response, string) result
(** {!send} then {!recv}. *)

val slice_trace : string -> string * string list
(** Split admtrace text into the topology prologue and one chunk per
    event (a directive line, or a flow block through its [end] plus any
    trailing comment lines) — the unit an {!Scenario_io.Admtrace_jsonl.request.Event}
    carries.  Pure line scanning on the event keywords; feed the result
    to the daemon and the stateful parser applies the real grammar. *)

type trace_result = {
  output : string;
      (** Transcript lines, blank line, [summary:] block — byte-identical
          to [gmfnet session] on the same trace when nothing was
          rejected. *)
  mismatches : int;  (** Shadow disagreements ([verify] mode only). *)
  rejected : (string * string) list;
      (** [(code, message)] per refused event (overload shedding, parse
          errors); refused events do not appear in [output]. *)
}

val run_trace :
  socket:string ->
  session:string ->
  ?verify:bool ->
  ?explain:bool ->
  ?survivable:int ->
  ?throttle_s:float ->
  string ->
  (trace_result, string) result
(** Open [session] (topology = the trace's prologue), stream every
    event chunk synchronously, collect the summary, close.  [Error] on
    connection loss or a refused open/summary. *)

val fingerprint :
  socket:string -> session:string -> (string * int, string) result
(** Attach to an existing (possibly journal-recovered) session and
    fetch its state digest and event count.  The fingerprint request is
    queued behind any recovery replay, so the digest reflects the fully
    recovered state. *)
