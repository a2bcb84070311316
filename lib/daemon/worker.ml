(* The daemon's session worker: the closure pair a supervised
   [Persistent] process runs.

   Each worker owns exactly one admission-control session: one
   [Scenario_io.Admtrace.Incremental] parser (the stateful name/id
   table) and one [Gmf_admctl.Session].  The parser lives in the worker
   — not the daemon — so flow-id assignment is part of the replayed
   state: respawning a worker and re-feeding the journal reproduces the
   same ids, outcomes and fingerprint as the uninterrupted run.

   Failure discipline: a grammar error that provably left the parser
   untouched maps to [Reject] (the daemon answers [parse] and keeps the
   worker); anything that may have mutated parser or session state
   out-of-step with the journal — a mid-block error, text ending inside
   a flow block, an exception out of [Session.apply] — raises instead,
   so the supervisor kills the worker and rebuilds it from the journal.
   Dying is always sound here; limping on with divergent state never
   is.  The "provably untouched" half leans on [Incremental.freeze]:
   the parser is frozen right after the prologue, so a topology
   directive smuggled into an event request errors before reaching the
   name/topology tables instead of mutating them and erroring later. *)

module Jsonl = Scenario_io.Admtrace_jsonl
module Incremental = Scenario_io.Admtrace.Incremental
module Session = Gmf_admctl.Session
module Replay = Gmf_admctl.Replay

type opts = {
  verify : bool;
  explain : bool;
  survivable : int option;
  throttle_s : float;
}

let default_opts =
  {
    verify = false;
    explain = false;
    survivable = None;
    throttle_s = 0.;
  }

type req = Event_text of string | Summary | Fingerprint

type resp =
  | Outcome of { seq : int; label : string; accepted : bool; text : string }
  | Summary_text of string
  | Fingerprint_of of { digest : string; events : int }
  | Reject of string

type st = { inc : Incremental.t; session : Session.t; throttle_s : float }

let render_error e = Format.asprintf "%a" Scenario_io.Parse.pp_error e

let init ~opts ~topology () =
  let inc = Incremental.create () in
  (match Incremental.feed_text inc topology with
  | Error e -> failwith (render_error e)
  | Ok (_ :: _) -> failwith "topology prologue contains events"
  | Ok [] ->
      if Incremental.in_flow_block inc then
        failwith "topology prologue ends inside a flow block");
  (* The prologue ends here, even before the first event: a topology
     directive arriving in an event request must fail *before* mutating
     the name/topology tables, or a rejected (hence unjournaled) request
     could leave the worker out of step with the journal and poison
     every future replay. *)
  Incremental.freeze inc;
  let session =
    Session.create ~shadow:opts.verify
      ~explain:opts.explain ?survivable:opts.survivable
      ~switches:(Incremental.switches inc)
      ~topo:(Incremental.topology inc) ()
  in
  { inc; session; throttle_s = opts.throttle_s }

(* Like [Incremental.feed_text], but an error also reports the events
   completed earlier in the same text — the caller must know whether the
   parser was mutated before the failure. *)
(* Whether [text] holds anything besides comments and blank lines — the
   only inputs allowed to complete zero events without being an error. *)
let has_directive text =
  String.split_on_char '\n' text
  |> List.exists (fun raw ->
         let code =
           match String.index_opt raw '#' with
           | Some i -> String.sub raw 0 i
           | None -> raw
         in
         String.exists (fun c -> not (c = ' ' || c = '\t' || c = '\r')) code)

let feed_lines inc text =
  let lines = String.split_on_char '\n' text in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | raw :: rest -> (
        match Incremental.feed inc raw with
        | Ok evs -> go (List.rev_append evs acc) rest
        | Error e -> Error (List.rev acc, e))
  in
  go [] lines

let handle st = function
  | Summary ->
      Summary_text
        (Format.asprintf "%a" Replay.pp_summary (Session.summary st.session))
  | Fingerprint ->
      let s = Session.summary st.session in
      Fingerprint_of
        { digest = Session.fingerprint st.session; events = s.Session.events }
  | Event_text text -> (
      if st.throttle_s > 0. then Unix.sleepf st.throttle_s;
      match feed_lines st.inc text with
      | Error ([], e) when not (Incremental.in_flow_block st.inc) ->
          (* Failed before touching parser state: clean rejection. *)
          Reject (render_error e)
      | Error (_, e) ->
          (* Events already consumed, or a block left open: the parser
             diverged from the journal.  Die; the supervisor replays. *)
          failwith (render_error e)
      | Ok [] ->
          if Incremental.in_flow_block st.inc then
            failwith "request ends inside a flow block (missing 'end')"
          else if has_directive text then
            (* With the prologue frozen every non-comment line either
               completes an event, opens a flow block, or errors — so
               this is unreachable.  If it ever fires the parser state
               is unaccounted for: die and recover from the journal. *)
            failwith "request consumed directives but completed no event"
          else Reject "request text contains no event"
      | Ok events ->
          if Incremental.in_flow_block st.inc then
            failwith "request ends inside a flow block (missing 'end')";
          (* Usually one event per request; a batch is applied in order
             and answered with the last outcome, all lines joined. *)
          let outcomes =
            List.map
              (fun (_line, ev) ->
                Session.apply st.session (Replay.session_event ev))
              events
          in
          let last = List.nth outcomes (List.length outcomes - 1) in
          Outcome
            {
              seq = last.Session.seq;
              label = last.Session.label;
              accepted = last.Session.accepted;
              text =
                String.concat "\n" (List.map Replay.outcome_line outcomes);
            })
