(* Wire codec for gmfnetd: the .admtrace event grammar framed as JSONL.

   One JSON object per line in both directions.  The payload of an
   [Event] request is admtrace source text verbatim (a single directive,
   or a whole flow block through its [end]); the daemon feeds it to
   {!Parse.Admtrace.Incremental}, so the wire protocol inherits the
   batch grammar — and its name/id resolution — without a second
   parser.  Everything here is deterministic: encoding the decode of a
   line reproduces the canonical form the journal stores. *)

open Gmf_util

(* ------------------------------------------------------------------ *)
(* Requests                                                           *)
(* ------------------------------------------------------------------ *)

type request =
  | Open of {
      session : string;
      topology : string;  (* admtrace topology prologue, verbatim *)
      verify : bool;  (* shadow mode, as [gmfnet session --verify] *)
      explain : bool;
      cold : bool;
      survivable : int option;
      throttle_s : float;
          (* minimum seconds the worker spends per event; a pacing knob
             for overload tests and benchmarks, 0 in production *)
    }
  | Event of { text : string }  (* one admtrace event, verbatim *)
  | Summary
  | Fingerprint
  | Ping
  | Close

type response =
  | Opened of { session : string; replayed : int }
  | Outcome of { seq : int; label : string; accepted : bool; text : string }
  | Summary_is of { text : string }
  | Fingerprint_is of { digest : string; events : int }
  | Pong
  | Closed
  | Rejected of { code : string; message : string }

(* Reject codes the daemon uses; fixed here so clients can match on
   them without string-guessing. *)
let code_overloaded = "overloaded"
let code_parse = "parse"
let code_crashed = "crashed"
let code_deadline = "deadline"
let code_proto = "proto"
let code_shutdown = "shutdown"

let encode_request req =
  let open Json in
  let obj =
    match req with
    | Open { session; topology; verify; explain; cold; survivable; throttle_s }
      ->
        [ ("op", Str "open"); ("session", Str session);
          ("topology", Str topology) ]
        @ (if verify then [ ("verify", Bool true) ] else [])
        @ (if explain then [ ("explain", Bool true) ] else [])
        @ (if cold then [ ("cold", Bool true) ] else [])
        @ (match survivable with
          | Some k -> [ ("survivable", Int k) ]
          | None -> [])
        @
        if throttle_s > 0. then [ ("throttle_s", Float throttle_s) ] else []
    | Event { text } -> [ ("op", Str "event"); ("text", Str text) ]
    | Summary -> [ ("op", Str "summary") ]
    | Fingerprint -> [ ("op", Str "fingerprint") ]
    | Ping -> [ ("op", Str "ping") ]
    | Close -> [ ("op", Str "close") ]
  in
  Json.to_string (Obj obj)

let bool_field j key =
  match Json.member key j with
  | Some (Json.Bool b) -> Ok b
  | None -> Ok false
  | Some _ -> Error (Printf.sprintf "field %S must be a boolean" key)

let float_field j key ~default =
  match Json.member key j with
  | Some (Json.Float f) -> Ok f
  | Some (Json.Int i) -> Ok (float_of_int i)
  | None -> Ok default
  | Some _ -> Error (Printf.sprintf "field %S must be a number" key)

let ( let* ) = Result.bind

let decode_request line =
  let* j = Json.of_string line in
  let* op = Json.str_field j "op" in
  match op with
  | "open" ->
      let* session = Json.str_field j "session" in
      let* topology = Json.str_field j "topology" in
      let* verify = bool_field j "verify" in
      let* explain = bool_field j "explain" in
      let* cold = bool_field j "cold" in
      let* survivable =
        match Json.member "survivable" j with
        | Some (Json.Int k) -> Ok (Some k)
        | None -> Ok None
        | Some _ -> Error "field \"survivable\" must be an integer"
      in
      let* throttle_s = float_field j "throttle_s" ~default:0. in
      Ok (Open { session; topology; verify; explain; cold; survivable;
                 throttle_s })
  | "event" ->
      let* text = Json.str_field j "text" in
      Ok (Event { text })
  | "summary" -> Ok Summary
  | "fingerprint" -> Ok Fingerprint
  | "ping" -> Ok Ping
  | "close" -> Ok Close
  | op -> Error (Printf.sprintf "unknown op %S" op)

let encode_response resp =
  let open Json in
  let obj =
    match resp with
    | Opened { session; replayed } ->
        [ ("ok", Str "opened"); ("session", Str session);
          ("replayed", Int replayed) ]
    | Outcome { seq; label; accepted; text } ->
        [ ("ok", Str "outcome"); ("seq", Int seq); ("label", Str label);
          ("accepted", Bool accepted); ("text", Str text) ]
    | Summary_is { text } -> [ ("ok", Str "summary"); ("text", Str text) ]
    | Fingerprint_is { digest; events } ->
        [ ("ok", Str "fingerprint"); ("digest", Str digest);
          ("events", Int events) ]
    | Pong -> [ ("ok", Str "pong") ]
    | Closed -> [ ("ok", Str "closed") ]
    | Rejected { code; message } ->
        [ ("error", Str code); ("message", Str message) ]
  in
  Json.to_string (Obj obj)

let decode_response line =
  let* j = Json.of_string line in
  match Json.member "error" j with
  | Some (Json.Str code) ->
      let* message = Json.str_field ~default:"" j "message" in
      Ok (Rejected { code; message })
  | Some _ -> Error "field \"error\" must be a string"
  | None -> (
      let* ok = Json.str_field j "ok" in
      match ok with
      | "opened" ->
          let* session = Json.str_field j "session" in
          let* replayed = Json.int_field ~default:0 j "replayed" in
          Ok (Opened { session; replayed })
      | "outcome" ->
          let* seq = Json.int_field j "seq" in
          let* label = Json.str_field j "label" in
          let* accepted = bool_field j "accepted" in
          let* text = Json.str_field j "text" in
          Ok (Outcome { seq; label; accepted; text })
      | "summary" ->
          let* text = Json.str_field j "text" in
          Ok (Summary_is { text })
      | "fingerprint" ->
          let* digest = Json.str_field j "digest" in
          let* events = Json.int_field ~default:0 j "events" in
          Ok (Fingerprint_is { digest; events })
      | "pong" -> Ok Pong
      | "closed" -> Ok Closed
      | ok -> Error (Printf.sprintf "unknown ok kind %S" ok))
