(* Client side of the gmfnetd protocol: a blocking JSONL connection,
   plus the trace driver the CLI, the CI smoke job and the benchmarks
   share — it streams a whole .admtrace file through a daemon session
   and renders output byte-identical to [gmfnet session]. *)

module Jsonl = Scenario_io.Admtrace_jsonl

type t = { fd : Unix.file_descr; buf : Buffer.t }

let write_all fd data =
  let len = String.length data in
  let rec go off =
    if off < len then
      match Unix.write_substring fd data off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Ok { fd; buf = Buffer.create 1024 }
  | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with _ -> ());
      Error
        (Printf.sprintf "cannot connect to %s: %s" path (Unix.error_message e))

let close t = try Unix.close t.fd with _ -> ()

let send t req =
  match write_all t.fd (Jsonl.encode_request req ^ "\n") with
  | () -> Ok ()
  | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "send failed: %s" (Unix.error_message e))

let recv t =
  let rec line () =
    let s = Buffer.contents t.buf in
    match String.index_opt s '\n' with
    | Some i ->
        Buffer.clear t.buf;
        Buffer.add_substring t.buf s (i + 1) (String.length s - i - 1);
        Ok (String.sub s 0 i)
    | None -> (
        let bytes = Bytes.create 4096 in
        match Unix.read t.fd bytes 0 (Bytes.length bytes) with
        | 0 -> Error "connection closed by daemon"
        | n ->
            Buffer.add_subbytes t.buf bytes 0 n;
            line ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> line ()
        | exception Unix.Unix_error (e, _, _) ->
            Error (Printf.sprintf "recv failed: %s" (Unix.error_message e)))
  in
  match line () with Ok l -> Jsonl.decode_response l | Error _ as e -> e

let request t req =
  match send t req with Ok () -> recv t | Error _ as e -> e

(* ---------------- trace slicing ---------------- *)

(* An event starts at a line whose first word is an event keyword.
   Inside a flow block lines are [frame]/[end]/comments, none of which
   match, so keyword scanning slices correctly without a full parse.
   The grammar's tokenizer treats tabs as separators, so fold them into
   spaces before splitting off the first word. *)
let is_event_start raw =
  let raw =
    String.trim (String.map (fun c -> if c = '\t' then ' ' else c) raw)
  in
  let word =
    match String.index_opt raw ' ' with
    | Some i -> String.sub raw 0 i
    | None -> raw
  in
  List.mem word [ "admit"; "update"; "remove"; "query"; "fail"; "restore" ]

let slice_trace text =
  let lines = String.split_on_char '\n' text in
  let prologue = ref [] in
  let chunks = ref [] in
  let current = ref None in
  let flush () =
    match !current with
    | Some acc -> (
        chunks := List.rev acc :: !chunks;
        current := None)
    | None -> ()
  in
  List.iter
    (fun raw ->
      if is_event_start raw then begin
        flush ();
        current := Some [ raw ]
      end
      else
        match !current with
        | Some acc -> current := Some (raw :: acc)
        | None -> prologue := raw :: !prologue)
    lines;
  flush ();
  ( String.concat "\n" (List.rev !prologue),
    List.map (String.concat "\n") (List.rev !chunks) )

(* ---------------- trace driver ---------------- *)

type trace_result = {
  output : string;
      (* Byte-identical to [gmfnet session] on the same trace:
         transcript lines, blank line, "summary:" block. *)
  mismatches : int;  (* Shadow disagreements, verify mode only. *)
  rejected : (string * string) list;  (* (code, message) refusals. *)
}

let has_mismatch text =
  let needle = " shadow=MISMATCH" in
  let nl = String.length needle and tl = String.length text in
  let rec at i =
    i + nl <= tl && (String.sub text i nl = needle || at (i + 1))
  in
  at 0

type trace_error = { received : string; reason : string }

let run_trace ~socket ~session ?(verify = false) ?(explain = false)
    ?survivable ?(throttle_s = 0.) text =
  let prologue, chunks = slice_trace text in
  (* The transcript so far: an error hands it back with the reason. *)
  let out = Buffer.create 4096 in
  Result.map_error (fun reason -> { received = Buffer.contents out; reason })
  @@
  match connect socket with
  | Error _ as e -> e
  | Ok c ->
      Fun.protect
        ~finally:(fun () -> close c)
        (fun () ->
          let ( let* ) = Result.bind in
          let mismatches = ref 0 in
          let rejections = ref [] in
          let* _opened =
            match
              request c
                (Jsonl.Open
                   {
                     session;
                     topology = prologue;
                     verify;
                     explain;
                     cold = false;
                     survivable;
                     throttle_s;
                   })
            with
            | Ok (Jsonl.Opened _ as r) -> Ok r
            | Ok (Jsonl.Rejected { code; message }) ->
                Error (Printf.sprintf "open rejected [%s]: %s" code message)
            | Ok _ -> Error "unexpected response to open"
            | Error _ as e -> e
          in
          let* () =
            List.fold_left
              (fun acc chunk ->
                let* () = acc in
                match request c (Jsonl.Event { text = chunk }) with
                | Ok (Jsonl.Outcome o) ->
                    Buffer.add_string out o.text;
                    Buffer.add_char out '\n';
                    if verify && has_mismatch o.text then incr mismatches;
                    Ok ()
                | Ok (Jsonl.Rejected { code; message }) ->
                    rejections := (code, message) :: !rejections;
                    Ok ()
                | Ok _ -> Error "unexpected response to event"
                | Error _ as e -> e)
              (Ok ()) chunks
          in
          let* () =
            match request c Jsonl.Summary with
            | Ok (Jsonl.Summary_is { text }) ->
                Buffer.add_string out "\nsummary:\n";
                Buffer.add_string out text;
                Ok ()
            | Ok (Jsonl.Rejected { code; message }) ->
                Error (Printf.sprintf "summary rejected [%s]: %s" code message)
            | Ok _ -> Error "unexpected response to summary"
            | Error _ as e -> e
          in
          ignore (request c Jsonl.Close);
          Ok
            {
              output = Buffer.contents out;
              mismatches = !mismatches;
              rejected = List.rev !rejections;
            })

let fingerprint ~socket ~session =
  match connect socket with
  | Error _ as e -> e
  | Ok c ->
      Fun.protect
        ~finally:(fun () -> close c)
        (fun () ->
          match
            request c
              (Jsonl.Open
                 {
                   session;
                   topology = "";
                   verify = false;
                   explain = false;
                   cold = false;
                   survivable = None;
                   throttle_s = 0.;
                 })
          with
          | Ok (Jsonl.Opened _) -> (
              match request c Jsonl.Fingerprint with
              | Ok (Jsonl.Fingerprint_is { digest; events }) ->
                  Ok (digest, events)
              | Ok (Jsonl.Rejected { code; message }) ->
                  Error (Printf.sprintf "[%s] %s" code message)
              | Ok _ -> Error "unexpected response to fingerprint"
              | Error _ as e -> e)
          | Ok (Jsonl.Rejected { code; message }) ->
              Error (Printf.sprintf "open rejected [%s]: %s" code message)
          | Ok _ -> Error "unexpected response to open"
          | Error _ as e -> e)
