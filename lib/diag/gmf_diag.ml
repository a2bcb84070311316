type severity = Hint | Warning | Error

type subject =
  | Scenario
  | Config
  | Flow of { id : int; name : string }
  | Frame of { id : int; name : string; frame : int }
  | Node of { id : int; name : string }
  | Link of { src : int; dst : int }

type t = {
  code : string;
  severity : severity;
  subject : subject;
  message : string;
  suggestion : string option;
}

let make ~code ~severity ~subject ?suggestion fmt =
  Format.kasprintf
    (fun message -> { code; severity; subject; message; suggestion })
    fmt

let error ~code ~subject ?suggestion fmt =
  make ~code ~severity:Error ~subject ?suggestion fmt

let warning ~code ~subject ?suggestion fmt =
  make ~code ~severity:Warning ~subject ?suggestion fmt

let hint ~code ~subject ?suggestion fmt =
  make ~code ~severity:Hint ~subject ?suggestion fmt

let severity_to_string = function
  | Hint -> "hint"
  | Warning -> "warning"
  | Error -> "error"

let severity_of_string = function
  | "hint" -> Some Hint
  | "warning" -> Some Warning
  | "error" -> Some Error
  | _ -> None

let subject_to_string = function
  | Scenario -> "scenario"
  | Config -> "config"
  | Flow { id; name } -> Printf.sprintf "flow %d (%s)" id name
  | Frame { id; name; frame } ->
      Printf.sprintf "flow %d (%s) frame %d" id name frame
  | Node { id; name } -> Printf.sprintf "node %d (%s)" id name
  | Link { src; dst } -> Printf.sprintf "link %d->%d" src dst

let has_errors ds = List.exists (fun d -> d.severity = Error) ds
let by_severity sev ds = List.filter (fun d -> d.severity = sev) ds
let at_least sev ds = List.filter (fun d -> d.severity >= sev) ds

let pp fmt d =
  Format.fprintf fmt "%s[%s] %s: %s"
    (severity_to_string d.severity)
    d.code
    (subject_to_string d.subject)
    d.message;
  match d.suggestion with
  | None -> ()
  | Some s -> Format.fprintf fmt " (%s)" s

let to_string d = Format.asprintf "%a" pp d

let pp_list fmt ds =
  List.iter (fun d -> Format.fprintf fmt "%a@." pp d) ds;
  let count sev = List.length (by_severity sev ds) in
  Format.fprintf fmt "%d error(s), %d warning(s), %d hint(s)" (count Error)
    (count Warning) (count Hint)
