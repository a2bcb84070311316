open Gmf_util

let subject_fields = function
  | Gmf_diag.Scenario -> [ ("subject_kind", Json.Str "scenario") ]
  | Gmf_diag.Config -> [ ("subject_kind", Json.Str "config") ]
  | Gmf_diag.Flow { id; name } ->
      [
        ("subject_kind", Json.Str "flow"); ("id", Json.Int id);
        ("name", Json.Str name);
      ]
  | Gmf_diag.Frame { id; name; frame } ->
      [
        ("subject_kind", Json.Str "frame"); ("id", Json.Int id);
        ("name", Json.Str name); ("frame", Json.Int frame);
      ]
  | Gmf_diag.Node { id; name } ->
      [
        ("subject_kind", Json.Str "node"); ("id", Json.Int id);
        ("name", Json.Str name);
      ]
  | Gmf_diag.Link { src; dst } ->
      [
        ("subject_kind", Json.Str "link"); ("src", Json.Int src);
        ("dst", Json.Int dst);
      ]

let to_jsonl_line (d : Gmf_diag.t) =
  let fields =
    [
      ("code", Json.Str d.Gmf_diag.code);
      ( "severity",
        Json.Str (Gmf_diag.severity_to_string d.Gmf_diag.severity) );
    ]
    @ subject_fields d.Gmf_diag.subject
    @ [ ("message", Json.Str d.Gmf_diag.message) ]
    @
    match d.Gmf_diag.suggestion with
    | None -> []
    | Some s -> [ ("suggestion", Json.Str s) ]
  in
  Json.to_string (Json.Obj fields)

let to_jsonl ds =
  String.concat "" (List.map (fun d -> to_jsonl_line d ^ "\n") ds)

let of_jsonl_line line =
  let ( let* ) = Result.bind in
  let* j = Json.of_string line in
  let str = Json.str_field j and int = Json.int_field j in
  let* code = str "code" in
  let* sev_name = str "severity" in
  let* severity =
    match Gmf_diag.severity_of_string sev_name with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "unknown severity %S" sev_name)
  in
  let* kind = str "subject_kind" in
  let* subject =
    match kind with
    | "scenario" -> Ok Gmf_diag.Scenario
    | "config" -> Ok Gmf_diag.Config
    | "flow" ->
        let* id = int "id" in
        let* name = str "name" in
        Ok (Gmf_diag.Flow { id; name })
    | "frame" ->
        let* id = int "id" in
        let* name = str "name" in
        let* frame = int "frame" in
        Ok (Gmf_diag.Frame { id; name; frame })
    | "node" ->
        let* id = int "id" in
        let* name = str "name" in
        Ok (Gmf_diag.Node { id; name })
    | "link" ->
        let* src = int "src" in
        let* dst = int "dst" in
        Ok (Gmf_diag.Link { src; dst })
    | k -> Error (Printf.sprintf "unknown subject_kind %S" k)
  in
  let* message = str "message" in
  let suggestion =
    match Json.member "suggestion" j with
    | Some (Json.Str s) -> Some s
    | _ -> None
  in
  Ok { Gmf_diag.code; severity; subject; message; suggestion }

let of_jsonl text =
  let lines =
    List.filter
      (fun l -> String.trim l <> "")
      (String.split_on_char '\n' text)
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | l :: rest -> (
        match of_jsonl_line l with
        | Ok d -> go (d :: acc) rest
        | Error e -> Error e)
  in
  go [] lines
