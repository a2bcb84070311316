(* The one JSON codec in gmfnet.  Every emitter escapes strings through
   [add_escaped] and every reader goes through [of_string], so a report,
   a JSONL export and the daemon wire all agree on what a string is.
   The compact printer is the daemon journal's normal form: changing a
   byte of its output breaks replay of existing journals. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let add_escaped buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let add_quoted buf s =
  Buffer.add_char buf '"';
  add_escaped buf s;
  Buffer.add_char buf '"'

let quote s =
  let buf = Buffer.create (String.length s + 2) in
  add_quoted buf s;
  Buffer.contents buf

let rec to_buf buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      (* %.12g round-trips every value the protocol carries (seconds
         with sub-millisecond resolution) without trailing noise. *)
      Buffer.add_string buf (Printf.sprintf "%.12g" f)
  | Str s -> add_quoted buf s
  | Arr xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          to_buf buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          add_quoted buf k;
          Buffer.add_char buf ':';
          to_buf buf v)
        kvs;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 128 in
  to_buf buf v;
  Buffer.contents buf

exception Bad of string

let add_utf8 buf code =
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else if code < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

let of_string text =
  let n = String.length text in
  let pos = ref 0 in
  let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt in
  let skip_ws () =
    while
      !pos < n
      && match text.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && text.[!pos] = c then incr pos
    else bad "expected %c at offset %d" c !pos
  in
  let hex4 () =
    if !pos + 4 > n then bad "truncated \\u escape";
    let hex = String.sub text !pos 4 in
    let is_hex = function
      | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
      | _ -> false
    in
    if not (String.for_all is_hex hex) then bad "bad \\u escape %S" hex;
    pos := !pos + 4;
    int_of_string ("0x" ^ hex)
  in
  let string_body () =
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then bad "unterminated string";
      let c = text.[!pos] in
      incr pos;
      if c = '"' then Buffer.contents buf
      else if c = '\\' then begin
        if !pos >= n then bad "unterminated escape";
        let e = text.[!pos] in
        incr pos;
        (match e with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
            let code = hex4 () in
            if code >= 0xD800 && code <= 0xDBFF then begin
              (* A high surrogate must pair with a following low one. *)
              if !pos + 2 <= n && text.[!pos] = '\\' && text.[!pos + 1] = 'u'
              then begin
                pos := !pos + 2;
                let low = hex4 () in
                if low < 0xDC00 || low > 0xDFFF then
                  bad "unpaired surrogate \\u%04x" code;
                add_utf8 buf
                  (0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00))
              end
              else bad "unpaired surrogate \\u%04x" code
            end
            else if code >= 0xDC00 && code <= 0xDFFF then
              bad "unpaired surrogate \\u%04x" code
            else add_utf8 buf code
        | c -> bad "unknown escape \\%c" c);
        go ()
      end
      else if Char.code c < 0x20 then
        bad "unescaped control character at offset %d" (!pos - 1)
      else begin
        Buffer.add_char buf c;
        go ()
      end
    in
    go ()
  in
  let number_start = function
    | '-' | '0' .. '9' -> true
    | _ -> false
  in
  let number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char text.[!pos] do incr pos done;
    let lit = String.sub text start (!pos - start) in
    let has_frac =
      String.exists (function '.' | 'e' | 'E' -> true | _ -> false) lit
    in
    if has_frac then
      match float_of_string_opt lit with
      | Some f -> Float f
      | None -> bad "bad number %S" lit
    else
      match int_of_string_opt lit with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt lit with
          | Some f -> Float f
          | None -> bad "bad number %S" lit)
  in
  let literal word v =
    if !pos + String.length word <= n
       && String.sub text !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else bad "bad literal at offset %d" !pos
  in
  let rec value () =
    skip_ws ();
    if !pos >= n then bad "unexpected end of input";
    match text.[!pos] with
    | '"' ->
        incr pos;
        Str (string_body ())
    | '{' ->
        incr pos;
        skip_ws ();
        if !pos < n && text.[!pos] = '}' then begin
          incr pos;
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            expect '"';
            let k = string_body () in
            skip_ws ();
            expect ':';
            let v = value () in
            skip_ws ();
            if !pos < n && text.[!pos] = ',' then begin
              incr pos;
              members ((k, v) :: acc)
            end
            else begin
              expect '}';
              Obj (List.rev ((k, v) :: acc))
            end
          in
          members []
        end
    | '[' ->
        incr pos;
        skip_ws ();
        if !pos < n && text.[!pos] = ']' then begin
          incr pos;
          Arr []
        end
        else begin
          let rec elements acc =
            let v = value () in
            skip_ws ();
            if !pos < n && text.[!pos] = ',' then begin
              incr pos;
              elements (v :: acc)
            end
            else begin
              expect ']';
              Arr (List.rev (v :: acc))
            end
          in
          elements []
        end
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | c when number_start c -> number ()
    | c -> bad "unexpected character %C at offset %d" c !pos
  in
  match
    let v = value () in
    skip_ws ();
    if !pos <> n then bad "trailing garbage at offset %d" !pos;
    v
  with
  | v -> Ok v
  | exception Bad msg -> Error msg

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

let field ?default what cast key j =
  match member key j with
  | Some v -> (
      match cast v with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "field %S must be %s" key what))
  | None -> (
      match default with
      | Some d -> Ok d
      | None -> Error (Printf.sprintf "missing field %S" key))

let str_field ?default j key =
  field ?default "a string" (function Str s -> Some s | _ -> None) key j

let int_field ?default j key =
  field ?default "an integer" (function Int i -> Some i | _ -> None) key j

let number_leaves v =
  let acc = ref [] in
  let rec go path = function
    | Int i -> acc := (path, float_of_int i) :: !acc
    | Float f -> acc := (path, f) :: !acc
    | Obj kvs ->
        List.iter
          (fun (k, v) -> go (if path = "" then k else path ^ "." ^ k) v)
          kvs
    | Arr vs -> List.iteri (fun i v -> go (Printf.sprintf "%s.%d" path i) v) vs
    | Null | Bool _ | Str _ -> ()
  in
  go "" v;
  List.rev !acc
