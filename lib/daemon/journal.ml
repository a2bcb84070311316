(* Write-ahead event journal: one fsync'd JSONL line per committed
   session event.

   Commit protocol (the daemon's): a request line is appended — and
   fsync'd — after the worker applied it successfully and before the
   decision is sent to the client.  A decision a client has seen is
   therefore always on disk, so a [kill -9] at any point loses at most
   events whose outcome nobody observed; replaying the journal into a
   fresh worker reproduces the session state byte-identically.

   A crash mid-append can leave a torn final line (no trailing
   newline).  [open_] drops it on recovery: a torn line was never
   acknowledged, so dropping it is exactly the no-observed-loss
   guarantee, and truncating the file to the last complete line keeps
   later appends from fusing with the fragment. *)

type t = {
  path : string;
  fd : Unix.file_descr;
  mutable entries : int;
}

let valid_name name =
  name <> ""
  && String.length name <= 128
  && String.for_all
       (fun c ->
         match c with
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> true
         | _ -> false)
       name
  && name.[0] <> '.'

let file ~dir ~session = Filename.concat dir (session ^ ".journal")

(* A new file or directory survives a crash only once the directory
   holding its entry has been fsync'd as well. *)
let fsync_dir =
  ref (fun dir ->
      let fd = Unix.openfile dir [ Unix.O_RDONLY ] 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () -> Unix.fsync fd))

let rec mkdirs dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdirs (Filename.dirname dir);
    match Unix.mkdir dir 0o755 with
    | () -> !fsync_dir (Filename.dirname dir)
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Complete lines of [text] and the byte length of the prefix they
   cover; a trailing fragment without '\n' is excluded from both. *)
let complete_lines text =
  let n = String.length text in
  let rec go acc start =
    match String.index_from_opt text start '\n' with
    | Some i -> go (String.sub text start (i - start) :: acc) (i + 1)
    | None -> (List.rev acc, start)
  in
  let lines, valid_len = go [] 0 in
  ignore n;
  (List.filter (fun l -> l <> "") lines, valid_len)

let load ~dir ~session =
  let path = file ~dir ~session in
  if not (Sys.file_exists path) then []
  else
    let text = In_channel.with_open_bin path In_channel.input_all in
    fst (complete_lines text)

let open_ ~dir ~session =
  if not (valid_name session) then
    invalid_arg (Printf.sprintf "Journal.open_: bad session name %S" session);
  mkdirs dir;
  let path = file ~dir ~session in
  let existing =
    if Sys.file_exists path then
      In_channel.with_open_bin path In_channel.input_all
    else ""
  in
  let lines, valid_len = complete_lines existing in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  !fsync_dir dir;
  (* Drop a torn tail before appending anything after it. *)
  if valid_len < String.length existing then Unix.ftruncate fd valid_len;
  ignore (Unix.lseek fd valid_len Unix.SEEK_SET);
  ({ path; fd; entries = List.length lines }, lines)

let append t line =
  let data = line ^ "\n" in
  let len = String.length data in
  let rec write_all off =
    if off < len then
      let n = Unix.write_substring t.fd data off (len - off) in
      write_all (off + n)
  in
  write_all 0;
  Unix.fsync t.fd;
  t.entries <- t.entries + 1

let entries t = t.entries
let path t = t.path
let close t = try Unix.close t.fd with _ -> ()
