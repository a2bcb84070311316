(** Write-ahead event journal backing one daemon session.

    One file per session ([<dir>/<session>.journal]), holding one
    canonically-encoded {!Scenario_io.Admtrace_jsonl} request per line:
    the session's [open] request first, then every {e committed} event
    request in application order.  Lines are appended with
    write+[fsync] {e after} the session worker applied the event and
    {e before} the decision is released to the client, so any decision a
    client observed is durable: after a [kill -9], replaying the journal
    into a fresh worker reconstructs the session state byte-identically
    (same flow ids, same counters, same {!Gmf_admctl.Session.fingerprint}).

    A crash mid-append leaves a torn final line (no trailing newline);
    recovery drops it — by the ordering above its outcome was never
    observed — and truncates the file so later appends cannot fuse with
    the fragment. *)

type t

val valid_name : string -> bool
(** Accepted session names: non-empty, at most 128 chars, drawn from
    [A-Za-z0-9._-], not starting with ['.'] — names double as file
    names, so nothing that could escape [dir] or hide the file. *)

val file : dir:string -> session:string -> string
(** The journal's path, [<dir>/<session>.journal]. *)

val open_ : dir:string -> session:string -> t * string list
(** Open (creating [dir] and the file as needed) the journal for
    [session] in append mode and return it together with the recovered
    complete lines, oldest first — empty for a brand-new session.  A
    torn trailing fragment is dropped and truncated away.  [dir] is
    fsync'd once the file exists, and so is the parent of every
    directory created on the way, so the journal's directory entry is
    as durable as its first append.  Raises [Invalid_argument] when
    {!valid_name} rejects [session]; [Unix] errors escape. *)

val fsync_dir : (string -> unit) ref
(** How {!open_} makes a directory's entries durable: open the
    directory read-only, [fsync] it, close it.  Replaceable so tests can
    observe which directories get synced. *)

val load : dir:string -> session:string -> string list
(** The journal's complete lines without opening it for append (a torn
    tail is dropped but {e not} truncated).  [[]] when the file does not
    exist.  Read-only inspection — tests and tooling. *)

val append : t -> string -> unit
(** Append one line (the terminating newline is added) and [fsync].
    Returns only once the line is durable. *)

val entries : t -> int
(** Complete lines in the journal: recovered lines plus appends. *)

val path : t -> string

val close : t -> unit
(** Close the file descriptor; idempotent. *)
