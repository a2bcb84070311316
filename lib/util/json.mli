(** JSON values, a strict parser and a canonical compact printer — the
    only JSON code in gmfnet (see [docs/OBS.md], "JSON").

    Numbers: an integer literal (no [.], [e] or [E]) that fits an OCaml
    [int] reads as [Int]; every other number reads as [Float].  [Float]
    prints as [%.12g].

    Strings: the printer escapes the double quote and the backslash with
    a backslash, newline, tab and carriage return as [\n], [\t], [\r],
    and every other byte below 0x20 as [\u00XX] (lower-case hex); all
    other bytes, raw UTF-8 included, pass through.
    The parser decodes [\uXXXX] escapes, surrogate pairs included, to
    UTF-8 and rejects lone surrogates and unescaped control bytes.

    {!to_string} output is the daemon journal's normal form: it must
    stay byte-for-byte stable so existing journals replay. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact rendering, no whitespace, keys in listed order. *)

val of_string : string -> (t, string) result
(** Strict parse of one complete JSON value (surrounding whitespace
    allowed, trailing garbage is an error).  Never raises. *)

val quote : string -> string
(** The JSON string literal for [s], escaped exactly as {!to_string}
    escapes an [Str] — for documents whose layout is written by hand. *)

val member : string -> t -> t option
(** Field of an [Obj] (first occurrence); [None] on a missing key or a
    non-object. *)

val str_field : ?default:string -> t -> string -> (string, string) result
(** [str_field j key] is the string field [key] of the object [j];
    [default] when the key is missing, if given.  [Error] on a missing
    key without a default or a value of another type. *)

val int_field : ?default:int -> t -> string -> (int, string) result
(** As {!str_field} for an [Int] field. *)

val number_leaves : t -> (string * float) list
(** Every numeric leaf ([Int] or [Float], as a float) with its dotted
    path, in document order; array elements are indexed by position. *)
