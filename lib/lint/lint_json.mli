(** JSON-lines encoding of diagnostics for [gmfnet lint --json].

    One flat object per line:
    [{"code":"GMF201","severity":"error","subject":"link 0->1",
      "message":"...","suggestion":"..."}]
    plus structured subject fields ([subject_kind], and the ids the kind
    carries) so downstream tooling does not have to re-parse the display
    string.  Lines are printed and parsed with {!Gmf_util.Json}; the
    parser is the round-trip inverse. *)

val to_jsonl : Gmf_diag.t list -> string
(** One diagnostic per line, trailing newline included (empty string for
    no diagnostics). *)

val of_jsonl_line : string -> (Gmf_diag.t, string) result
(** Parse one line back.  [Error] describes the first malformation. *)

val of_jsonl : string -> (Gmf_diag.t list, string) result
(** Parse a whole [to_jsonl] output (blank lines skipped). *)
