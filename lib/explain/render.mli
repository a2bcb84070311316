(** Terminal-table and JSON renderings of an {!Attribution}.

    Both renderings are deterministic functions of the attribution (no
    clocks, no hash order), so they golden-test cleanly. *)

val verdict_line : Attribution.t -> string
(** ["verdict: schedulable (after 3 rounds)"]. *)

val summary_table : Attribution.t -> string
(** One row per flow: its worst frame's bound/deadline/slack and the
    binding hop and interferer, via {!Gmf_util.Tablefmt}. *)

val detail : ?flow:Traffic.Flow.id -> Attribution.t -> string
(** Per-frame hop decomposition and per-interferer tables for [flow] —
    the scenario's worst flow when omitted. *)

val rejection : ?hints:Hints.hint list -> Attribution.t -> string
(** Empty string when schedulable; otherwise the violated binding
    constraint ("flow X frame K bound B exceeds deadline D at HOP"), the
    binding interferer, and one "nearest feasible" line per hint. *)

val to_json :
  ?flow:Traffic.Flow.id -> ?hints:Hints.hint list -> Attribution.t -> string
(** The complete attribution as one JSON document (newline-terminated):
    verdict, rounds, per-flow/per-frame/per-hop terms (all in ns, summing
    to the holistic bound exactly — the ["exact"] flag asserts it), the
    worst-frame summary, and any hints.  [?flow] restricts the flows
    array.  Strings are escaped with {!Gmf_util.Json.quote} and the
    document parses with {!Gmf_util.Json.of_string} (see [docs/OBS.md],
    "JSON"). *)
