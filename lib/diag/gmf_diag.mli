(** Structured diagnostics with compiler-style codes.

    Every static check in the tree — the [Gmf_lint] pass, the checked
    constructors of [Traffic.Flow], the admission gate — reports problems
    as values of {!t} instead of bare exception strings.  A diagnostic
    carries a stable code ([GMF0xx] structural, [GMF1xx] model
    preconditions from the paper, [GMF2xx] performance/utilization), a
    severity, the subject it refers to, a human message and an optional
    suggestion.

    This module sits at the bottom of the library graph (only [gmf_util]
    below it) so that traffic, scenario_io, lint and analysis can all
    share the one type. *)

type severity = Hint | Warning | Error
(** Ordered: [Hint < Warning < Error] under the polymorphic compare, so
    deny-level thresholds ({!at_least}) can use [(>=)] directly. *)

type subject =
  | Scenario  (** the flow set / scenario as a whole *)
  | Config  (** the analysis configuration *)
  | Flow of { id : int; name : string }
  | Frame of { id : int; name : string; frame : int }
      (** frame [frame] of flow [id] *)
  | Node of { id : int; name : string }
  | Link of { src : int; dst : int }

type t = {
  code : string;  (** stable, e.g. ["GMF201"] *)
  severity : severity;
  subject : subject;
  message : string;
  suggestion : string option;
}

val make :
  code:string ->
  severity:severity ->
  subject:subject ->
  ?suggestion:string ->
  ('a, Format.formatter, unit, t) format4 ->
  'a
(** [make ~code ~severity ~subject ?suggestion fmt ...] builds a
    diagnostic with a formatted message. *)

val error :
  code:string ->
  subject:subject ->
  ?suggestion:string ->
  ('a, Format.formatter, unit, t) format4 ->
  'a

val warning :
  code:string ->
  subject:subject ->
  ?suggestion:string ->
  ('a, Format.formatter, unit, t) format4 ->
  'a

val hint :
  code:string ->
  subject:subject ->
  ?suggestion:string ->
  ('a, Format.formatter, unit, t) format4 ->
  'a

val severity_to_string : severity -> string
(** ["error"], ["warning"], ["hint"]. *)

val severity_of_string : string -> severity option

val subject_to_string : subject -> string
(** Compact rendering: ["scenario"], ["config"], ["flow 3 (voip)"],
    ["flow 3 (voip) frame 1"], ["node 2 (sw0)"], ["link 0->1"]. *)

val has_errors : t list -> bool

val by_severity : severity -> t list -> t list
(** Diagnostics at exactly the given severity. *)

val at_least : severity -> t list -> t list
(** Diagnostics at or above the given severity. *)

val pp : Format.formatter -> t -> unit
(** One-line rendering:
    [error[GMF201] link 0->1: utilization 1.04 >= 1 (eq 20)]. *)

val to_string : t -> string

val pp_list : Format.formatter -> t list -> unit
(** One diagnostic per line, followed by a severity tally. *)
