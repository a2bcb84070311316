(** Helpers shared by the experiment drivers (E1-E10). *)

val section : string -> unit
(** Print an underlined section header. *)

val kv : string -> string -> unit
(** Print an aligned "key: value" line. *)

val check_line : label:string -> expected:string -> got:string -> unit
(** Print a paper-vs-measured comparison line ending in [ok] or [MISMATCH]. *)

val worst_total :
  Analysis.Holistic.report -> Traffic.Flow.id -> Gmf_util.Timeunit.ns
(** Worst end-to-end bound of one flow in a holistic report.
    Raises [Not_found] if the flow is absent. *)

val flow_result :
  Analysis.Holistic.report -> Traffic.Flow.id -> Analysis.Result_types.flow_result
(** The per-flow result record.  Raises [Not_found] if absent. *)

val verdict_string : Analysis.Holistic.report -> string

val ratio : int -> int -> string
(** [ratio a b] renders [a /. b] with two decimals ("n/a" when [b = 0]). *)

val admitted_among : offered:int -> Traffic.Flow.t list -> int
(** The flows of [admitted] with an id below [offered].  Greedy admission
    decides candidate [i] from candidates [0..i-1] only, so with ids in
    candidate order one run answers every prefix. *)
