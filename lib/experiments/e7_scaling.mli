(** E7 — analysis cost scaling.

    An admission controller must answer quickly, so this experiment measures
    the holistic analysis' CPU time as the workload grows along three axes:
    number of flows sharing one switch, route length (switch count), and GMF
    cycle length n_i.  Wall-clock-free: uses processor time via [Sys.time]. *)

type row = { label : string; parameter : int; seconds : float }

val flows_axis : unit -> row list
val hops_axis : unit -> row list
val frames_axis : unit -> row list

val run : unit -> unit
