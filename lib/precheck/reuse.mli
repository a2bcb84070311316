(** The one reuse table of the session gates: values computed from a set
    of flows, kept so that a later run over an edited scenario can read
    them back instead of computing them again.  {!Precheck.run}'s
    [?table] keeps a component's verdicts under its members;
    {!Gmf_lint.Lint.run}'s [?table] keeps one flow's findings under
    [[flow]].

    {b The key.}  Entries are keyed by the members' ids (the hash covers
    the whole list).  An entry holds the member records, the topology,
    the config, the switch models on the members' routes and the value;
    it never holds a scenario.  A lookup hits it only when

    - every member record is physically the one it was computed for
      ([==]);
    - the topology is physically the same ([==]);
    - every switch on the members' routes has an equal switch model;
    - the analysis config is equal.

    Lint's per-flow rules and every precheck test read only their
    members, the topology, the models on the members' routes and the
    config, so a hit is the value a fresh computation returns
    ([docs/ADMCTL.md], "Gate reuse").  One id set can hold several
    entries: a sweep meets the same members rerouted in different ways. *)

type 'a t

val create : unit -> 'a t

val find :
  'a t ->
  config:Analysis_config.t ->
  Traffic.Scenario.t ->
  Traffic.Flow.t list ->
  'a option
(** [find t ~config scenario members] is the value [t] holds for
    [members] (in id order, all of [scenario]) under the key, else
    [None]. *)

val add :
  'a t ->
  config:Analysis_config.t ->
  Traffic.Scenario.t ->
  Traffic.Flow.t list ->
  'a ->
  unit
(** [add t ~config scenario members v] keeps [v] for [members] beside
    the entries their ids already hold.  Callers add only after a
    {!find} missed. *)

val length : 'a t -> int
(** Entries held. *)

val keep_latest : 'a t -> unit
(** Drops every entry that no {!find} hit and no {!add} wrote since the
    previous [keep_latest].  An owner that calls it after each run keeps
    one run's worth of entries, not a history. *)
