(** Sensitivity analysis: capacity-planning searches on top of the
    schedulability test.

    A network operator rarely asks only "is this flow set schedulable?";
    the follow-up questions are "how much slower could the links be?",
    "how much more traffic fits?", and "how slow a switch CPU can I buy?".
    Each search below binary-searches the schedulability frontier; the
    predicate is monotone in every searched parameter (more capacity never
    breaks a schedulable set), which the test suite checks.

    Probes are evaluated through {!Case.schedulable}, so revisited
    probes hit the shared report memo.  The bisections are sequential —
    every probe depends on the previous verdict — and run in process. *)

val min_link_rate :
  ?config:Config.t ->
  ?lo:int ->
  ?hi:int ->
  build:(rate_bps:int -> Traffic.Scenario.t) ->
  unit ->
  int option
(** [min_link_rate ~build ()] is the smallest uniform link bit rate (within
    [lo, hi], default 1 Mbit/s .. 10 Gbit/s, resolution 1%) for which
    [build ~rate_bps] is schedulable, or [None] if even [hi] is not.
    Raises [Invalid_argument] if [lo <= 0] or [lo > hi]. *)

val max_payload_scale :
  ?config:Config.t ->
  ?resolution:float ->
  ?hi:float ->
  build:(scale:float -> Traffic.Scenario.t) ->
  unit ->
  float option
(** [max_payload_scale ~build ()] is the largest traffic scale factor in
    (0, [hi]] (default [hi] = 64, to the given relative [resolution],
    default 0.01) for which [build ~scale] is schedulable; [None] if even
    the smallest probe (1/64) fails.  Rejection hints pass [~hi:1.0] to ask
    "how much would this flow have to shrink?".  Raises [Invalid_argument]
    when [hi < 1/64]. *)

val max_circ :
  ?config:Config.t ->
  build:(circ_scale:float -> Traffic.Scenario.t) ->
  unit ->
  float option
(** [max_circ ~build ()] is the largest multiplier on the switch task costs
    (in (0, 1024], 1 = the paper's measured costs) that keeps [build]
    schedulable — i.e. how slow the switch CPU may be.  [None] if even
    scale 1/1024 fails. *)
