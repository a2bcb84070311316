(** Request-bound functions of a GMF flow over one resource
    (paper eqs (4)–(13)).

    The analysis needs, for a flow j and a resource (a link or a switch
    task), an upper bound on how much of the resource the flow can demand in
    any interval of length [t].  Demand is measured in an abstract integer
    unit: link time in nanoseconds for MX/MXS (per-frame cost = C_j^k), or
    Ethernet-frame counts for NX/NXS (per-frame cost = ceil(C_j^k / MFT)).

    Window notation (eqs 7–9): a window is [len] consecutive frames of the
    cyclic spec starting at frame [k1].  Its cost is the sum of the [len]
    per-frame costs; its span is the sum of the first [len − 1] periods
    (arrival of first to arrival of last). *)

type t
(** Precomputed demand tables for one (flow, resource) pair: window prefix
    sums and the MXS/NXS staircase — the [(span, cost)] points where the
    maximum window cost over spans [<= dt] rises (the request-bound
    function of a non-cyclic GMF task, or a step arrival curve). *)

val make : costs:int array -> periods:Gmf_util.Timeunit.ns array -> t
(** [make ~costs ~periods] precomputes the window tables and the staircase
    (O(n{^ 2} log n) once; every later {!small} is a binary search over at
    most n{^ 2} steps, usually far fewer).  The arrays must
    have equal positive length, the costs must be non-negative, the periods
    non-negative with a positive sum.  Raises [Invalid_argument]
    otherwise. *)

val n : t -> int
(** Cycle length. *)

val cost_total : t -> int
(** CSUM/NSUM over the whole cycle (eqs 4–5): sum of all per-frame costs. *)

val tsum : t -> Gmf_util.Timeunit.ns
(** Cycle length in time (eq 6). *)

val window_cost : t -> k1:int -> len:int -> int
(** CSUM_j(k1, len) of eq (7)/(8): cost of [len] consecutive frames starting
    at frame [k1 mod n].  [len] may exceed [n] (wraps around the cycle).
    Raises [Invalid_argument] if [k1 < 0] or [len < 0]. *)

val window_span : t -> k1:int -> len:int -> Gmf_util.Timeunit.ns
(** TSUM_j(k1, len) of eq (9): minimum time from the arrival of the window's
    first frame to the arrival of its last frame ([len − 1] periods; 0 when
    [len <= 1]). *)

val small : t -> capped:bool -> Gmf_util.Timeunit.ns -> int
(** [small t ~capped dt] is MXS (when [capped = true], eq 10) or NXS (when
    [capped = false], eq 12): the maximum window cost over windows of
    1..n frames whose span is at most [dt].  When [capped], each candidate is
    clamped to [min dt cost] — a flow cannot occupy a link longer than the
    interval itself.  Defined here for any [dt >= 0] (the paper restricts to
    0 < dt < TSUM, which is how {!bound} calls it); negative [dt] yields 0. *)

val bound : t -> capped:bool -> Gmf_util.Timeunit.ns -> int
(** [bound t ~capped dt] is MX (eq 11, [capped = true]) or NX (eq 13,
    [capped = false]):
    [floor(dt/TSUM) * cost_total + small (dt mod TSUM)].
    Total demand bound for any interval of length [dt >= 0];
    negative [dt] yields 0.  The result saturates at [max_int] instead of
    wrapping, so it stays monotone in [dt] over the whole integer range. *)

val utilization : t -> float
(** [cost_total / tsum] as a float — the left side of the convergence
    conditions (eqs 20, 34–35) contributed by this flow. *)
