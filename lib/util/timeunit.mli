(** Integer-nanosecond time arithmetic.

    All durations and instants in this project are represented as integer
    nanoseconds ([ns = int]).  Using integers (rather than floats) makes the
    busy-period fixed-point iterations of the schedulability analysis converge
    exactly, with no epsilon comparisons.  OCaml's 63-bit native integers give
    a range of about 146 years in nanoseconds, far beyond any busy period or
    hyperperiod handled here. *)

type ns = int
(** A duration or instant, in nanoseconds.  Always non-negative in this
    project unless documented otherwise. *)

val ns : int -> ns
(** [ns x] is [x] nanoseconds (identity; documents intent at call sites). *)

val us : int -> ns
(** [us x] is [x] microseconds as nanoseconds. *)

val ms : int -> ns
(** [ms x] is [x] milliseconds as nanoseconds. *)

val s : int -> ns
(** [s x] is [x] seconds as nanoseconds. *)

val us_frac : float -> ns
(** [us_frac x] is [x] microseconds rounded to the nearest nanosecond.
    Used for measured constants such as the 2.7 us CROUTE of the paper. *)

val to_us : ns -> float
(** [to_us t] is [t] expressed in microseconds. *)

val to_ms : ns -> float
(** [to_ms t] is [t] expressed in milliseconds. *)

val to_s : ns -> float
(** [to_s t] is [t] expressed in seconds. *)

val pp : Format.formatter -> ns -> unit
(** [pp fmt t] prints [t] with an auto-selected unit (ns, us, ms or s),
    e.g. ["14.8us"], ["270ms"]. *)

val to_string : ns -> string
(** [to_string t] is [Format.asprintf "%a" pp t]. *)

val cdiv : int -> int -> int
(** [cdiv a b] is [ceil (a / b)] on non-negative integers.
    Raises [Invalid_argument] if [b <= 0] or [a < 0]. *)

val fdiv : int -> int -> int
(** [fdiv a b] is [floor (a / b)] on non-negative integers.
    Raises [Invalid_argument] if [b <= 0] or [a < 0]. *)

val tx_time_ns : bits:int -> rate_bps:int -> ns
(** [tx_time_ns ~bits ~rate_bps] is the time needed to transmit [bits] bits
    on a link of [rate_bps] bits per second, rounded up to a whole
    nanosecond (rounding up keeps response-time bounds sound).
    Raises [Invalid_argument] on non-positive rate or negative size. *)

val sat_add : ns -> ns -> ns
(** [sat_add a b] is [a + b], except that a sum of two non-negative values
    that would wrap past [max_int] is [max_int].  Keeps demand bounds and
    busy-window sums monotone near the top of the integer range. *)
