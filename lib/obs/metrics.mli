(** Named-metric registry: counters, gauges and fixed-bucket histograms.

    A registry starts {e disabled}: every recording operation is then a
    single load-and-branch, so instrumentation can stay compiled into the
    hot paths (fixpoint iterations, simulator event dispatch) at no
    measurable cost.  Enabling the registry — the CLI's [--metrics] flag,
    [gmfnet profile], or a test — turns the same call sites into live
    recorders.

    Handles are interned by name: registering the same name twice returns
    the same handle, so independent modules can contribute to one metric
    without coordination. *)

type t
(** A registry. *)

val create : ?enabled:bool -> unit -> t
(** [create ()] is a fresh registry, disabled unless [enabled:true]. *)

val default : t
(** The process-wide registry every built-in instrumentation hook records
    into.  Disabled at start-up. *)

val enabled : t -> bool
val set_enabled : t -> bool -> unit

val reset : t -> unit
(** [reset t] zeroes every metric but keeps the registrations (and the
    enabled flag) intact. *)

(** {1 Counters} *)

type counter

val counter : t -> string -> counter
(** [counter t name] registers (or retrieves) the counter [name]. *)

val incr : ?by:int -> counter -> unit
(** Adds [by] (default 1) when the owning registry is enabled; no-op
    otherwise. *)

val counter_value : counter -> int

(** {1 Gauges} *)

type gauge

val gauge : t -> string -> gauge

val set_gauge : gauge -> float -> unit
(** Records the current value (and tracks the maximum ever set) when the
    owning registry is enabled. *)

val add_gauge : gauge -> float -> unit
(** Adjusts the current value by a (possibly negative) delta when the
    owning registry is enabled — the natural recorder for level-style
    gauges such as queue depths, where callers see increments and
    decrements rather than absolute readings.  Tracks the maximum like
    {!set_gauge}. *)

val gauge_value : gauge -> float
(** Last value set; [0.] if never set. *)

val gauge_max : gauge -> float
(** Largest value ever set; [neg_infinity] if never set. *)

(** {1 Histograms} *)

type histogram

val default_bounds : int array
(** Powers of two up to 1024 — suited to iteration and round counts. *)

val histogram : ?bounds:int array -> t -> string -> histogram
(** [histogram t name] registers a histogram whose buckets are
    [(-inf, bounds.(0)], (bounds.(0), bounds.(1)], ..., (bounds.(n-1), +inf)].
    [bounds] must be strictly increasing ([Invalid_argument] otherwise); it
    is ignored when [name] already exists.  Exact sample statistics
    (count/sum/min/max/mean) are kept alongside the bucket counts via
    {!Gmf_util.Stats}. *)

val observe : histogram -> int -> unit
(** Records one sample when the owning registry is enabled. *)

(** {1 Snapshots} *)

type hist_summary = {
  h_count : int;
  h_sum : int;
  h_min : int option;  (** [None] when no sample was recorded. *)
  h_max : int option;
  h_mean : float option;
  h_p50 : int option;  (** Nearest-rank median; [None] when empty. *)
  h_p95 : int option;  (** Nearest-rank 95th percentile; [None] when empty. *)
  h_buckets : (int option * int) list;
      (** [(upper_bound, count)] per bucket; [None] is the +inf bucket. *)
}

type snapshot = {
  counters : (string * int) list;  (** Sorted by name. *)
  gauges : (string * float * float) list;  (** [(name, last, max)], sorted. *)
  histograms : (string * hist_summary) list;  (** Sorted by name. *)
}

val snapshot : t -> snapshot
(** A consistent copy of every registered metric, for rendering or export.
    Metrics that never recorded anything are included (zero-valued). *)
