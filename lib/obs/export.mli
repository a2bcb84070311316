(** Exporters for {!Metrics} snapshots and {!Tracer} spans.

    Three formats:

    + {e JSON-lines} — one object per line, greppable and streamable;
      spans round-trip through {!span_of_jsonl};
    + {e Chrome trace_event} — a single JSON document with complete
      ("ph":"X") events that [chrome://tracing] and Perfetto open directly;
    + plain-text tables via {!Gmf_util.Tablefmt}, for terminal output.

    Strings are escaped and lines parsed with {!Gmf_util.Json}. *)

val span_to_jsonl : Tracer.span -> string
(** One span as a single-line JSON object (no trailing newline). *)

val span_of_jsonl : string -> (Tracer.span, string) result
(** Parses one {!span_to_jsonl} line back (field order-independent).
    [Error] describes the first offending token. *)

val metrics_to_jsonl : Metrics.snapshot -> string
(** One metric per line: [{"metric":NAME,"kind":"counter"|"gauge"|
    "histogram", ...}]. *)

val chrome_trace : Tracer.span list -> string
(** The spans as a Chrome [trace_event] JSON document (timestamps in
    microseconds, [pid] 1, [tid] from the span). *)

val metrics_tables : Metrics.snapshot -> string
(** Counter, gauge and histogram tables rendered with
    {!Gmf_util.Tablefmt}; empty string when the snapshot holds no
    metrics.  Histogram buckets print as ["<=N:count"] runs with empty
    buckets elided. *)

val phase_table : (string * int * int) list -> string
(** Renders {!Tracer.aggregate} rows as a wall-clock-per-phase table
    (span name, calls, total, mean); empty string on no rows. *)

val write_file : path:string -> string -> unit
(** Writes (truncating) the string to [path]. *)
