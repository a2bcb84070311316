open Gmf_util

(* Every handle caches the registry's [enabled] ref so a recording call is
   one load and one branch when observability is off: the instrumented hot
   loops (fixpoint iterations, stage analyses) then cost the same with or
   without the recording calls in them. *)

type counter = { c_enabled : bool ref; mutable c_value : int }

type gauge = {
  g_enabled : bool ref;
  mutable g_value : float;
  mutable g_max : float;
}

type histogram = {
  h_enabled : bool ref;
  h_bounds : int array;
  h_counts : int array; (* length = Array.length h_bounds + 1 *)
  mutable h_stats : Stats.t;
}

type t = {
  on : bool ref;
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
}

let create ?(enabled = false) () =
  {
    on = ref enabled;
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 32;
    histograms = Hashtbl.create 32;
  }

let default = create ()

let enabled t = !(t.on)
let set_enabled t v = t.on := v

let reset t =
  Hashtbl.iter (fun _ c -> c.c_value <- 0) t.counters;
  Hashtbl.iter
    (fun _ g ->
      g.g_value <- 0.;
      g.g_max <- neg_infinity)
    t.gauges;
  Hashtbl.iter
    (fun _ h ->
      Array.fill h.h_counts 0 (Array.length h.h_counts) 0;
      h.h_stats <- Stats.create ())
    t.histograms

let intern table name make =
  match Hashtbl.find_opt table name with
  | Some v -> v
  | None ->
      let v = make () in
      Hashtbl.replace table name v;
      v

(* ---------------- counters ---------------- *)

let counter t name =
  intern t.counters name (fun () -> { c_enabled = t.on; c_value = 0 })

let incr ?(by = 1) c =
  if !(c.c_enabled) then c.c_value <- c.c_value + by

let counter_value c = c.c_value

(* ---------------- gauges ---------------- *)

let gauge t name =
  intern t.gauges name (fun () ->
      { g_enabled = t.on; g_value = 0.; g_max = neg_infinity })

let set_gauge g v =
  if !(g.g_enabled) then begin
    g.g_value <- v;
    if v > g.g_max then g.g_max <- v
  end

let add_gauge g delta =
  if !(g.g_enabled) then begin
    let v = g.g_value +. delta in
    g.g_value <- v;
    if v > g.g_max then g.g_max <- v
  end

let gauge_value g = g.g_value
let gauge_max g = g.g_max

(* ---------------- histograms ---------------- *)

let default_bounds = [| 1; 2; 4; 8; 16; 32; 64; 128; 256; 512; 1024 |]

let check_bounds bounds =
  if Array.length bounds = 0 then
    invalid_arg "Metrics.histogram: empty bounds";
  for i = 1 to Array.length bounds - 1 do
    if bounds.(i) <= bounds.(i - 1) then
      invalid_arg "Metrics.histogram: bounds not strictly increasing"
  done

let histogram ?(bounds = default_bounds) t name =
  check_bounds bounds;
  intern t.histograms name (fun () ->
      {
        h_enabled = t.on;
        h_bounds = Array.copy bounds;
        h_counts = Array.make (Array.length bounds + 1) 0;
        h_stats = Stats.create ();
      })

(* First bucket whose upper bound is >= x; the overflow bucket otherwise.
   Bucket arrays are tiny (~10 entries), so a linear scan beats binary
   search in practice. *)
let bucket_of h x =
  let n = Array.length h.h_bounds in
  let rec find i = if i >= n || x <= h.h_bounds.(i) then i else find (i + 1) in
  find 0

let observe h x =
  if !(h.h_enabled) then begin
    let b = bucket_of h x in
    h.h_counts.(b) <- h.h_counts.(b) + 1;
    Stats.add h.h_stats x
  end

(* ---------------- snapshots ---------------- *)

type hist_summary = {
  h_count : int;
  h_sum : int;
  h_min : int option;
  h_max : int option;
  h_mean : float option;
  h_p50 : int option;
  h_p95 : int option;
  h_buckets : (int option * int) list;
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float * float) list;
  histograms : (string * hist_summary) list;
}

let sorted_bindings table f =
  Hashtbl.fold (fun name v acc -> f name v :: acc) table []
  |> List.sort compare

let summarize h =
  let stats = h.h_stats in
  let empty = Stats.count stats = 0 in
  {
    h_count = Stats.count stats;
    h_sum = Stats.sum stats;
    h_min = (if empty then None else Some (Stats.min stats));
    h_max = (if empty then None else Some (Stats.max stats));
    h_mean = (if empty then None else Some (Stats.mean stats));
    h_p50 = (if empty then None else Some (Stats.percentile stats 50.));
    h_p95 = (if empty then None else Some (Stats.percentile stats 95.));
    h_buckets =
      List.init
        (Array.length h.h_counts)
        (fun i ->
          let upper =
            if i < Array.length h.h_bounds then Some h.h_bounds.(i) else None
          in
          (upper, h.h_counts.(i)));
  }

let snapshot (t : t) =
  {
    counters = sorted_bindings t.counters (fun name c -> (name, c.c_value));
    gauges =
      sorted_bindings t.gauges (fun name g -> (name, g.g_value, g.g_max));
    histograms =
      sorted_bindings t.histograms (fun name h -> (name, summarize h));
  }
