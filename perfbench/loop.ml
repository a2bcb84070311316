(* The timed loop shared by the identical-op workloads, and the
   catalog of per-layer metrics every traced run prints. *)

open Common

(* Every per-layer metric, in output order.  A traced run reports all of
   them; a layer the workload never calls reads 0. *)
let catalog =
  [
    ("parse.ms", "ms");
    ("lint.ms", "ms");
    ("lint.runs", "count");
    ("precheck.ms", "ms");
    ("precheck.decided_frac", "ratio");
    ("fixpoint.ms", "ms");
    ("report.ms", "ms");
    ("holistic.runs", "count");
    ("holistic.rounds", "count");
    ("fixpoint.calls", "count");
    ("fixpoint.iters.total", "count");
    ("delta.closure_flows", "count");
    ("delta.skipped_flows", "count");
    ("delta.rounds_saved", "count");
    ("delta.cold_fallbacks", "count");
    ("survive.case_ms", "ms");
    ("survive.cases", "count");
    ("faults.flows_rerouted", "count");
    ("faults.flows_shed", "count");
    ("session.apply_ms.admit", "ms");
    ("session.apply_ms.remove", "ms");
    ("session.apply_ms.update", "ms");
    ("session.apply_ms.fail", "ms");
    ("session.apply_ms.restore", "ms");
    ("session.warm_frac", "ratio");
    ("daemon.rtt_ms", "ms");
    ("daemon.apply_ms", "ms");
    ("daemon.overhead_ms", "ms");
    ("journal.append_ms", "ms");
    ("codec.us", "us");
    ("exec.memo_hits", "count");
    ("lat_p90_ms", "ms");
    ("lat_samples", "count");
    ("trace.overhead_ratio", "ratio");
  ]

(* Registry counters read around each traced op, under their
   per-layer names. *)
let counters =
  [
    ("lint.runs", "lint.runs");
    ("holistic.runs", "holistic.runs");
    ("fixpoint.calls", "fixpoint.calls");
    ("fixpoint.iters.total", "fixpoint.iters.total");
    ("exec.memo_hits", "exec.memo_hits");
    ("delta.closure_flows", "delta.closure_flows");
    ("delta.skipped_flows", "delta.flows_skipped");
    ("delta.rounds_saved", "delta.rounds_saved");
    ("delta.cold_fallbacks", "delta.cold_fallbacks");
    ("survive.cases", "survive.cases");
    ("faults.flows_rerouted", "faults.flows_rerouted");
    ("faults.flows_shed", "faults.flows_shed");
  ]

(* Runs [f] with the default registry on, counting from zero, and
   returns its result with the counts it recorded.  The reset also drops
   the histogram samples the registry would otherwise keep for the whole
   run. *)
let counted f =
  let reg = Gmf_obs.Metrics.default in
  Gmf_obs.Metrics.reset reg;
  Gmf_obs.Metrics.set_enabled reg true;
  let r =
    Fun.protect ~finally:(fun () -> Gmf_obs.Metrics.set_enabled reg false) f
  in
  ( r,
    List.map
      (fun (metric, c) ->
        (metric, Gmf_obs.Metrics.counter_value (Gmf_obs.Metrics.counter reg c)))
      counters )

let memo_hits counts =
  Option.value ~default:0 (List.assoc_opt "exec.memo_hits" counts)

(* Fill the catalog: [values] wins, everything else reads 0. *)
let layer_metrics values =
  List.map
    (fun (name, unit) ->
      (name, Option.value ~default:0. (List.assoc_opt name values), unit))
    catalog

(* Median per-op value of each counter over the traced ops. *)
let counter_medians per_op =
  match per_op with
  | [] -> []
  | first :: _ ->
      List.map
        (fun (name, _) ->
          ( name,
            median
              (List.map
                 (fun d -> float_of_int (List.assoc name d))
                 per_op) ))
        first

(* Identical-op workloads (analyze, survive).  The first op is the
   discarded warm-up whose cold time is [setup_s].  Each later op runs
   after [isolate].  A traced run alternates plain and traced ops, so
   [trace.overhead_ratio] compares like with like. *)
let batch ~seconds ~traced ~observe ~expected ~op ~layers ~spans ~extra =
  let check out = observe out = expected in
  isolate ();
  Speed.probe ();
  let warm, setup_ns = time (fun () -> op ?trace:None ()) in
  let setup_s = ref nan in
  Speed.record (float_of_int setup_ns /. 1e9) (fun v -> setup_s := v);
  let observed = observe warm in
  let problems =
    if observed = expected then []
    else [ "warm-up op output differs from the recorded digest" ]
  in
  (* Plain op latencies scaled to the reference host, and as measured. *)
  let plain = ref [] and plain_raw = ref [] in
  let traced_lat = ref [] and per_op = ref [] in
  let span_ms = Hashtbl.create 8 and workload_layers = ref [] in
  let attempted = ref 0 and failed = ref 0 in
  let min_ops = if traced then 4 else 3 in
  let t_start = now_ns () in
  let i = ref 0 in
  while
    !i < min_ops || float_of_int (now_ns () - t_start) /. 1e9 < seconds
  do
    let tracing = traced && !i mod 2 = 1 in
    isolate ();
    Speed.probe ();
    incr attempted;
    (if tracing then begin
       let n0 = List.length (Gmf_obs.Tracer.spans Trace.tracer) in
       match counted (fun () -> time (fun () -> op ?trace:(Some !i) ())) with
       | (out, ns), deltas ->
           traced_lat := ms_of_ns ns :: !traced_lat;
           per_op := deltas :: !per_op;
           workload_layers := layers out;
           List.iteri
             (fun k (s : Gmf_obs.Tracer.span) ->
               if k >= n0 then
                 Hashtbl.replace span_ms s.name
                   (ms_of_ns s.dur_ns
                   :: Option.value ~default:[]
                        (Hashtbl.find_opt span_ms s.name)))
             (Gmf_obs.Tracer.spans Trace.tracer);
           if not (check out) || memo_hits deltas > 0 then incr failed
       | exception e ->
           prerr_endline ("op raised: " ^ Printexc.to_string e);
           incr failed
     end
     else
       match time (fun () -> op ?trace:None ()) with
       | out, ns ->
           plain_raw := ms_of_ns ns :: !plain_raw;
           Speed.record (ms_of_ns ns) (fun v -> plain := v :: !plain);
           if not (check out) then incr failed
       | exception e ->
           prerr_endline ("op raised: " ^ Printexc.to_string e);
           incr failed);
    incr i
  done;
  Speed.probe ();
  let lat = !plain and raw = !plain_raw in
  let e2e =
    [
      ("setup_s", !setup_s, "s");
      ( "ops_per_s",
        float_of_int (List.length lat) /. (sum lat /. 1e3),
        "1/s" );
      ("lat_p50_ms", median lat, "ms");
      ("peak_rss_mb", peak_rss_mb (), "MB");
    ]
  in
  let layer_values =
    if not traced then []
    else
      (* First binding wins: workload values, then run totals, then
         span and counter medians. *)
      !workload_layers
      @ [
          ( "exec.memo_hits",
            float_of_int
              (List.fold_left (fun a d -> a + memo_hits d) 0 !per_op) );
          ("lat_p90_ms", percentile 90. raw);
          ("lat_samples", float_of_int (List.length raw));
          ("trace.overhead_ratio", median !traced_lat /. median raw);
        ]
      @ List.map
          (fun s ->
            ( s ^ ".ms",
              median (Option.value ~default:[] (Hashtbl.find_opt span_ms s)) ))
          spans
      @ counter_medians !per_op
  in
  {
    attempted = !attempted;
    failed = !failed;
    problems;
    observed = [ ("output", observed) ];
    e2e;
    extra;
    layers = (if traced then layer_metrics layer_values else []);
  }
