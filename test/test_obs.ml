(* Tests of the observability library: metrics registry, span tracer,
   exporters. *)
open Gmf_obs
module Json = Gmf_util.Json

(* ---------------- metrics registry ---------------- *)

let test_metrics_disabled_noop () =
  let reg = Metrics.create () in
  Alcotest.(check bool) "disabled by default" false (Metrics.enabled reg);
  let c = Metrics.counter reg "c" in
  let g = Metrics.gauge reg "g" in
  let h = Metrics.histogram reg "h" in
  Metrics.incr c;
  Metrics.incr ~by:10 c;
  Metrics.set_gauge g 3.0;
  Metrics.observe h 5;
  Alcotest.(check int) "counter untouched" 0 (Metrics.counter_value c);
  Alcotest.(check (float 0.)) "gauge untouched" 0. (Metrics.gauge_value g);
  let snap = Metrics.snapshot reg in
  let summary = List.assoc "h" snap.Metrics.histograms in
  Alcotest.(check int) "histogram untouched" 0 summary.Metrics.h_count

let test_metrics_counters_gauges () =
  let reg = Metrics.create ~enabled:true () in
  let c = Metrics.counter reg "events" in
  Metrics.incr c;
  Metrics.incr ~by:41 c;
  Alcotest.(check int) "counter accumulates" 42 (Metrics.counter_value c);
  (* Handles intern: same name yields the same cell. *)
  Metrics.incr (Metrics.counter reg "events");
  Alcotest.(check int) "interned handle" 43 (Metrics.counter_value c);
  let g = Metrics.gauge reg "depth" in
  Metrics.set_gauge g 7.0;
  Metrics.set_gauge g 3.0;
  Alcotest.(check (float 0.)) "gauge holds last" 3.0 (Metrics.gauge_value g);
  Alcotest.(check (float 0.)) "gauge tracks max" 7.0 (Metrics.gauge_max g)

let test_metrics_histogram_bucketing () =
  let reg = Metrics.create ~enabled:true () in
  let h = Metrics.histogram ~bounds:[| 10; 100; 1000 |] reg "lat" in
  List.iter (Metrics.observe h) [ 1; 10; 11; 100; 5_000; 7_000 ];
  let snap = Metrics.snapshot reg in
  let summary = List.assoc "lat" snap.Metrics.histograms in
  Alcotest.(check int) "count" 6 summary.Metrics.h_count;
  Alcotest.(check int) "sum" 12_122 summary.Metrics.h_sum;
  Alcotest.(check (option int)) "min" (Some 1) summary.Metrics.h_min;
  Alcotest.(check (option int)) "max" (Some 7_000) summary.Metrics.h_max;
  Alcotest.(check (list (pair (option int) int)))
    "buckets: <=10 holds 1 and 10; <=100 holds 11 and 100; overflow holds 2"
    [ (Some 10, 2); (Some 100, 2); (Some 1000, 0); (None, 2) ]
    summary.Metrics.h_buckets;
  Alcotest.check_raises "non-increasing bounds"
    (Invalid_argument "Metrics.histogram: bounds not strictly increasing")
    (fun () -> ignore (Metrics.histogram ~bounds:[| 5; 5 |] reg "bad"));
  Alcotest.check_raises "empty bounds"
    (Invalid_argument "Metrics.histogram: empty bounds") (fun () ->
      ignore (Metrics.histogram ~bounds:[||] reg "bad"))

let test_metrics_reset_and_snapshot_order () =
  let reg = Metrics.create ~enabled:true () in
  Metrics.incr (Metrics.counter reg "zeta");
  Metrics.incr (Metrics.counter reg "alpha");
  Metrics.set_gauge (Metrics.gauge reg "g") 2.5;
  let snap = Metrics.snapshot reg in
  Alcotest.(check (list (pair string int)))
    "counters sorted by name"
    [ ("alpha", 1); ("zeta", 1) ]
    snap.Metrics.counters;
  Metrics.reset reg;
  let c = Metrics.counter reg "zeta" in
  Alcotest.(check int) "reset zeroes but keeps handles" 0
    (Metrics.counter_value c);
  Metrics.incr c;
  Alcotest.(check int) "handle live after reset" 1 (Metrics.counter_value c)

(* ---------------- tracer ---------------- *)

(* A deterministic clock: each reading advances by the next step. *)
let stepped_clock steps =
  let remaining = ref steps and now = ref 0 in
  fun () ->
    (match !remaining with
    | [] -> ()
    | s :: rest ->
        now := !now + s;
        remaining := rest);
    !now

let test_tracer_nesting () =
  let clock = stepped_clock [ 100; 10; 10; 10; 10 ] in
  let tr = Tracer.create ~enabled:true ~clock () in
  Tracer.enter tr "outer";
  Tracer.enter ~cat:"analysis" tr "inner";
  Tracer.exit tr;
  Tracer.exit tr;
  match Tracer.spans tr with
  | [ inner; outer ] ->
      (* Spans are recorded at [exit], so the inner span lands first. *)
      Alcotest.(check string) "inner name" "inner" inner.Tracer.name;
      Alcotest.(check string) "inner cat" "analysis" inner.Tracer.cat;
      Alcotest.(check int) "inner depth" 1 inner.Tracer.depth;
      Alcotest.(check int) "inner begin (re-based)" 10 inner.Tracer.begin_ns;
      Alcotest.(check int) "inner duration" 10 inner.Tracer.dur_ns;
      Alcotest.(check int) "outer depth" 0 outer.Tracer.depth;
      Alcotest.(check int) "outer begin" 0 outer.Tracer.begin_ns;
      Alcotest.(check int) "outer spans everything" 30 outer.Tracer.dur_ns
  | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans)

let test_tracer_with_span_and_errors () =
  let tr = Tracer.create ~enabled:true ~clock:(stepped_clock [ 0; 1; 1 ]) () in
  let r = Tracer.with_span tr "work" (fun () -> 99) in
  Alcotest.(check int) "with_span returns" 99 r;
  Alcotest.(check int) "one span" 1 (List.length (Tracer.spans tr));
  (* The span closes even when the body raises. *)
  (try Tracer.with_span tr "boom" (fun () -> failwith "x") with _ -> ());
  Alcotest.(check int) "raised span recorded" 2 (List.length (Tracer.spans tr));
  Alcotest.check_raises "unbalanced exit"
    (Invalid_argument "Tracer.exit: no open span") (fun () -> Tracer.exit tr);
  (* Disabled tracer: everything is a no-op, including exit. *)
  let off = Tracer.create () in
  Tracer.enter off "ignored";
  Tracer.exit off;
  Tracer.exit off;
  Alcotest.(check int) "disabled records nothing" 0 (Tracer.recorded off)

let test_tracer_ring_and_aggregate () =
  let tr = Tracer.create ~enabled:true ~capacity:3 () in
  for i = 1 to 5 do
    Tracer.emit tr ~name:"tick" ~begin_ns:(i * 10) ~end_ns:((i * 10) + i)
  done;
  Alcotest.(check int) "recorded counts all" 5 (Tracer.recorded tr);
  Alcotest.(check int) "dropped = recorded - capacity" 2 (Tracer.dropped tr);
  let retained = Tracer.spans tr in
  Alcotest.(check (list int)) "ring keeps newest, oldest first"
    [ 30; 40; 50 ]
    (List.map (fun s -> s.Tracer.begin_ns) retained);
  (* Aggregates survive ring overwrite: durations 1+2+3+4+5 = 15. *)
  Alcotest.(check (list (triple string int int)))
    "aggregate over all recorded"
    [ ("tick", 5, 15) ]
    (Tracer.aggregate tr);
  Tracer.reset tr;
  Alcotest.(check int) "reset clears" 0 (Tracer.recorded tr);
  Alcotest.(check bool) "reset keeps enabled" true (Tracer.enabled tr)

let test_tracer_emit_validation () =
  let tr = Tracer.create ~enabled:true () in
  Alcotest.check_raises "backwards span"
    (Invalid_argument "Tracer.emit: span ends before it begins") (fun () ->
      Tracer.emit tr ~name:"bad" ~begin_ns:10 ~end_ns:5);
  Alcotest.check_raises "bad capacity"
    (Invalid_argument "Tracer.create: non-positive capacity") (fun () ->
      ignore (Tracer.create ~capacity:0 ()))

(* ---------------- exporters ---------------- *)

let test_export_jsonl_roundtrip () =
  let span =
    {
      Tracer.name = "stage \"in\"\n4";
      cat = "analysis";
      tid = 3;
      begin_ns = 1_234;
      dur_ns = 567;
      depth = 2;
    }
  in
  (match Export.span_of_jsonl (Export.span_to_jsonl span) with
  | Ok parsed ->
      Alcotest.(check string) "name survives escaping" span.Tracer.name
        parsed.Tracer.name;
      Alcotest.(check bool) "full round-trip" true (parsed = span)
  | Error e -> Alcotest.failf "round-trip failed: %s" e);
  (* A \u escape decodes to UTF-8, not to the raw Latin-1 byte. *)
  (match
     Export.span_of_jsonl
       {|{"name":"\u00e9","cat":"c","tid":0,"begin_ns":0,"dur_ns":0,"depth":0}|}
   with
  | Ok parsed ->
      Alcotest.(check string) "u00e9 is UTF-8" "\xc3\xa9" parsed.Tracer.name
  | Error e -> Alcotest.failf "escaped name: %s" e);
  (* Malformed lines are an [Error], never an exception. *)
  List.iter
    (fun line ->
      match Export.span_of_jsonl line with
      | Ok _ -> Alcotest.failf "%S must not parse" line
      | Error _ -> ())
    [
      "{\"name\":\"x\""; "not json"; "{\"id\":-}";
      "{\"tid\":99999999999999999999}";
    ]

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let test_export_chrome_trace () =
  let tr = Tracer.create ~enabled:true () in
  Tracer.emit tr ~cat:"packet" ~tid:2 ~name:"video#0" ~begin_ns:1_000
    ~end_ns:3_500;
  let doc = Export.chrome_trace (Tracer.spans tr) in
  Alcotest.(check bool) "has traceEvents" true (contains doc "\"traceEvents\"");
  Alcotest.(check bool) "complete event" true (contains doc "\"ph\":\"X\"");
  (* 1000 ns -> 1.000 us, 2500 ns -> 2.500 us. *)
  Alcotest.(check bool) "ts in microseconds" true (contains doc "\"ts\":1.000");
  Alcotest.(check bool) "dur in microseconds" true
    (contains doc "\"dur\":2.500");
  Alcotest.(check bool) "tid preserved" true (contains doc "\"tid\":2")

let test_export_metrics_formats () =
  let reg = Metrics.create ~enabled:true () in
  Metrics.incr ~by:5 (Metrics.counter reg "sim.events");
  Metrics.set_gauge (Metrics.gauge reg "heap") 12.0;
  Metrics.observe (Metrics.histogram ~bounds:[| 2; 4 |] reg "iters") 3;
  let snap = Metrics.snapshot reg in
  let jsonl = Export.metrics_to_jsonl snap in
  Alcotest.(check bool) "counter line" true
    (contains jsonl "\"metric\":\"sim.events\"");
  Alcotest.(check bool) "counter kind" true
    (contains jsonl "\"kind\":\"counter\"");
  Alcotest.(check bool) "histogram buckets" true (contains jsonl "\"le\":2");
  Alcotest.(check bool) "overflow bucket" true (contains jsonl "\"le\":null");
  let tables = Export.metrics_tables snap in
  Alcotest.(check bool) "table mentions counter" true
    (contains tables "sim.events");
  Alcotest.(check bool) "table mentions histogram" true
    (contains tables "iters");
  Alcotest.(check string) "no metrics, no tables" ""
    (Export.metrics_tables (Metrics.snapshot (Metrics.create ())));
  let phases = Export.phase_table [ ("holistic.round", 4, 8_000) ] in
  Alcotest.(check bool) "phase table has name" true
    (contains phases "holistic.round");
  Alcotest.(check string) "no phases, no table" "" (Export.phase_table [])

let test_histogram_percentiles () =
  let reg = Metrics.create ~enabled:true () in
  let h = Metrics.histogram ~bounds:[| 10; 1_000 |] reg "lat" in
  for i = 100 downto 1 do
    Metrics.observe h i
  done;
  let summary = List.assoc "lat" (Metrics.snapshot reg).Metrics.histograms in
  Alcotest.(check (option int)) "p50 nearest-rank" (Some 50)
    summary.Metrics.h_p50;
  Alcotest.(check (option int)) "p95 nearest-rank" (Some 95)
    summary.Metrics.h_p95;
  let empty = Metrics.histogram ~bounds:[| 10 |] reg "never" in
  ignore empty;
  let summary = List.assoc "never" (Metrics.snapshot reg).Metrics.histograms in
  Alcotest.(check (option int)) "empty p50" None summary.Metrics.h_p50;
  Alcotest.(check (option int)) "empty p95" None summary.Metrics.h_p95

(* ---------------- generic JSON reader ---------------- *)

let test_json_parse () =
  let doc =
    "{\"a\": {\"b\": [1, 2.5, -3e2]}, \"s\": \"q\\\"\\u0041\\ud83d\\ude00\", \
     \"t\": true, \"n\": null}"
  in
  (match Json.of_string doc with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok v ->
      (match Json.member "s" v with
      | Some (Json.Str s) ->
          (* A = A; the surrogate pair decodes to 4 UTF-8 bytes. *)
          Alcotest.(check string) "string escapes" "q\"A\xf0\x9f\x98\x80" s
      | _ -> Alcotest.fail "member s");
      Alcotest.(check (list (pair string (float 0.))))
        "number leaves with dotted paths"
        [ ("a.b.0", 1.); ("a.b.1", 2.5); ("a.b.2", -300.) ]
        (Json.number_leaves v));
  (match Json.of_string "{\"a\":1} trailing" with
  | Ok _ -> Alcotest.fail "trailing garbage must not parse"
  | Error _ -> ());
  match Json.of_string "{\"a\":}" with
  | Ok _ -> Alcotest.fail "missing value must not parse"
  | Error _ -> ()

(* ---------------- escaping fuzz ---------------- *)

(* Hostile span names: quotes, backslashes, control characters, raw
   UTF-8, printable noise.  [QCheck.string] draws from the full byte
   range, which covers all of them. *)
let prop_span_jsonl_roundtrip =
  QCheck.Test.make ~name:"span jsonl round-trip survives hostile names"
    ~count:500
    QCheck.(pair string string)
    (fun (name, cat) ->
      let span =
        { Tracer.name; cat; tid = 2; begin_ns = 40; dur_ns = 7; depth = 1 }
      in
      match Export.span_of_jsonl (Export.span_to_jsonl span) with
      | Ok parsed -> parsed = span
      | Error e ->
          QCheck.Test.fail_reportf "no parse for %S: %s" name e)

(* Every JSON document or line gmfnet emits must parse, whatever the
   flow and node names hold: quote, backslash, tab, CR, newline, \x01
   and multi-byte UTF-8.  The scenario is built through the programmatic
   API, so no grammar sanitizes the names first. *)
let hostile_name =
  let pieces =
    [
      "a"; "\""; "\\"; "\t"; "\r"; "\n"; "\x01"; "\xc3\xa9";
      "\xf0\x9f\x98\x80"; " ";
    ]
  in
  QCheck.make ~print:(Printf.sprintf "%S")
    QCheck.Gen.(
      map (String.concat "") (list_size (int_range 1 4) (oneofl pieces)))

(* Two endhosts joined by two parallel switches, so a k=1 sweep fails a
   switch and reroutes across the other; two flows share a route, so
   explain charges one as the other's interferer. *)
let hostile_scenario names =
  let name i =
    Printf.sprintf "%s%d" (List.nth names (i mod List.length names)) i
  in
  let topo = Network.Topology.create () in
  let node i kind = Network.Topology.add_node topo ~name:(name i) ~kind in
  let h0 = node 0 Network.Node.Endhost and h1 = node 1 Network.Node.Endhost in
  let sa = node 2 Network.Node.Switch and sb = node 3 Network.Node.Switch in
  List.iter
    (fun (a, b) ->
      Network.Topology.add_duplex_link topo ~a ~b ~rate_bps:100_000_000 ~prop:0)
    [ (h0, sa); (sa, h1); (h0, sb); (sb, h1) ];
  let flow id priority =
    Traffic.Flow.make ~id ~name:(name (4 + id))
      ~spec:(Workload.Voip.g711_spec ()) ~encap:Ethernet.Encap.Rtp_udp
      ~route:(Network.Route.make topo [ h0; sa; h1 ]) ~priority
  in
  (topo, [ flow 0 6; flow 1 5 ])

(* [pairs] are arbitrary (name, cat) byte strings — 0x00-0xff, invalid
   UTF-8 included — for the emitters that take any string; [names] are
   the hostile names above, also used to name a scenario's nodes and
   flows for the analysis reports. *)
let prop_chrome_trace_valid_json =
  QCheck.Test.make ~name:"chrome_trace escapes into valid JSON" ~count:200
    QCheck.(pair (small_list (pair string string)) (small_list hostile_name))
    (fun (pairs, names) ->
      let names = if names = [] then [ "" ] else names in
      let strings =
        names @ List.concat_map (fun (name, cat) -> [ name; cat ]) pairs
      in
      let parses what doc =
        match Json.of_string doc with
        | Ok _ -> ()
        | Error e ->
            QCheck.Test.fail_reportf "%s does not parse: %s\n%s" what e doc
      in
      let lines_parse what text =
        String.split_on_char '\n' text
        |> List.iter (fun l -> if l <> "" then parses what l)
      in
      (* Tracer and metrics exports. *)
      let tr = Tracer.create ~enabled:true () in
      let reg = Metrics.create ~enabled:true () in
      List.iteri
        (fun i (name, cat) ->
          Tracer.emit tr ~cat ~tid:(i mod 3) ~name ~begin_ns:(i * 10)
            ~end_ns:((i * 10) + 5))
        (pairs @ List.map (fun name -> (name, name)) names);
      List.iteri
        (fun i name ->
          Metrics.incr (Metrics.counter reg ("c" ^ name));
          Metrics.set_gauge (Metrics.gauge reg ("g" ^ name)) 1.5;
          Metrics.observe (Metrics.histogram reg ("h" ^ name)) i)
        strings;
      parses "chrome_trace" (Export.chrome_trace (Tracer.spans tr));
      lines_parse "metrics_to_jsonl"
        (Export.metrics_to_jsonl (Metrics.snapshot reg));
      List.iter
        (fun span ->
          if Export.span_of_jsonl (Export.span_to_jsonl span) <> Ok span then
            QCheck.Test.fail_reportf "span %S does not round-trip"
              span.Tracer.name)
        (Tracer.spans tr);
      (* Analysis reports over a scenario named by the generator. *)
      let topo, flows = hostile_scenario names in
      let scenario = Traffic.Scenario.make ~topo ~flows () in
      parses "precheck"
        Gmf_precheck.Precheck.(to_json (run scenario));
      parses "survive"
        (Format.asprintf "%a"
           (Gmf_faults.Survive.pp_json scenario)
           (Gmf_faults.Survive.run ~k:1 scenario));
      parses "explain"
        Gmf_explain.(Render.to_json (fst (Attribution.analyze scenario)));
      let diags =
        (Gmf_lint.Lint.run scenario).Gmf_lint.Lint.diagnostics
        @ List.map
            (fun name ->
              Gmf_diag.warning ~code:"GMF999" ~suggestion:name
                ~subject:(Gmf_diag.Node { id = 0; name }) "%s" name)
            strings
      in
      if Gmf_lint.Lint_json.(of_jsonl (to_jsonl diags)) <> Ok diags then
        QCheck.Test.fail_report "lint JSONL does not round-trip";
      let session = Gmf_admctl.Session.create ~explain:true ~topo () in
      List.iter
        (fun f ->
          parses "session outcome"
            Gmf_admctl.(Replay.outcome_jsonl (Session.apply session (Admit f))))
        flows;
      (* Daemon wire codec. *)
      let module Codec = Scenario_io.Admtrace_jsonl in
      List.iter
        (fun name ->
          let req =
            Codec.Open
              { session = name; topology = name; verify = false;
                explain = false; cold = false; survivable = None;
                throttle_s = 0. }
          in
          List.iter
            (fun req ->
              if Codec.decode_request (Codec.encode_request req) <> Ok req then
                QCheck.Test.fail_reportf "request %S does not round-trip" name)
            [ req; Codec.Event { text = name } ];
          List.iter
            (fun resp ->
              if Codec.decode_response (Codec.encode_response resp) <> Ok resp
              then
                QCheck.Test.fail_reportf "response %S does not round-trip" name)
            [
              Codec.Outcome
                { seq = 1; label = name; accepted = true; text = name };
              Codec.Rejected { code = name; message = name };
            ])
        strings;
      true)

let tests =
  [
    Alcotest.test_case "metrics disabled no-op" `Quick
      test_metrics_disabled_noop;
    Alcotest.test_case "counters and gauges" `Quick
      test_metrics_counters_gauges;
    Alcotest.test_case "histogram bucketing" `Quick
      test_metrics_histogram_bucketing;
    Alcotest.test_case "reset and snapshot order" `Quick
      test_metrics_reset_and_snapshot_order;
    Alcotest.test_case "span nesting" `Quick test_tracer_nesting;
    Alcotest.test_case "with_span and errors" `Quick
      test_tracer_with_span_and_errors;
    Alcotest.test_case "ring buffer and aggregate" `Quick
      test_tracer_ring_and_aggregate;
    Alcotest.test_case "emit validation" `Quick test_tracer_emit_validation;
    Alcotest.test_case "jsonl round-trip" `Quick test_export_jsonl_roundtrip;
    Alcotest.test_case "chrome trace format" `Quick test_export_chrome_trace;
    Alcotest.test_case "metrics export formats" `Quick
      test_export_metrics_formats;
    Alcotest.test_case "histogram percentiles" `Quick
      test_histogram_percentiles;
    Alcotest.test_case "generic json reader" `Quick test_json_parse;
    QCheck_alcotest.to_alcotest prop_span_jsonl_roundtrip;
    QCheck_alcotest.to_alcotest prop_chrome_trace_valid_json;
  ]
