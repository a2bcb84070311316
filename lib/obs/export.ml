open Gmf_util

(* ---------------- span JSON-lines ---------------- *)

let span_to_jsonl (s : Tracer.span) =
  Json.to_string
    (Json.Obj
       [
         ("name", Json.Str s.Tracer.name);
         ("cat", Json.Str s.Tracer.cat);
         ("tid", Json.Int s.Tracer.tid);
         ("begin_ns", Json.Int s.Tracer.begin_ns);
         ("dur_ns", Json.Int s.Tracer.dur_ns);
         ("depth", Json.Int s.Tracer.depth);
       ])

let span_of_jsonl line =
  let ( let* ) = Result.bind in
  let* j = Json.of_string line in
  let str = Json.str_field j and int = Json.int_field j in
  let* name = str "name" in
  let* cat = str "cat" in
  let* tid = int "tid" in
  let* begin_ns = int "begin_ns" in
  let* dur_ns = int "dur_ns" in
  let* depth = int "depth" in
  Ok { Tracer.name; cat; tid; begin_ns; dur_ns; depth }

(* ---------------- metrics JSON-lines ---------------- *)

let metrics_to_jsonl (snap : Metrics.snapshot) =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (name, value) ->
      Buffer.add_string buf
        (Printf.sprintf "{\"metric\":%s,\"kind\":\"counter\",\"value\":%d}\n"
           (Json.quote name) value))
    snap.Metrics.counters;
  List.iter
    (fun (name, last, max_v) ->
      Buffer.add_string buf
        (Printf.sprintf
           "{\"metric\":%s,\"kind\":\"gauge\",\"value\":%g,\"max\":%g}\n"
           (Json.quote name) last
           (if max_v = neg_infinity then last else max_v)))
    snap.Metrics.gauges;
  List.iter
    (fun (name, h) ->
      let buckets =
        h.Metrics.h_buckets
        |> List.map (fun (upper, count) ->
               match upper with
               | Some u -> Printf.sprintf "{\"le\":%d,\"count\":%d}" u count
               | None -> Printf.sprintf "{\"le\":null,\"count\":%d}" count)
        |> String.concat ","
      in
      let opt_int = function
        | Some v -> string_of_int v
        | None -> "null"
      in
      Buffer.add_string buf
        (Printf.sprintf
           "{\"metric\":%s,\"kind\":\"histogram\",\"count\":%d,\"sum\":%d,\"p50\":%s,\"p95\":%s,\"buckets\":[%s]}\n"
           (Json.quote name) h.Metrics.h_count h.Metrics.h_sum
           (opt_int h.Metrics.h_p50) (opt_int h.Metrics.h_p95) buckets))
    snap.Metrics.histograms;
  Buffer.contents buf

(* ---------------- Chrome trace_event ---------------- *)

let chrome_trace spans =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  List.iteri
    (fun i (s : Tracer.span) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "\n{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f}"
           (Json.quote s.Tracer.name) (Json.quote s.Tracer.cat) s.Tracer.tid
           (float_of_int s.Tracer.begin_ns /. 1e3)
           (float_of_int s.Tracer.dur_ns /. 1e3)))
    spans;
  Buffer.add_string buf "\n],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents buf

(* ---------------- plain-text tables ---------------- *)

let bucket_cells h =
  h.Metrics.h_buckets
  |> List.filter_map (fun (upper, count) ->
         if count = 0 then None
         else
           Some
             (match upper with
             | Some u -> Printf.sprintf "<=%d:%d" u count
             | None -> Printf.sprintf ">:%d" count))
  |> String.concat " "

let metrics_tables (snap : Metrics.snapshot) =
  let parts = ref [] in
  if snap.Metrics.histograms <> [] then begin
    let table =
      Tablefmt.create
        ~columns:
          [
            ("histogram", Tablefmt.Left); ("count", Tablefmt.Right);
            ("mean", Tablefmt.Right); ("p50", Tablefmt.Right);
            ("p95", Tablefmt.Right); ("max", Tablefmt.Right);
            ("buckets", Tablefmt.Left);
          ]
    in
    let opt_int = function Some v -> string_of_int v | None -> "-" in
    List.iter
      (fun (name, h) ->
        Tablefmt.add_row table
          [
            name;
            string_of_int h.Metrics.h_count;
            (match h.Metrics.h_mean with
            | Some m -> Printf.sprintf "%.1f" m
            | None -> "-");
            opt_int h.Metrics.h_p50;
            opt_int h.Metrics.h_p95;
            opt_int h.Metrics.h_max;
            bucket_cells h;
          ])
      snap.Metrics.histograms;
    parts := Tablefmt.render table :: !parts
  end;
  if snap.Metrics.gauges <> [] then begin
    let table =
      Tablefmt.create
        ~columns:
          [
            ("gauge", Tablefmt.Left); ("value", Tablefmt.Right);
            ("max", Tablefmt.Right);
          ]
    in
    List.iter
      (fun (name, last, max_v) ->
        Tablefmt.add_row table
          [
            name;
            Printf.sprintf "%g" last;
            (if max_v = neg_infinity then "-" else Printf.sprintf "%g" max_v);
          ])
      snap.Metrics.gauges;
    parts := Tablefmt.render table :: !parts
  end;
  if snap.Metrics.counters <> [] then begin
    let table =
      Tablefmt.create
        ~columns:[ ("counter", Tablefmt.Left); ("value", Tablefmt.Right) ]
    in
    List.iter
      (fun (name, value) ->
        Tablefmt.add_row table [ name; string_of_int value ])
      snap.Metrics.counters;
    parts := Tablefmt.render table :: !parts
  end;
  String.concat "\n\n" !parts

let phase_table rows =
  if rows = [] then ""
  else begin
    let table =
      Tablefmt.create
        ~columns:
          [
            ("phase", Tablefmt.Left); ("calls", Tablefmt.Right);
            ("total", Tablefmt.Right); ("mean", Tablefmt.Right);
          ]
    in
    List.iter
      (fun (name, count, total_ns) ->
        Tablefmt.add_row table
          [
            name; string_of_int count; Timeunit.to_string total_ns;
            Timeunit.to_string (if count = 0 then 0 else total_ns / count);
          ])
      rows;
    Tablefmt.render table
  end

let write_file ~path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)
