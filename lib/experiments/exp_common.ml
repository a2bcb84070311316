let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let kv key value = Printf.printf "  %-32s %s\n" (key ^ ":") value

let check_line ~label ~expected ~got =
  Printf.printf "  %-40s paper=%-14s measured=%-14s %s\n" label expected got
    (if expected = got then "ok" else "MISMATCH")

let flow_result report id =
  List.find
    (fun r -> r.Analysis.Result_types.flow.Traffic.Flow.id = id)
    report.Analysis.Holistic.results

let worst_total report id =
  (Analysis.Result_types.worst_frame (flow_result report id))
    .Analysis.Result_types.total

let verdict_string report =
  Format.asprintf "%a" Analysis.Holistic.pp_verdict
    report.Analysis.Holistic.verdict

let ratio a b =
  if b = 0 then "n/a" else Printf.sprintf "%.2f" (float_of_int a /. float_of_int b)

let admitted_among ~offered admitted =
  List.length
    (List.filter (fun (f : Traffic.Flow.t) -> f.Traffic.Flow.id < offered)
       admitted)
