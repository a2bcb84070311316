open Gmf_util

let verdict_line (attr : Attribution.t) =
  Format.asprintf "verdict: %a (after %d round%s)" Analysis.Holistic.pp_verdict
    attr.Attribution.verdict attr.Attribution.rounds
    (if attr.Attribution.rounds = 1 then "" else "s")

let ns = Timeunit.to_string

let summary_table (attr : Attribution.t) =
  let table =
    Tablefmt.create
      ~columns:
        [
          ("flow", Tablefmt.Left); ("prio", Tablefmt.Right);
          ("frame", Tablefmt.Right); ("bound", Tablefmt.Right);
          ("deadline", Tablefmt.Right); ("slack", Tablefmt.Right);
          ("binding hop", Tablefmt.Left); ("binding interferer", Tablefmt.Left);
        ]
  in
  List.iter
    (fun (af : Attribution.flow_attr) ->
      let fa = Attribution.worst_frame af in
      Tablefmt.add_row table
        [
          af.Attribution.af_flow.Traffic.Flow.name;
          string_of_int af.Attribution.af_flow.Traffic.Flow.priority;
          string_of_int fa.Attribution.fa_frame;
          ns fa.Attribution.fa_total;
          ns fa.Attribution.fa_deadline;
          ns (Attribution.slack fa);
          (match Attribution.binding_hop fa with
          | Some h -> Format.asprintf "%a" Analysis.Stage.pp h.Attribution.hop_stage
          | None -> "-");
          (match Attribution.binding_interferer fa with
          | Some (_, name, total) -> Printf.sprintf "%s (%s)" name (ns total)
          | None -> "-");
        ])
    attr.Attribution.flows;
  Tablefmt.render table

let hop_rows table (fa : Attribution.frame_attr) =
  List.iter
    (fun (h : Attribution.hop) ->
      let interference =
        List.fold_left
          (fun acc i -> acc + Attribution.if_total i)
          0 h.Attribution.hop_interference
      in
      Tablefmt.add_row table
        [
          Format.asprintf "%a" Analysis.Stage.pp h.Attribution.hop_stage;
          ns h.Attribution.hop_response;
          ns h.Attribution.hop_transmission;
          ns h.Attribution.hop_software;
          ns h.Attribution.hop_blocking;
          ns h.Attribution.hop_own_carry;
          ns interference;
          Printf.sprintf "q=%d l=%d" h.Attribution.hop_q h.Attribution.hop_l;
        ])
    fa.Attribution.fa_hops

let interference_rows table (fa : Attribution.frame_attr) =
  List.iter
    (fun (h : Attribution.hop) ->
      List.iter
        (fun (i : Attribution.interferer) ->
          Tablefmt.add_row table
            [
              Format.asprintf "%a" Analysis.Stage.pp h.Attribution.hop_stage;
              Printf.sprintf "%s (#%d)" i.Attribution.if_name
                i.Attribution.if_id;
              i.Attribution.if_pattern;
              string_of_int i.Attribution.if_frames;
              ns i.Attribution.if_link;
              ns i.Attribution.if_cpu;
              ns (Attribution.if_total i);
            ])
        h.Attribution.hop_interference)
    fa.Attribution.fa_hops

let detail ?flow (attr : Attribution.t) =
  let selected =
    match flow with
    | Some id ->
        List.filter
          (fun (af : Attribution.flow_attr) ->
            af.Attribution.af_flow.Traffic.Flow.id = id)
          attr.Attribution.flows
    | None -> (
        (* No selection: detail the scenario's worst flow only, so the
           default output stays bounded on large flow sets. *)
        match Attribution.summarize attr with
        | None -> []
        | Some s ->
            List.filter
              (fun (af : Attribution.flow_attr) ->
                af.Attribution.af_flow.Traffic.Flow.id
                = s.Attribution.s_flow_id)
              attr.Attribution.flows)
  in
  selected
  |> List.concat_map (fun (af : Attribution.flow_attr) ->
         af.Attribution.af_frames
         |> List.map (fun (fa : Attribution.frame_attr) ->
                let header =
                  Printf.sprintf "%s frame %d: jitter %s + hops = %s (deadline %s, slack %s)"
                    af.Attribution.af_flow.Traffic.Flow.name
                    fa.Attribution.fa_frame
                    (ns fa.Attribution.fa_jitter)
                    (ns fa.Attribution.fa_total)
                    (ns fa.Attribution.fa_deadline)
                    (ns (Attribution.slack fa))
                in
                let hops =
                  Tablefmt.create
                    ~columns:
                      [
                        ("hop", Tablefmt.Left); ("response", Tablefmt.Right);
                        ("xmit", Tablefmt.Right); ("software", Tablefmt.Right);
                        ("blocking", Tablefmt.Right); ("own", Tablefmt.Right);
                        ("interference", Tablefmt.Right);
                        ("witness", Tablefmt.Left);
                      ]
                in
                hop_rows hops fa;
                let parts = [ header; Tablefmt.render hops ] in
                let has_interference =
                  List.exists
                    (fun (h : Attribution.hop) ->
                      h.Attribution.hop_interference <> [])
                    fa.Attribution.fa_hops
                in
                let parts =
                  if not has_interference then parts
                  else begin
                    let itable =
                      Tablefmt.create
                        ~columns:
                          [
                            ("hop", Tablefmt.Left); ("interferer", Tablefmt.Left);
                            ("pattern", Tablefmt.Left);
                            ("frames", Tablefmt.Right); ("link", Tablefmt.Right);
                            ("cpu", Tablefmt.Right); ("total", Tablefmt.Right);
                          ]
                    in
                    interference_rows itable fa;
                    parts @ [ Tablefmt.render itable ]
                  end
                in
                String.concat "\n" parts))
  |> String.concat "\n"

let rejection ?(hints = []) (attr : Attribution.t) =
  match attr.Attribution.verdict with
  | Analysis.Holistic.Schedulable -> ""
  | verdict ->
      let buf = Buffer.create 256 in
      Buffer.add_string buf
        (Format.asprintf "rejected: %a\n" Analysis.Holistic.pp_verdict verdict);
      (match Attribution.summarize attr with
      | Some s when s.Attribution.s_slack < 0 ->
          Buffer.add_string buf
            (Printf.sprintf
               "binding constraint: flow %s frame %d bound %s exceeds deadline %s at %s\n"
               s.Attribution.s_flow s.Attribution.s_frame
               (ns s.Attribution.s_total) (ns s.Attribution.s_deadline)
               s.Attribution.s_hop);
          (match s.Attribution.s_interferer with
          | Some (id, name, total) ->
              Buffer.add_string buf
                (Printf.sprintf "binding interferer: %s (#%d), charging %s\n"
                   name id (ns total))
          | None -> ())
      | _ ->
          (match verdict with
          | Analysis.Holistic.Analysis_failed (f :: _)
          | Analysis.Holistic.Deadline_miss (f :: _) ->
              Buffer.add_string buf
                (Format.asprintf "binding constraint: %a\n"
                   Analysis.Result_types.pp_failure f)
          | _ -> ()));
      List.iter
        (fun hint ->
          Buffer.add_string buf
            (Printf.sprintf "nearest feasible: %s\n" (Hints.describe hint)))
        hints;
      Buffer.contents buf

(* ---------------- JSON ---------------- *)

let json_interferer buf (i : Attribution.interferer) =
  Buffer.add_string buf
    (Printf.sprintf
       "{\"flow\":%d,\"name\":%s,\"pattern\":%s,\"frames\":%d,\"link_ns\":%d,\"cpu_ns\":%d,\"total_ns\":%d}"
       i.Attribution.if_id
       (Json.quote i.Attribution.if_name)
       (Json.quote i.Attribution.if_pattern)
       i.Attribution.if_frames i.Attribution.if_link i.Attribution.if_cpu
       (Attribution.if_total i))

let json_hop buf (h : Attribution.hop) =
  Buffer.add_string buf
    (Printf.sprintf
       "{\"stage\":%s,\"response_ns\":%d,\"min_response_ns\":%d,\"transmission_ns\":%d,\"software_ns\":%d,\"blocking_ns\":%d,\"own_carry_ns\":%d,\"q\":%d,\"l\":%d,\"window_ns\":%d,\"residual_ns\":%d,\"interference\":["
       (Json.quote
          (Format.asprintf "%a" Analysis.Stage.pp h.Attribution.hop_stage))
       h.Attribution.hop_response h.Attribution.hop_min_response
       h.Attribution.hop_transmission h.Attribution.hop_software
       h.Attribution.hop_blocking h.Attribution.hop_own_carry
       h.Attribution.hop_q h.Attribution.hop_l h.Attribution.hop_window
       h.Attribution.hop_residual);
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char buf ',';
      json_interferer buf x)
    h.Attribution.hop_interference;
  Buffer.add_string buf "]}"

let json_frame buf (fa : Attribution.frame_attr) =
  Buffer.add_string buf
    (Printf.sprintf
       "{\"frame\":%d,\"release_jitter_ns\":%d,\"total_ns\":%d,\"deadline_ns\":%d,\"slack_ns\":%d,\"exact\":%b,\"hops\":["
       fa.Attribution.fa_frame fa.Attribution.fa_jitter
       fa.Attribution.fa_total fa.Attribution.fa_deadline
       (Attribution.slack fa)
       (Attribution.frame_exact fa));
  List.iteri
    (fun i h ->
      if i > 0 then Buffer.add_char buf ',';
      json_hop buf h)
    fa.Attribution.fa_hops;
  Buffer.add_string buf "],";
  (match Attribution.binding_hop fa with
  | Some h ->
      Buffer.add_string buf
        (Printf.sprintf "\"binding_hop\":%s,"
           (Json.quote
              (Format.asprintf "%a" Analysis.Stage.pp h.Attribution.hop_stage)))
  | None -> Buffer.add_string buf "\"binding_hop\":null,");
  (match Attribution.binding_interferer fa with
  | Some (id, name, total) ->
      Buffer.add_string buf
        (Printf.sprintf
           "\"binding_interferer\":{\"flow\":%d,\"name\":%s,\"total_ns\":%d}}"
           id (Json.quote name) total)
  | None -> Buffer.add_string buf "\"binding_interferer\":null}")

let json_hint buf = function
  | Hints.Payload_scale s ->
      Buffer.add_string buf
        (Printf.sprintf "{\"kind\":\"payload_scale\",\"scale\":%.4f}" s)
  | Hints.Priority p ->
      Buffer.add_string buf
        (Printf.sprintf "{\"kind\":\"priority\",\"priority\":%d}" p)

let to_json ?flow ?(hints = []) (attr : Attribution.t) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "{\"verdict\":\"%s\",\"rounds\":%d,\"flows\":["
       (Analysis.Holistic.verdict_tag attr.Attribution.verdict)
       attr.Attribution.rounds);
  let flows =
    match flow with
    | None -> attr.Attribution.flows
    | Some id ->
        List.filter
          (fun (af : Attribution.flow_attr) ->
            af.Attribution.af_flow.Traffic.Flow.id = id)
          attr.Attribution.flows
  in
  List.iteri
    (fun i (af : Attribution.flow_attr) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "{\"flow\":%d,\"name\":%s,\"priority\":%d,\"frames\":["
           af.Attribution.af_flow.Traffic.Flow.id
           (Json.quote af.Attribution.af_flow.Traffic.Flow.name)
           af.Attribution.af_flow.Traffic.Flow.priority);
      List.iteri
        (fun k fa ->
          if k > 0 then Buffer.add_char buf ',';
          json_frame buf fa)
        af.Attribution.af_frames;
      Buffer.add_string buf "]}")
    flows;
  Buffer.add_string buf "],";
  (match Attribution.summarize attr with
  | Some s ->
      Buffer.add_string buf
        (Printf.sprintf
           "\"worst\":{\"flow\":%d,\"name\":%s,\"frame\":%d,\"slack_ns\":%d,\"hop\":%s},"
           s.Attribution.s_flow_id
           (Json.quote s.Attribution.s_flow)
           s.Attribution.s_frame s.Attribution.s_slack
           (Json.quote s.Attribution.s_hop))
  | None -> Buffer.add_string buf "\"worst\":null,");
  Buffer.add_string buf "\"hints\":[";
  List.iteri
    (fun i h ->
      if i > 0 then Buffer.add_char buf ',';
      json_hint buf h)
    hints;
  Buffer.add_string buf "]}";
  Buffer.add_string buf "\n";
  Buffer.contents buf
