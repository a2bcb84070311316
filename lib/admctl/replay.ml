type result = {
  outcomes : Session.outcome list;
  session : Session.t;
}

let session_event = function
  | Scenario_io.Admtrace.Admit flow -> Session.Admit flow
  | Scenario_io.Admtrace.Remove (id, _) -> Session.Remove id
  | Scenario_io.Admtrace.Update flow -> Session.Update flow
  | Scenario_io.Admtrace.Query -> Session.Query
  | Scenario_io.Admtrace.Fail_link ((a, b), _) -> Session.Fail_link (a, b)
  | Scenario_io.Admtrace.Restore_link ((a, b), _) ->
      Session.Restore_link (a, b)

let run ?config ?shadow ?explain ?survivable ?(on_outcome = fun _ -> ())
    (trace : Scenario_io.Admtrace.t) =
  let session =
    Session.create ?config ?shadow ?explain ?survivable
      ~switches:trace.switches ~topo:trace.topo ()
  in
  let outcomes =
    List.map
      (fun (_line, ev) ->
        let outcome = Session.apply session (session_event ev) in
        on_outcome outcome;
        outcome)
      trace.events
  in
  { outcomes; session }

(* ------------------------------------------------------------------ *)
(* Text rendering                                                     *)
(* ------------------------------------------------------------------ *)

let shadow_string = function
  | None -> ""
  | Some { Session.cold_rounds; equivalent } ->
      Printf.sprintf " shadow=%s cold_rounds=%d"
        (if equivalent then "ok" else "MISMATCH")
        cold_rounds

(* Only fault events carry a degradation; non-fault outcomes render
   byte-identically to pre-fault transcripts. *)
let degradation_string = function
  | None -> ""
  | Some { Session.rerouted; shed } ->
      let names flows =
        String.concat ","
          (List.map (fun (f : Traffic.Flow.t) -> f.Traffic.Flow.name) flows)
      in
      let part label = function
        | [] -> ""
        | flows -> Printf.sprintf " %s=%s" label (names flows)
      in
      Printf.sprintf " rerouted=%d shed=%d%s%s" (List.length rerouted)
        (List.length shed)
        (part "moved" rerouted)
        (part "lost" shed)

(* Explain sessions only; outcomes of plain sessions carry [None] and
   render byte-identically to pre-explain transcripts. *)
let explain_lines = function
  | None -> []
  | Some (s : Gmf_explain.Attribution.summary) ->
      let binding =
        if s.Gmf_explain.Attribution.s_slack < 0 then
          Printf.sprintf
            "     binding: flow %d (%s) frame %d bound %dns exceeds \
             deadline %dns at %s"
            s.Gmf_explain.Attribution.s_flow_id
            s.Gmf_explain.Attribution.s_flow
            s.Gmf_explain.Attribution.s_frame
            s.Gmf_explain.Attribution.s_total
            s.Gmf_explain.Attribution.s_deadline
            s.Gmf_explain.Attribution.s_hop
        else
          Printf.sprintf
            "     binding: flow %d (%s) frame %d slack=%dns at %s"
            s.Gmf_explain.Attribution.s_flow_id
            s.Gmf_explain.Attribution.s_flow
            s.Gmf_explain.Attribution.s_frame
            s.Gmf_explain.Attribution.s_slack
            s.Gmf_explain.Attribution.s_hop
      in
      let interferer =
        match s.Gmf_explain.Attribution.s_interferer with
        | None -> []
        | Some (id, name, charge) ->
            [
              Printf.sprintf
                "     interferer: flow %d (%s) charges %dns" id name charge;
            ]
      in
      binding :: interferer

let outcome_line (o : Session.outcome) =
  let head =
    Printf.sprintf "#%02d %s | %s | %s | rounds=%d start=%s flows=%d%s%s"
      o.Session.seq o.Session.label
      (if o.Session.accepted then "accepted" else "rejected")
      (Format.asprintf "%a" Analysis.Holistic.pp_verdict o.Session.verdict)
      o.Session.rounds
      (Format.asprintf "%a" Session.pp_start o.Session.start)
      o.Session.flow_count
      (shadow_string o.Session.shadow)
      (degradation_string o.Session.degradation)
  in
  (* Hints (e.g. GMF004 on yet-unused links of a young session) would
     drown the transcript; they stay visible in the JSON count. *)
  String.concat "\n"
    ((head
     :: List.map
          (fun d -> "     " ^ Gmf_diag.to_string d)
          (Gmf_diag.at_least Gmf_diag.Warning o.Session.diagnostics))
    @ explain_lines o.Session.explain)

let transcript outcomes =
  String.concat "" (List.map (fun o -> outcome_line o ^ "\n") outcomes)

let mismatches outcomes =
  List.length
    (List.filter
       (fun o ->
         match o.Session.shadow with
         | Some { Session.equivalent = false; _ } -> true
         | _ -> false)
       outcomes)

let pp_summary fmt (s : Session.summary) =
  let kv key value = Format.fprintf fmt "  %-16s %d@\n" (key ^ ":") value in
  kv "events" s.Session.events;
  kv "admitted" s.Session.admitted;
  kv "rejected" s.Session.rejected;
  kv "warm hits" s.Session.warm_hits;
  kv "cold resets" s.Session.cold_resets;
  kv "rounds total" s.Session.rounds_total;
  kv "rounds saved" s.Session.rounds_saved;
  kv "flows admitted" s.Session.flow_count

(* ------------------------------------------------------------------ *)
(* JSON rendering                                                     *)
(* ------------------------------------------------------------------ *)

let outcome_jsonl (o : Session.outcome) =
  let open Gmf_util.Json in
  let fields =
    [
      ("seq", Int o.Session.seq);
      ("event", Str o.Session.label);
      ("accepted", Bool o.Session.accepted);
      ("verdict", Str (Analysis.Holistic.verdict_tag o.Session.verdict));
      ( "failures",
        Int
          (match o.Session.verdict with
          | Analysis.Holistic.Deadline_miss fs
          | Analysis.Holistic.Analysis_failed fs ->
              List.length fs
          | Analysis.Holistic.Schedulable | Analysis.Holistic.No_fixed_point _
            ->
              0) );
      ("rounds", Int o.Session.rounds);
      ("start", Str (Format.asprintf "%a" Session.pp_start o.Session.start));
      ("flows", Int o.Session.flow_count);
      ("diagnostics", Int (List.length o.Session.diagnostics));
    ]
    @ (match o.Session.shadow with
      | None -> []
      | Some { Session.cold_rounds; equivalent } ->
          [
            ("cold_rounds", Int cold_rounds); ("equivalent", Bool equivalent);
          ])
    @ (match o.Session.degradation with
      | None -> []
      | Some { Session.rerouted; shed } ->
          [
            ("rerouted", Int (List.length rerouted));
            ("shed", Int (List.length shed));
          ])
    @
    match o.Session.explain with
    | None -> []
    | Some s ->
        [
          ("worst_flow", Str s.Gmf_explain.Attribution.s_flow);
          ("worst_frame", Int s.Gmf_explain.Attribution.s_frame);
          ("worst_total_ns", Int s.Gmf_explain.Attribution.s_total);
          ("worst_deadline_ns", Int s.Gmf_explain.Attribution.s_deadline);
          ("worst_slack_ns", Int s.Gmf_explain.Attribution.s_slack);
          ("binding_hop", Str s.Gmf_explain.Attribution.s_hop);
        ]
        @ (match s.Gmf_explain.Attribution.s_interferer with
          | None -> []
          | Some (id, name, charge) ->
              [
                ("binding_interferer", Str name);
                ("binding_interferer_id", Int id);
                ("binding_interferer_ns", Int charge);
              ])
  in
  to_string (Obj fields)
