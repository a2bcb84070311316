type report = { diagnostics : Gmf_diag.t list }

let runs = Gmf_obs.Metrics.counter Gmf_obs.Metrics.default "lint.runs"

let flows_reused =
  Gmf_obs.Metrics.counter Gmf_obs.Metrics.default "lint.flows_reused"

(* Counters are interned by name, so re-registering per run is cheap and
   keeps rule implementations free of metrics plumbing. *)
let hit d =
  Gmf_obs.Metrics.incr
    (Gmf_obs.Metrics.counter Gmf_obs.Metrics.default
       ("lint.hits." ^ d.Gmf_diag.code))

let run ?(config = Analysis_config.default) ?table scenario =
  Gmf_obs.Tracer.with_span Gmf_obs.Tracer.default ~cat:"lint" "lint.run"
  @@ fun () ->
  Gmf_obs.Metrics.incr runs;
  let find f =
    Option.bind table (fun t ->
        Gmf_precheck.Reuse.find t ~config scenario [ f ])
  in
  let known =
    List.map (fun f -> (f, find f)) (Traffic.Scenario.flows scenario)
  in
  (* The flows [table] does not cover run their rules in one batch. *)
  let misses =
    List.filter_map
      (fun (f, cached) -> if Option.is_none cached then Some f else None)
      known
  in
  let fresh = Rules.flow_rules ~config scenario misses in
  Option.iter
    (fun t ->
      List.iter2
        (fun f ds -> Gmf_precheck.Reuse.add t ~config scenario [ f ] ds)
        misses fresh)
    table;
  let _, per_flow =
    List.fold_left_map
      (fun fresh (_, cached) ->
        match cached with
        | Some ds ->
            Gmf_obs.Metrics.incr flows_reused;
            (fresh, ds)
        | None -> (List.tl fresh, List.hd fresh))
      fresh known
  in
  let diagnostics =
    Rules.sort (List.concat per_flow @ Rules.fabric_rules ~config scenario)
  in
  List.iter hit diagnostics;
  { diagnostics }

let gate ?(config = Analysis_config.default) ?names scenario =
  Gmf_obs.Tracer.with_span Gmf_obs.Tracer.default ~cat:"lint" "lint.gate"
  @@ fun () ->
  Gmf_obs.Metrics.incr runs;
  let errors = Rules.gate_rules ~config ?names scenario in
  List.iter hit errors;
  errors

let errors r = Gmf_diag.by_severity Gmf_diag.Error r.diagnostics
let warnings r = Gmf_diag.by_severity Gmf_diag.Warning r.diagnostics
let hints r = Gmf_diag.by_severity Gmf_diag.Hint r.diagnostics
let fatal ~deny r = Gmf_diag.at_least deny r.diagnostics <> []
let pp_report fmt r = Gmf_diag.pp_list fmt r.diagnostics
