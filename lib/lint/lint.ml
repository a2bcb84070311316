type report = {
  diagnostics : Gmf_diag.t list;
  by_flow : Gmf_diag.t list Gmf_precheck.Reuse.t;
}

let runs = Gmf_obs.Metrics.counter Gmf_obs.Metrics.default "lint.runs"

let flows_reused =
  Gmf_obs.Metrics.counter Gmf_obs.Metrics.default "lint.flows_reused"

(* Counters are interned by name, so re-registering per run is cheap and
   keeps rule implementations free of metrics plumbing. *)
let hit d =
  Gmf_obs.Metrics.incr
    (Gmf_obs.Metrics.counter Gmf_obs.Metrics.default
       ("lint.hits." ^ d.Gmf_diag.code))

let run ?(config = Analysis_config.default) ?prev scenario =
  Gmf_obs.Tracer.with_span Gmf_obs.Tracer.default ~cat:"lint" "lint.run"
  @@ fun () ->
  Gmf_obs.Metrics.incr runs;
  let known =
    List.map
      (fun f ->
        ( f,
          Option.bind prev (fun p ->
              Gmf_precheck.Reuse.find ~prev:p.by_flow ~config scenario f) ))
      (Traffic.Scenario.flows scenario)
  in
  (* The findings of the flows [prev] does not cover, in flow order. *)
  let fresh =
    ref
      (Rules.flow_rules ~config scenario
         (List.filter_map
            (fun (f, c) -> if Option.is_none c then Some f else None)
            known))
  in
  let findings (f, cached) =
    match cached with
    | Some ds ->
        Gmf_obs.Metrics.incr flows_reused;
        (f, ds)
    | None ->
        let ds = List.hd !fresh in
        fresh := List.tl !fresh;
        (f, ds)
  in
  let per_flow = List.map findings known in
  let by_flow = Gmf_precheck.Reuse.make ~config scenario per_flow in
  let diagnostics =
    Rules.sort
      (List.concat_map snd per_flow @ Rules.fabric_rules ~config scenario)
  in
  List.iter hit diagnostics;
  { diagnostics; by_flow }

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
