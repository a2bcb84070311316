type decision = {
  admitted : bool;
  report : Holistic.report;
  diagnostics : Gmf_diag.t list;
}

(* A lint error becomes a synthetic analysis failure so existing report
   consumers (CLI, experiments) render rejections uniformly.  Only flow
   and frame subjects name a flow; every other subject (a node id is
   not a flow id) carries -1. *)
let failure_of_diag (d : Gmf_diag.t) =
  let flow_id, frame =
    match d.Gmf_diag.subject with
    | Gmf_diag.Flow { id; _ } -> (id, 0)
    | Gmf_diag.Frame { id; frame; _ } -> (id, frame)
    | Gmf_diag.Node _ | Gmf_diag.Link _ | Gmf_diag.Scenario | Gmf_diag.Config
      ->
        (-1, 0)
  in
  {
    Result_types.flow_id;
    frame;
    failed_stage = None;
    reason = Gmf_diag.to_string d;
  }

let rejected errors =
  {
    Holistic.verdict =
      Holistic.Analysis_failed (List.map failure_of_diag errors);
    rounds = 0;
    results = [];
  }

let check ?config scenario =
  let lint = Gmf_lint.Lint.run ?config scenario in
  let diagnostics = lint.Gmf_lint.Lint.diagnostics in
  match Gmf_lint.Lint.errors lint with
  | _ :: _ as errors ->
      (* Reject statically: the holistic fixpoint is never entered. *)
      { admitted = false; report = rejected errors; diagnostics }
  | [] ->
      (* Lint is clean: run the precheck-guided sharded analysis.  Decided
         flows never enter the fixpoint; the undecided components run
         independently. *)
      let report, pre = Sharded.analyze ?config scenario in
      let diagnostics =
        diagnostics @ Gmf_precheck.Precheck.diagnostics pre
      in
      { admitted = Holistic.is_schedulable report; report; diagnostics }

let rebuild scenario extra_flows =
  Traffic.Scenario.with_flows scenario
    (Traffic.Scenario.flows scenario @ extra_flows)

let reject_with diagnostics =
  let errors = Gmf_diag.at_least Gmf_diag.Error diagnostics in
  { admitted = false; report = rejected errors; diagnostics }

let duplicate_id_diag ~candidate ~existing =
  Gmf_diag.error ~code:"GMF014"
    ~subject:
      (Gmf_diag.Flow
         {
           id = candidate.Traffic.Flow.id;
           name = candidate.Traffic.Flow.name;
         })
    ~suggestion:"allocate an unused id for the candidate"
    "candidate id %d is already admitted (flow %S)" candidate.Traffic.Flow.id
    existing.Traffic.Flow.name

let find_duplicate scenario candidate =
  List.find_opt
    (fun f -> f.Traffic.Flow.id = candidate.Traffic.Flow.id)
    (Traffic.Scenario.flows scenario)

let admit ?config scenario ~candidate =
  match find_duplicate scenario candidate with
  | Some existing -> reject_with [ duplicate_id_diag ~candidate ~existing ]
  | None -> check ?config (rebuild scenario [ candidate ])

(* Each attempt derives from the last accepted scenario, so the accepted
   flows' link tables are built once. *)
let greedily ~topo ~try_add candidates =
  let rec go base accepted rejected = function
    | [] -> (List.rev accepted, List.rev rejected)
    | candidate :: rest -> (
        match try_add base candidate with
        | Some (flow, extended) -> go extended (flow :: accepted) rejected rest
        | None -> go base accepted (candidate :: rejected) rest)
  in
  go (Traffic.Scenario.make ~topo ~flows:[] ()) [] [] candidates

let admit_greedily ?config ~topo candidates =
  greedily ~topo candidates ~try_add:(fun base candidate ->
      let extended = rebuild base [ candidate ] in
      if (check ?config extended).admitted then Some (candidate, extended)
      else None)
