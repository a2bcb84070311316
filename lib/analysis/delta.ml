(* Incremental re-analysis against a converged base fixpoint: diff the
   flow sets, close the edit under interference (routes sharing a node),
   fixpoint only the closure, carry everything else over.  See delta.mli
   for the soundness argument; docs/DELTA.md spells it out in full. *)

type base = {
  b_config : Config.t;
  b_scenario : Traffic.Scenario.t;
  b_report : Holistic.report;
  b_ok : bool;
  b_lint_clean : bool;
}

type stats = {
  total_flows : int;
  closure_flows : int;
  skipped_flows : int;
  rounds : int;
  rounds_saved : int;
  cold_fallback : bool;
  warm_seeded : bool;
}

type result = {
  d_report : Holistic.report;
  d_untouched : Traffic.Flow.id list;
  d_stats : stats;
}

let m_runs = Gmf_obs.Metrics.counter Gmf_obs.Metrics.default "delta.runs"

let m_closure =
  Gmf_obs.Metrics.counter Gmf_obs.Metrics.default "delta.closure_flows"

let m_skipped =
  Gmf_obs.Metrics.counter Gmf_obs.Metrics.default "delta.flows_skipped"

let m_saved =
  Gmf_obs.Metrics.counter Gmf_obs.Metrics.default "delta.rounds_saved"

let m_fallbacks =
  Gmf_obs.Metrics.counter Gmf_obs.Metrics.default "delta.cold_fallbacks"

let make_base ~config ~scenario ~report () =
  {
    b_config = config;
    b_scenario = scenario;
    b_report = report;
    b_ok = Holistic.converged report.Holistic.verdict;
    b_lint_clean = true;
  }

let compute_base ?(config = Config.default) scenario =
  let report = Holistic.analyze ~config scenario in
  {
    b_config = config;
    b_scenario = scenario;
    b_report = report;
    b_ok = Holistic.converged report.Holistic.verdict;
    b_lint_clean = Gmf_lint.Lint.gate ~config scenario = [];
  }

let base_scenario b = b.b_scenario
let base_report b = b.b_report
let base_ok b = b.b_ok

(* ------------------------------------------------------------------ *)
(* Structure comparison and flow diff                                  *)
(* ------------------------------------------------------------------ *)

(* The comparison only holds when everything outside the flow sets is
   identical: topology (nodes and links), config (shared by
   construction) and the models of every switch both scenarios know.  A
   switch only one side models serves only routes of added/removed/
   changed flows — those are closure seeds anyway. *)
let same_structure b target =
  let bt = Traffic.Scenario.topo b.b_scenario
  and tt = Traffic.Scenario.topo target in
  (bt == tt
  || Network.Topology.nodes bt = Network.Topology.nodes tt
     && Network.Topology.links bt = Network.Topology.links tt)
  && List.for_all
       (fun n ->
         match Traffic.Scenario.switch_model b.b_scenario n with
         | bm -> bm = Traffic.Scenario.switch_model target n
         | exception Invalid_argument _ -> true)
       (Traffic.Scenario.switch_nodes target)

(* Added/removed/changed (old, new) between the base and target flow
   sets, by id.  Physical equality short-circuits the canonical
   serialization — the common case, since drivers reuse the unchanged
   flow records. *)
let diff_flows base_flows target_flows =
  let btbl = Hashtbl.create 64 and ttbl = Hashtbl.create 64 in
  List.iter
    (fun (f : Traffic.Flow.t) -> Hashtbl.replace btbl f.Traffic.Flow.id f)
    base_flows;
  List.iter
    (fun (f : Traffic.Flow.t) -> Hashtbl.replace ttbl f.Traffic.Flow.id f)
    target_flows;
  let added =
    List.filter
      (fun (f : Traffic.Flow.t) -> not (Hashtbl.mem btbl f.Traffic.Flow.id))
      target_flows
  in
  let removed =
    List.filter
      (fun (f : Traffic.Flow.t) -> not (Hashtbl.mem ttbl f.Traffic.Flow.id))
      base_flows
  in
  let changed =
    List.filter_map
      (fun (nw : Traffic.Flow.t) ->
        match Hashtbl.find_opt btbl nw.Traffic.Flow.id with
        | Some old when old != nw && Case.flow_digest old <> Case.flow_digest nw
          ->
            Some (old, nw)
        | _ -> None)
      target_flows
  in
  (added, removed, changed)

(* ------------------------------------------------------------------ *)
(* Interference closure                                                *)
(* ------------------------------------------------------------------ *)

(* Ids of [flows] in the node-sharing components ({!Gmf_precheck.Igraph})
   that hold a seed; always contains the seeds' ids.  A record whose id
   is a seed's is a version of that seed, so membership is by id. *)
let interference_closure ~seeds flows =
  let seed_ids = Hashtbl.create 16 in
  List.iter
    (fun (s : Traffic.Flow.t) -> Hashtbl.replace seed_ids s.Traffic.Flow.id ())
    seeds;
  let closure = Hashtbl.create 16 in
  List.iter
    (fun group ->
      if
        List.exists
          (fun (f : Traffic.Flow.t) -> Hashtbl.mem seed_ids f.Traffic.Flow.id)
          group
      then
        List.iter
          (fun (f : Traffic.Flow.t) ->
            Hashtbl.replace closure f.Traffic.Flow.id ())
          group)
    (Gmf_precheck.Igraph.groups flows);
  closure

(* ------------------------------------------------------------------ *)
(* Analysis                                                            *)
(* ------------------------------------------------------------------ *)

let lint_reject ~config ?within scenario =
  match Gmf_lint.Lint.gate ~config ?within scenario with
  | [] -> None
  | errors -> Some (Admission.rejected errors)

let mk_stats ~total ~closure ~rounds ~saved ~fallback ~warm =
  if Gmf_obs.Metrics.enabled Gmf_obs.Metrics.default then begin
    Gmf_obs.Metrics.incr m_runs;
    Gmf_obs.Metrics.incr ~by:closure m_closure;
    Gmf_obs.Metrics.incr ~by:(total - closure) m_skipped;
    Gmf_obs.Metrics.incr ~by:saved m_saved;
    if fallback then Gmf_obs.Metrics.incr m_fallbacks
  end;
  {
    total_flows = total;
    closure_flows = closure;
    skipped_flows = total - closure;
    rounds;
    rounds_saved = saved;
    cold_fallback = fallback;
    warm_seeded = warm;
  }

(* A run from source jitters.  Under [~precheck] it goes through the
   precheck-guided sharded engine: flows precheck decides statically
   never burn fixpoint rounds, and their synthetic results carry
   certified ceilings rather than converged bounds. *)
let cold_run ~precheck ~config scenario =
  if precheck then
    let r, _precheck, _stats = Sharded.analyze ~config scenario in
    r
  else Holistic.analyze ~config scenario

(* Comparison ruled out: analyze the target cold (optionally through the
   full-scenario lint gate), certify nothing. *)
let cold ~lint ~precheck ~config target =
  let total = Traffic.Scenario.flow_count target in
  let report =
    match if lint then lint_reject ~config target else None with
    | Some report -> report
    | None -> cold_run ~precheck ~config target
  in
  {
    d_report = report;
    d_untouched = [];
    d_stats =
      mk_stats ~total ~closure:total ~rounds:report.Holistic.rounds ~saved:0
        ~fallback:true ~warm:false;
  }

let analyze ?(lint = false) ?(precheck = false) base target =
  let config = base.b_config in
  let target_flows = Traffic.Scenario.flows target in
  let total = List.length target_flows in
  if not (base.b_ok && same_structure base target) then
    cold ~lint ~precheck ~config target
  else begin
    let base_flows = Traffic.Scenario.flows base.b_scenario in
    let added, removed, changed = diff_flows base_flows target_flows in
    if
      added = [] && removed = [] && changed = []
      && not (lint && not base.b_lint_clean)
    then
      (* Identity edit: the base fixpoint is the answer.  A base that
         does not lint clean still goes through the lint gate below,
         which then checks the full target. *)
      {
        d_report = base.b_report;
        d_untouched =
          List.map (fun (f : Traffic.Flow.t) -> f.Traffic.Flow.id)
            target_flows;
        d_stats =
          mk_stats ~total ~closure:0 ~rounds:0
            ~saved:base.b_report.Holistic.rounds ~fallback:false ~warm:false;
      }
    else begin
      (* Both versions of every changed flow seed the closure, over the
         union of the two flow sets: a removed flow may be the only
         bridge between two target components, and the closure must
         still join them. *)
      let seeds =
        removed @ List.map fst changed @ List.map snd changed @ added
      in
      let union_flows = base_flows @ List.map snd changed @ added in
      let closure = interference_closure ~seeds union_flows in
      let in_closure (f : Traffic.Flow.t) =
        Hashtbl.mem closure f.Traffic.Flow.id
      in
      let ids = List.map (fun (f : Traffic.Flow.t) -> f.Traffic.Flow.id) in
      let inside, outside = List.partition in_closure target_flows in
      let closure_ids = ids inside in
      let sub = Sharded.sub_scenario target closure_ids in
      (* Sound because the closure is a union of complete target
         components: an error of a component-local rule involves a
         changed component (the base lints clean), and changed
         components are wholly inside the restriction.  Name clashes
         cross components, so GMF001 still checks the whole target. *)
      let lint_gate =
        if not lint then None
        else if base.b_lint_clean then lint_reject ~config ~within:sub target
        else lint_reject ~config target
      in
      match lint_gate with
      | Some report ->
          {
            d_report = report;
            d_untouched = [];
            d_stats =
              mk_stats ~total
                ~closure:(List.length closure_ids)
                ~rounds:0 ~saved:0 ~fallback:false ~warm:false;
          }
      | None ->
          (* Untouched flows keep their base result records (physically —
             the certificate the tests check); the closure flows' base
             results seed a pure-growth run. *)
          let seed, carried =
            List.partition
              (fun (r : Result_types.flow_result) ->
                in_closure r.Result_types.flow)
              base.b_report.Holistic.results
          in
          let pure_growth = removed = [] && changed = [] in
          let sub_report =
            if pure_growth then
              (* From below: the base fixed point restricted to the
                 closure sits under the new least fixed point (added
                 flows only add interference), so the monotone squeeze
                 converges to the same fixpoint in fewer rounds.  The
                 base results of the closure flows fix those jitters. *)
              Holistic.run_from (Ctx.create ~config sub) ~init:seed
            else
              (* Shrinking or mixed edit: iterating down from a stale
                 state may stop above the least fixed point, so the
                 closure restarts from source jitters.  Under
                 [~precheck:true] that is the path a cold
                 {!Sharded.analyze} of the full target takes, restricted
                 to the closure. *)
              cold_run ~precheck ~config sub
          in
          let rounds = sub_report.Holistic.rounds in
          {
            d_report =
              Holistic.merge target_flows
                [
                  { Holistic.verdict = Holistic.Schedulable; rounds = 0;
                    results = carried };
                  sub_report;
                ];
            d_untouched = ids outside;
            d_stats =
              mk_stats ~total
                ~closure:(List.length closure_ids)
                ~rounds
                ~saved:(max 0 (base.b_report.Holistic.rounds - rounds))
                ~fallback:false ~warm:pure_growth;
          }
    end
  end
