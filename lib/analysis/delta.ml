(* Incremental re-analysis against a converged base fixpoint: close the
   edit under interference (routes sharing a node) through the base's
   components, fixpoint only the closure, carry everything else over.
   See delta.mli for the soundness argument; docs/DELTA.md spells it out
   in full. *)

type edit = { removed : Traffic.Flow.id list; put : Traffic.Flow.t list }

(* The base's node-sharing components, a node -> component index and a
   name -> flows index, built at the first edit that needs them. *)
type index = {
  comp_of_node : (Network.Node.id, int) Hashtbl.t;
  members : Traffic.Flow.t list array;  (** Per component, in id order. *)
  by_name : (string, Traffic.Flow.t list) Hashtbl.t;
}

type base = {
  b_config : Config.t;
  b_scenario : Traffic.Scenario.t;
  b_report : Holistic.report;
  b_ok : bool;
  b_lint_clean : bool;
  b_index : index Lazy.t;
  b_pool : Traffic.Scenario.params_pool;
  b_precheck : Gmf_precheck.Precheck.outcome list Gmf_precheck.Reuse.t;
  b_reports : Holistic.report Gmf_precheck.Reuse.t;
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

let build_index scenario =
  let groups =
    Array.of_list
      (Gmf_precheck.Igraph.groups (Traffic.Scenario.flows scenario))
  in
  let comp_of_node = Hashtbl.create 64 and by_name = Hashtbl.create 64 in
  Array.iteri
    (fun cid members ->
      List.iter
        (fun (f : Traffic.Flow.t) ->
          List.iter
            (fun node -> Hashtbl.replace comp_of_node node cid)
            (Network.Route.nodes f.Traffic.Flow.route))
        members)
    groups;
  List.iter
    (fun (f : Traffic.Flow.t) ->
      let name = f.Traffic.Flow.name in
      Hashtbl.replace by_name name
        (f :: Option.value ~default:[] (Hashtbl.find_opt by_name name)))
    (Traffic.Scenario.flows scenario);
  { comp_of_node; members = groups; by_name }

let wrap ~config ~scenario ~report ~lint_clean =
  {
    b_config = config;
    b_scenario = scenario;
    b_report = report;
    b_ok = Holistic.converged report.Holistic.verdict;
    b_lint_clean = lint_clean;
    b_index = lazy (build_index scenario);
    b_pool = Traffic.Scenario.params_pool ();
    b_precheck = Gmf_precheck.Reuse.create ();
    b_reports = Gmf_precheck.Reuse.create ();
  }

let make_base ~config ~scenario ~report () =
  wrap ~config ~scenario ~report ~lint_clean:true

let compute_base ?(config = Config.default) scenario =
  let report = Holistic.analyze ~config scenario in
  wrap ~config ~scenario ~report
    ~lint_clean:(Gmf_lint.Lint.gate ~config scenario = [])

let base_scenario b = b.b_scenario
let base_report b = b.b_report
let base_ok b = b.b_ok

(* ------------------------------------------------------------------ *)
(* The edit against the base                                           *)
(* ------------------------------------------------------------------ *)

let ids_of flows =
  let t = Hashtbl.create 16 in
  List.iter
    (fun (f : Traffic.Flow.t) -> Hashtbl.replace t f.Traffic.Flow.id ())
    flows;
  t

(* The target's flows in id order: the base's, minus the removed and
   replaced ones, merged with the put records. *)
let target_flows base edit =
  let edited = ids_of edit.put in
  List.iter (fun id -> Hashtbl.replace edited id ()) edit.removed;
  let put =
    List.sort
      (fun (a : Traffic.Flow.t) (b : Traffic.Flow.t) ->
        compare a.Traffic.Flow.id b.Traffic.Flow.id)
      edit.put
  in
  let rec merge kept put =
    match (kept, put) with
    | [], rest | rest, [] -> rest
    | (k : Traffic.Flow.t) :: ks, (p : Traffic.Flow.t) :: ps ->
        if k.Traffic.Flow.id < p.Traffic.Flow.id then k :: merge ks put
        else p :: merge kept ps
  in
  merge
    (List.filter
       (fun (f : Traffic.Flow.t) ->
         not (Hashtbl.mem edited f.Traffic.Flow.id))
       (Traffic.Scenario.flows base.b_scenario))
    put

let target base edit =
  Traffic.Scenario.with_flows ~pool:base.b_pool base.b_scenario
    (target_flows base edit)

(* The base records the edit drops or replaces: the old versions of its
   seeds. *)
let old_versions base edit =
  let old id =
    match Traffic.Scenario.flow base.b_scenario id with
    | f -> Some f
    | exception Invalid_argument _ -> None
  in
  List.filter_map old edit.removed
  @ List.filter_map
      (fun (f : Traffic.Flow.t) -> old f.Traffic.Flow.id)
      edit.put

(* The target flows in the edit's interference closure: the put records
   and the surviving members of every base component that a seed's old
   or new route touches.  Over the union of base and target flows, the
   node-sharing components holding a seed are exactly these: a base
   component joins a seed's union component only through a seed (every
   record the base lacks is one), and it does so by sharing a node with
   that seed's route or by holding its old version. *)
let closure_flows base edit ~old =
  let ix = Lazy.force base.b_index in
  let comps = Hashtbl.create 8 in
  List.iter
    (fun (f : Traffic.Flow.t) ->
      List.iter
        (fun node ->
          match Hashtbl.find_opt ix.comp_of_node node with
          | Some cid -> Hashtbl.replace comps cid ()
          | None -> ())
        (Network.Route.nodes f.Traffic.Flow.route))
    (old @ edit.put);
  let dropped = ids_of old in
  Hashtbl.fold
    (fun cid () acc ->
      List.filter
        (fun (f : Traffic.Flow.t) ->
          not (Hashtbl.mem dropped f.Traffic.Flow.id))
        ix.members.(cid)
      @ acc)
    comps edit.put

(* The flows whose names can clash with a put record's in the target:
   the put records and the surviving base flows of the same names.  In
   a base that lints clean, every duplicate name of the target involves
   a put record. *)
let name_clash_candidates base edit ~old =
  let ix = Lazy.force base.b_index in
  let dropped = ids_of old in
  let names = Hashtbl.create 8 in
  List.iter
    (fun (f : Traffic.Flow.t) -> Hashtbl.replace names f.Traffic.Flow.name ())
    edit.put;
  Hashtbl.fold
    (fun name () acc ->
      List.filter
        (fun (f : Traffic.Flow.t) ->
          not (Hashtbl.mem dropped f.Traffic.Flow.id))
        (Option.value ~default:[] (Hashtbl.find_opt ix.by_name name))
      @ acc)
    names edit.put

(* ------------------------------------------------------------------ *)
(* Analysis                                                            *)
(* ------------------------------------------------------------------ *)

let lint_reject ~config ?names scenario =
  match Gmf_lint.Lint.gate ~config ?names scenario with
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
   certified ceilings rather than converged bounds.  The base's tables
   keep every component an earlier edit prechecked or fixpointed. *)
let cold_run ~precheck base scenario =
  let config = base.b_config in
  if precheck then
    let r, _precheck, _stats =
      Sharded.analyze ~config ~table:base.b_precheck ~reports:base.b_reports
        scenario
    in
    r
  else Holistic.analyze ~config scenario

(* The base did not converge: analyze the whole target cold (optionally
   through the full-scenario lint gate), certify nothing. *)
let cold ~lint ~precheck base target =
  let total = Traffic.Scenario.flow_count target in
  let report =
    match if lint then lint_reject ~config:base.b_config target else None with
    | Some report -> report
    | None -> cold_run ~precheck base target
  in
  {
    d_report = report;
    d_untouched = [];
    d_stats =
      mk_stats ~total ~closure:total ~rounds:report.Holistic.rounds ~saved:0
        ~fallback:true ~warm:false;
  }

let analyze ?(lint = false) ?(precheck = false) base edit =
  let config = base.b_config in
  if not base.b_ok then cold ~lint ~precheck base (target base edit)
  else begin
    let target_flows = target_flows base edit in
    let total = List.length target_flows in
    if edit.removed = [] && edit.put = [] && not (lint && not base.b_lint_clean)
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
      let old = old_versions base edit in
      let inside = closure_flows base edit ~old in
      let closure = ids_of inside in
      List.iter (fun id -> Hashtbl.replace closure id ()) edit.removed;
      let in_closure (f : Traffic.Flow.t) =
        Hashtbl.mem closure f.Traffic.Flow.id
      in
      let sub =
        Traffic.Scenario.with_flows ~pool:base.b_pool base.b_scenario inside
      in
      let closure_count = Traffic.Scenario.flow_count sub in
      (* Sound because the closure is a union of complete target
         components: an error of a component-local rule involves a
         changed component (the base lints clean), and changed
         components are wholly inside the restriction.  Name clashes
         cross components, so GMF001 also reads the base flows that
         share a name with a put record. *)
      let lint_gate =
        if not lint then None
        else if base.b_lint_clean then
          lint_reject ~config ~names:(name_clash_candidates base edit ~old) sub
        else lint_reject ~config (target base edit)
      in
      match lint_gate with
      | Some report ->
          {
            d_report = report;
            d_untouched = [];
            d_stats =
              mk_stats ~total ~closure:closure_count ~rounds:0 ~saved:0
                ~fallback:false ~warm:false;
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
          let pure_growth = old = [] in
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
              cold_run ~precheck base sub
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
            d_untouched =
              List.filter_map
                (fun (f : Traffic.Flow.t) ->
                  if in_closure f then None else Some f.Traffic.Flow.id)
                target_flows;
            d_stats =
              mk_stats ~total ~closure:closure_count ~rounds
                ~saved:(max 0 (base.b_report.Holistic.rounds - rounds))
                ~fallback:false ~warm:pure_growth;
          }
    end
  end
