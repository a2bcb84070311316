type event =
  | Admit of Traffic.Flow.t
  | Remove of Traffic.Flow.id
  | Update of Traffic.Flow.t
  | Query
  | Fail_link of Network.Node.id * Network.Node.id
  | Restore_link of Network.Node.id * Network.Node.id

type start_kind = Warm | Cold | Skipped

type shadow_result = { cold_rounds : int; equivalent : bool }

type degradation = {
  rerouted : Traffic.Flow.t list;
  shed : Traffic.Flow.t list;
}

type outcome = {
  seq : int;
  label : string;
  accepted : bool;
  verdict : Analysis.Holistic.verdict;
  rounds : int;
  start : start_kind;
  flow_count : int;
  diagnostics : Gmf_diag.t list;
  shadow : shadow_result option;
  degradation : degradation option;
  explain : Gmf_explain.Attribution.summary option;
}

type summary = {
  events : int;
  admitted : int;
  rejected : int;
  warm_hits : int;
  cold_resets : int;
  rounds_total : int;
  rounds_saved : int;
  flow_count : int;
}

type t = {
  config : Analysis.Config.t;
  shadow : bool;
  explain : bool;
  survivable : int option;
  mutable failed : (Network.Node.id * Network.Node.id) list;
      (* undirected failed link pairs, smaller id first, newest first *)
  mutable base : Analysis.Delta.base;
      (* the committed flow set (id-ascending), its fixpoint and report:
         the base every fixpoint event is a delta against *)
  lint_table : Gmf_diag.t list Gmf_precheck.Reuse.t;
      (* the flows of the last lint run: the ones an edit leaves alone
         keep their findings *)
  pre_table : Gmf_precheck.Precheck.outcome list Gmf_precheck.Reuse.t;
      (* the components of the last precheck run: the ones an edit
         leaves alone keep their verdicts *)
  mutable seq : int;
  mutable s_admitted : int;
  mutable s_rejected : int;
  mutable s_warm : int;
  mutable s_cold : int;
  mutable s_rounds : int;
  mutable s_saved : int;
}

let m_events = Gmf_obs.Metrics.counter Gmf_obs.Metrics.default "admctl.events"

let m_warm_hits =
  Gmf_obs.Metrics.counter Gmf_obs.Metrics.default "admctl.warm_hits"

let m_cold_resets =
  Gmf_obs.Metrics.counter Gmf_obs.Metrics.default "admctl.cold_resets"

let m_rounds_saved =
  Gmf_obs.Metrics.counter Gmf_obs.Metrics.default "admctl.rounds_saved"

let m_faults =
  Gmf_obs.Metrics.counter Gmf_obs.Metrics.default "faults.injected"

let m_rerouted =
  Gmf_obs.Metrics.counter Gmf_obs.Metrics.default "faults.flows_rerouted"

let m_shed =
  Gmf_obs.Metrics.counter Gmf_obs.Metrics.default "faults.flows_shed"

(* Decade buckets from 1 µs to 10 s: event latencies span lint-only
   rejections (µs) to shadowed multi-flow fixpoints (ms and up). *)
let latency_bounds =
  [|
    1_000; 10_000; 100_000; 1_000_000; 10_000_000; 100_000_000;
    1_000_000_000; 10_000_000_000;
  |]

let event_kind = function
  | Admit _ -> "admit"
  | Remove _ -> "remove"
  | Update _ -> "update"
  | Query -> "query"
  | Fail_link _ -> "fail"
  | Restore_link _ -> "restore"

let m_latency kind =
  Gmf_obs.Metrics.histogram ~bounds:latency_bounds Gmf_obs.Metrics.default
    ("admctl.latency_ns." ^ kind)

let empty_report =
  {
    Analysis.Holistic.verdict = Analysis.Holistic.Schedulable;
    rounds = 0;
    results = [];
  }

let create ?(config = Analysis.Config.default) ?(shadow = false)
    ?(explain = false) ?survivable ?(switches = []) ~topo () =
  (match survivable with
  | Some k when k < 0 -> invalid_arg "Session.create: survivable < 0"
  | _ -> ());
  {
    config;
    shadow;
    explain;
    survivable;
    failed = [];
    base =
      Analysis.Delta.make_base ~config
        ~scenario:(Traffic.Scenario.make ~switches ~topo ~flows:[] ())
        ~report:empty_report ();
    lint_table = Gmf_precheck.Reuse.create ();
    pre_table = Gmf_precheck.Reuse.create ();
    seq = 0;
    s_admitted = 0;
    s_rejected = 0;
    s_warm = 0;
    s_cold = 0;
    s_rounds = 0;
    s_saved = 0;
  }

let flows t = Traffic.Scenario.flows (Analysis.Delta.base_scenario t.base)

let flow_count t =
  Traffic.Scenario.flow_count (Analysis.Delta.base_scenario t.base)

let report t = Analysis.Delta.base_report t.base
let failed_links t = List.rev t.failed

let summary t =
  {
    events = t.seq;
    admitted = t.s_admitted;
    rejected = t.s_rejected;
    warm_hits = t.s_warm;
    cold_resets = t.s_cold;
    rounds_total = t.s_rounds;
    rounds_saved = t.s_saved;
    flow_count = flow_count t;
  }

let pp_start fmt = function
  | Warm -> Format.pp_print_string fmt "warm"
  | Cold -> Format.pp_print_string fmt "cold"
  | Skipped -> Format.pp_print_string fmt "-"

(* Canonical rendering of everything observable about the session —
   admitted flows (ids, names, routes, specs, remarks), failed pairs,
   the committed verdict and the event counters — digested to a hex
   string.  Two sessions that processed the same events report the same
   fingerprint, which is what the daemon's journal-replay recovery test
   checks; deliberately independent of internal warm-state layout. *)
let fingerprint t =
  let buf = Buffer.create 512 in
  let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  List.iter
    (fun (f : Traffic.Flow.t) ->
      addf "flow %d %s prio=%d encap=%s route=%s remarks=%s spec=" f.id
        f.name f.priority
        (match f.encap with
        | Ethernet.Encap.Udp -> "udp"
        | Ethernet.Encap.Rtp_udp -> "rtp")
        (String.concat ","
           (List.map string_of_int (Network.Route.nodes f.route)))
        (String.concat ","
           (List.map
              (fun ((a, b), p) -> Printf.sprintf "%d/%d:%d" a b p)
              f.remarks));
      Array.iter
        (fun (fr : Gmf.Frame_spec.t) ->
          addf "(%d,%d,%d,%d)" fr.period fr.deadline fr.jitter
            fr.payload_bits)
        (Gmf.Spec.frames f.spec);
      Buffer.add_char buf '\n')
    (flows t);
  List.iter
    (fun (a, b) -> addf "failed %d-%d\n" a b)
    (List.rev t.failed);
  addf "verdict %s converged=%b\n"
    (Format.asprintf "%a" Analysis.Holistic.pp_verdict
       (report t).Analysis.Holistic.verdict)
    (Analysis.Delta.base_ok t.base);
  addf "counters %d %d %d %d %d %d %d\n" t.seq t.s_admitted t.s_rejected
    t.s_warm t.s_cold t.s_rounds t.s_saved;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let topo t = Traffic.Scenario.topo (Analysis.Delta.base_scenario t.base)

let find_flow t id =
  match Traffic.Scenario.flow (Analysis.Delta.base_scenario t.base) id with
  | f -> Some f
  | exception Invalid_argument _ -> None

(* ------------------------------------------------------------------ *)
(* Report comparison (shadow mode)                                    *)
(* ------------------------------------------------------------------ *)

let bounds_of report =
  List.map
    (fun res ->
      ( res.Analysis.Result_types.flow.Traffic.Flow.id,
        Array.map
          (fun fr -> fr.Analysis.Result_types.total)
          res.Analysis.Result_types.frames ))
    report.Analysis.Holistic.results

let reports_equivalent a b =
  Analysis.Holistic.verdict_tag a.Analysis.Holistic.verdict
  = Analysis.Holistic.verdict_tag b.Analysis.Holistic.verdict
  && (not
        (Analysis.Holistic.converged a.Analysis.Holistic.verdict
        && Analysis.Holistic.converged b.Analysis.Holistic.verdict)
     || bounds_of a = bounds_of b)

(* ------------------------------------------------------------------ *)
(* Event processing                                                   *)
(* ------------------------------------------------------------------ *)

let rejection diags =
  (Analysis.Admission.rejected diags).Analysis.Holistic.verdict

let mk_outcome t ?(degradation = None) ?(explain = None) ~label ~accepted
    ~verdict ~rounds ~start ~diagnostics ~shadow () =
  if accepted then t.s_admitted <- t.s_admitted + 1
  else t.s_rejected <- t.s_rejected + 1;
  {
    seq = t.seq;
    label;
    accepted;
    verdict;
    rounds;
    start;
    flow_count = flow_count t;
    diagnostics;
    shadow;
    degradation;
    explain;
  }

let reject_diag t ~label diag =
  mk_outcome t ~label ~accepted:false ~verdict:(rejection [ diag ]) ~rounds:0
    ~start:Skipped ~diagnostics:[ diag ] ~shadow:None ()

let unknown_diag ~what id =
  Gmf_diag.error ~code:"GMF015" ~subject:Gmf_diag.Scenario
    ~suggestion:"admit the flow first" "%s of flow id %d: not admitted" what
    id

(* ------------------------------------------------------------------ *)
(* Degraded mode: link failures                                        *)
(* ------------------------------------------------------------------ *)

let norm_pair a b = (min a b, max a b)

(* Both directions of every failed pair, for route matching and
   reroute avoidance. *)
let failed_directed failed =
  List.concat_map (fun (a, b) -> [ (a, b); (b, a) ]) failed

let link_label t a b =
  let name id = (Network.Topology.node (topo t) id).Network.Node.name in
  Printf.sprintf "%s<->%s" (name a) (name b)

let failed_route_diag t (flow : Traffic.Flow.t) =
  let (a, b) =
    List.find
      (fun hop -> Network.Route.hops flow.Traffic.Flow.route |> List.mem hop)
      (failed_directed t.failed)
  in
  Gmf_diag.error ~code:"GMF016"
    ~subject:
      (Gmf_diag.Flow
         { id = flow.Traffic.Flow.id; name = flow.Traffic.Flow.name })
    ~suggestion:"route the flow elsewhere, or restore the link first"
    "route %s crosses failed link %s"
    (Format.asprintf "%a" Network.Route.pp flow.Traffic.Flow.route)
    (link_label t a b)

let routed_over_failure t (flow : Traffic.Flow.t) =
  t.failed <> []
  && Network.Route.crosses flow.Traffic.Flow.route
       ~links:(failed_directed t.failed) ~nodes:[]

(* Shadow mode: re-run the scenario cold through the monolithic analysis
   and compare.  The oracle the delta engine is judged against —
   [--verify] asserts [equivalent] on every event. *)
let shadow_check t scenario report =
  if not t.shadow then None
  else
    let cold = Analysis.Holistic.analyze ~config:t.config scenario in
    let saved =
      max 0 (cold.Analysis.Holistic.rounds - report.Analysis.Holistic.rounds)
    in
    t.s_saved <- t.s_saved + saved;
    Gmf_obs.Metrics.incr ~by:saved m_rounds_saved;
    Some
      {
        cold_rounds = cold.Analysis.Holistic.rounds;
        equivalent = reports_equivalent report cold;
      }

(* A put record equal to the committed one edits nothing: an update
   that restates a flow keeps the committed fixpoint. *)
let changed_only t (edit : Analysis.Delta.edit) =
  let changed (f : Traffic.Flow.t) =
    match find_flow t f.Traffic.Flow.id with
    | Some old ->
        old != f
        && Analysis.Case.flow_digest old <> Analysis.Case.flow_digest f
    | None -> true
  in
  {
    edit with
    Analysis.Delta.put = List.filter changed edit.Analysis.Delta.put;
  }

(* The one fixpoint run of every event that edits the committed flow set
   (admit, remove, update, the fail loop's degraded sets): [edit] is the
   event's {!Analysis.Delta} edit of the committed base and [scenario]
   the edited set in full, so only the edit's interference closure is
   re-analyzed and every other flow carries its committed bounds over.
   An admit is a pure-growth edit, warm-seeded from the committed
   results.  Counted as a warm start exactly when
   committed state was reused — some flow was certified untouched, or a
   pure-growth closure was warm-seeded; an edit whose closure swallows
   the whole set restarts from source jitters and counts cold, as does
   the engine's cold fallback, which a committed report that never
   converged forces.  The committed scenario lints clean whenever it
   converged (every converging path ran the lint gate, and removals only
   relax link loads), so the delta lint-on-closure rule would be sound
   here too; events do their own linting, so the engine's gate stays
   off.  Returns the report, how the run started, the shadow comparison
   and (explain sessions only) the worst-frame attribution summary. *)
let run_fixpoint t edit scenario =
  let d = Analysis.Delta.analyze t.base (changed_only t edit) in
  let report = d.Analysis.Delta.d_report in
  let s = d.Analysis.Delta.d_stats in
  let reused =
    (not s.Analysis.Delta.cold_fallback)
    && (s.Analysis.Delta.skipped_flows > 0 || s.Analysis.Delta.warm_seeded)
  in
  let start =
    if reused then begin
      t.s_warm <- t.s_warm + 1;
      Gmf_obs.Metrics.incr m_warm_hits;
      Warm
    end
    else begin
      t.s_cold <- t.s_cold + 1;
      Gmf_obs.Metrics.incr m_cold_resets;
      Cold
    end
  in
  t.s_rounds <- t.s_rounds + report.Analysis.Holistic.rounds;
  let shadow = shadow_check t scenario report in
  let explain =
    if not t.explain then None
    else
      Gmf_explain.Attribution.summarize
        (Gmf_explain.Attribution.of_report ~config:t.config scenario report)
  in
  (report, start, shadow, explain)

let commit t ~scenario ~report =
  t.base <- Analysis.Delta.make_base ~config:t.config ~scenario ~report ()

(* The survivability gate of admit/update events, when the session was
   created with [?survivable].  Evaluated on the tentative scenario only
   after the fixpoint accepts — see [try_set]. *)
let survive_gate t (flow : Traffic.Flow.t) =
  match t.survivable with
  | None -> None
  | Some k ->
      Some
        (fun scenario ->
          Gmf_faults.Survive.admission_gate ~config:t.config ~k
            ~candidate:flow scenario)

(* Both gates reuse what the last run of each computed; their reports
   are the same as from scratch.  Each table keeps only its latest run's
   entries, so a long session holds one scenario's worth, not a
   history. *)
let lint t scenario =
  let r = Gmf_lint.Lint.run ~config:t.config ~table:t.lint_table scenario in
  Gmf_precheck.Reuse.keep_latest t.lint_table;
  r

let precheck t scenario =
  let r =
    Gmf_precheck.Precheck.run ~config:t.config ~table:t.pre_table scenario
  in
  Gmf_precheck.Reuse.keep_latest t.pre_table;
  r

let precheck_entries t = Gmf_precheck.Reuse.length t.pre_table

(* Admit and update share the accept-or-rollback shape (removals commit
   regardless and are handled separately).  [gate] (survivability) runs
   on the tentative scenario after the fixpoint accepts and before the
   commit: a non-empty diagnostic list rejects, leaving the session
   untouched. *)
let try_set ?gate t ~label ~edit =
  let scenario = Analysis.Delta.target t.base edit in
  let lint = lint t scenario in
  match Gmf_lint.Lint.errors lint with
  | _ :: _ as errors ->
      mk_outcome t ~label ~accepted:false ~verdict:(rejection errors) ~rounds:0
        ~start:Skipped ~diagnostics:lint.Gmf_lint.Lint.diagnostics ~shadow:None
        ()
  | [] -> (
      (* Static pre-analysis: a certified-infeasible flow rejects before
         any fixpoint (mirroring the lint fast path), and oversized
         interference components surface as GMF019 warnings.  Events it
         does not reject run the exact fixpoint, whose report the commit
         keeps as the next delta base. *)
      let pre = precheck t scenario in
      let pre_diags = Gmf_precheck.Precheck.diagnostics pre in
      match Gmf_diag.at_least Gmf_diag.Error pre_diags with
      | _ :: _ as errors ->
          mk_outcome t ~label ~accepted:false ~verdict:(rejection errors)
            ~rounds:0 ~start:Skipped
            ~diagnostics:(lint.Gmf_lint.Lint.diagnostics @ pre_diags)
            ~shadow:None ()
      | [] -> (
          let diagnostics = lint.Gmf_lint.Lint.diagnostics @ pre_diags in
          let report, start, shadow, explain = run_fixpoint t edit scenario in
          let accepted = Analysis.Holistic.is_schedulable report in
          let gate_diags =
            match gate with Some g when accepted -> g scenario | _ -> []
          in
          match gate_diags with
          | _ :: _ ->
              mk_outcome t ~label ~accepted:false
                ~verdict:(rejection gate_diags)
                ~rounds:report.Analysis.Holistic.rounds ~start
                ~diagnostics:(diagnostics @ gate_diags) ~shadow ~explain ()
          | [] ->
              if accepted then commit t ~scenario ~report;
              mk_outcome t ~label ~accepted
                ~verdict:report.Analysis.Holistic.verdict
                ~rounds:report.Analysis.Holistic.rounds ~start ~diagnostics
                ~shadow ~explain ()))

let apply_admit t flow =
  let label = "admit " ^ flow.Traffic.Flow.name in
  match find_flow t flow.Traffic.Flow.id with
  | Some existing ->
      reject_diag t ~label
        (Analysis.Admission.duplicate_id_diag ~candidate:flow ~existing)
  | None when routed_over_failure t flow ->
      reject_diag t ~label (failed_route_diag t flow)
  | None ->
      try_set t ?gate:(survive_gate t flow) ~label
        ~edit:{ Analysis.Delta.removed = []; put = [ flow ] }

let apply_remove t id =
  match find_flow t id with
  | None ->
      reject_diag t
        ~label:(Printf.sprintf "remove #%d" id)
        (unknown_diag ~what:"remove" id)
  | Some victim ->
      let label = "remove " ^ victim.Traffic.Flow.name in
      let edit = { Analysis.Delta.removed = [ id ]; put = [] } in
      let scenario = Analysis.Delta.target t.base edit in
      let report, start, shadow, explain = run_fixpoint t edit scenario in
      (* The departure happens regardless of the refreshed verdict. *)
      commit t ~scenario ~report;
      mk_outcome t ~label ~accepted:true
        ~verdict:report.Analysis.Holistic.verdict
        ~rounds:report.Analysis.Holistic.rounds ~start ~diagnostics:[]
        ~shadow ~explain ()

let apply_update t flow =
  let label = "update " ^ flow.Traffic.Flow.name in
  match find_flow t flow.Traffic.Flow.id with
  | None ->
      reject_diag t ~label (unknown_diag ~what:"update" flow.Traffic.Flow.id)
  | Some _ when routed_over_failure t flow ->
      reject_diag t ~label (failed_route_diag t flow)
  | Some _ ->
      (* The new record replaces the committed one; the delta engine
         closes the edit under interference and restarts only the
         closure from source jitters (a parameter change is never a pure
         growth). *)
      try_set t ?gate:(survive_gate t flow) ~label
        ~edit:{ Analysis.Delta.removed = []; put = [ flow ] }

let link_subject a b = Gmf_diag.Link { src = a; dst = b }

(* A link failure commits like a removal: the outage happened whether or
   not the degraded set stays schedulable.  The degraded set runs through
   {!Gmf_faults.Survive.degrade}, the same loop as a survive case, with
   the flows the outage did not hit pinned: hit flows are rerouted around
   every currently-failed link when an alternate route exists, shed
   outright when none does, and then shed greedily until the degraded set
   is schedulable again.  Every attempt is a lint check followed by a
   delta run against the committed pre-failure fixpoint: reroutes are
   changed flows, sheds are removals, so only their interference closure
   re-runs while the pinned flows keep their committed bounds.  A lint
   error (e.g. a reroute saturating a link, GMF201) sheds without
   spending fixpoint rounds. *)
let apply_fail t a b =
  let label = "fail link " ^ link_label t a b in
  let pair = norm_pair a b in
  let exists =
    Network.Topology.find_link (topo t) ~src:a ~dst:b <> None
    || Network.Topology.find_link (topo t) ~src:b ~dst:a <> None
  in
  if not exists then
    reject_diag t ~label
      (Gmf_diag.error ~code:"GMF016" ~subject:(link_subject a b)
         ~suggestion:"name two adjacent nodes of the session topology"
         "fail link: no link %s" (link_label t a b))
  else if List.mem pair t.failed then
    reject_diag t ~label
      (Gmf_diag.error ~code:"GMF016" ~subject:(link_subject a b)
         ~suggestion:"drop the duplicate fail event"
         "link %s is already failed" (link_label t a b))
  else begin
    Gmf_obs.Metrics.incr m_faults;
    let failed = pair :: t.failed in
    let avoid = failed_directed failed in
    let affected, safe =
      List.partition
        (fun (f : Traffic.Flow.t) ->
          Network.Route.crosses f.Traffic.Flow.route ~links:avoid ~nodes:[])
        (flows t)
    in
    t.failed <- failed;
    if affected = [] then
      mk_outcome t ~label ~accepted:true
        ~verdict:(report t).Analysis.Holistic.verdict ~rounds:0
        ~start:Skipped
        ~diagnostics:[] ~shadow:None
        ~degradation:(Some { rerouted = []; shed = [] })
        ()
    else begin
      let attempt edit =
        let scenario = Analysis.Delta.target t.base edit in
        match Gmf_lint.Lint.errors (lint t scenario) with
        | _ :: _ as errors ->
            ( Analysis.Admission.rejected errors,
              (scenario, Skipped, None, None) )
        | [] ->
            let report, start, shadow, explain =
              run_fixpoint t edit scenario
            in
            (report, (scenario, start, shadow, explain))
      in
      let {
        Gmf_faults.Survive.placed;
        victims;
        unpinned = rerouted;
        report;
        last = scenario, start, shadow, explain;
        rounds_spent;
        _;
      } =
        Gmf_faults.Survive.degrade ~pinned:safe ~avoid_links:avoid
          ~avoid_nodes:[] ~attempt
          (Gmf_faults.Survive.sweep (Analysis.Delta.base_scenario t.base))
      in
      let pre_shed =
        List.filter_map
          (fun (f, fate) ->
            if fate = Gmf_faults.Survive.Shed then Some f else None)
          placed
      in
      Gmf_obs.Metrics.incr
        ~by:(List.length affected - List.length pre_shed)
        m_rerouted;
      Gmf_obs.Metrics.incr
        ~by:(List.length pre_shed + List.length victims)
        m_shed;
      commit t ~scenario ~report;
      mk_outcome t ~label ~accepted:true
        ~verdict:report.Analysis.Holistic.verdict ~rounds:rounds_spent ~start
        ~diagnostics:[] ~shadow ~explain
        ~degradation:(Some { rerouted; shed = pre_shed @ victims })
        ()
    end
  end

(* Restoring a link only widens the route search space of later events;
   flows stay on their degraded routes and the committed fixpoint stays
   valid, so no re-analysis runs. *)
let apply_restore t a b =
  let label = "restore link " ^ link_label t a b in
  let pair = norm_pair a b in
  if not (List.mem pair t.failed) then
    reject_diag t ~label
      (Gmf_diag.error ~code:"GMF016" ~subject:(link_subject a b)
         ~suggestion:"fail the link first" "link %s is not failed"
         (link_label t a b))
  else begin
    t.failed <- List.filter (fun p -> p <> pair) t.failed;
    mk_outcome t ~label ~accepted:true
      ~verdict:(report t).Analysis.Holistic.verdict ~rounds:0 ~start:Skipped
      ~diagnostics:[] ~shadow:None
      ~degradation:(Some { rerouted = []; shed = [] })
      ()
  end

let apply_query t =
  let report = report t in
  mk_outcome t ~label:"query"
    ~accepted:(Analysis.Holistic.is_schedulable report)
    ~verdict:report.Analysis.Holistic.verdict ~rounds:0 ~start:Skipped
    ~diagnostics:[] ~shadow:None ()

let span_name = function
  | Admit _ -> "admctl.admit"
  | Remove _ -> "admctl.remove"
  | Update _ -> "admctl.update"
  | Query -> "admctl.query"
  | Fail_link _ -> "admctl.fail"
  | Restore_link _ -> "admctl.restore"

let apply t event =
  t.seq <- t.seq + 1;
  Gmf_obs.Metrics.incr m_events;
  let timed = Gmf_obs.Metrics.enabled Gmf_obs.Metrics.default in
  let t0 = if timed then Unix.gettimeofday () else 0. in
  let outcome =
    Gmf_obs.Tracer.with_span Gmf_obs.Tracer.default ~cat:"admctl"
      (span_name event) (fun () ->
        match event with
        | Admit flow -> apply_admit t flow
        | Remove id -> apply_remove t id
        | Update flow -> apply_update t flow
        | Query -> apply_query t
        | Fail_link (a, b) -> apply_fail t a b
        | Restore_link (a, b) -> apply_restore t a b)
  in
  if timed then
    Gmf_obs.Metrics.observe
      (m_latency (event_kind event))
      (int_of_float ((Unix.gettimeofday () -. t0) *. 1e9));
  outcome
