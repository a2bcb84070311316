type inequality =
  | Eq20_link_overload of { src : int; dst : int }
  | Eq34_35_ingress_overload of { src : int; node : int }
  | Demand_floor of { frame : int; stage : Stage_key.t }
  | One_shot_bound of { frame : int; stage : Stage_key.t }

type certificate = {
  inequality : inequality;
  value : float;
  limit : float;
  slack : float;
}

type verdict =
  | Infeasible of certificate
  | Schedulable of certificate
  | Needs_fixpoint of { reason : string }

type flow_verdict = {
  flow_id : Traffic.Flow.id;
  flow_name : string;
  component : int;
  verdict : verdict;
  ceilings : Gmf_util.Timeunit.ns array option;
}

type report = {
  stats : Igraph.stats;
  components : Igraph.component list;
  verdicts : flow_verdict list;
}

type outcome = verdict * Gmf_util.Timeunit.ns array option

(* ---------------- observability ---------------- *)

let m_runs = Gmf_obs.Metrics.counter Gmf_obs.Metrics.default "precheck.runs"

let m_components =
  Gmf_obs.Metrics.counter Gmf_obs.Metrics.default "precheck.components"

let m_decided =
  Gmf_obs.Metrics.counter Gmf_obs.Metrics.default "precheck.decided"

let m_infeasible =
  Gmf_obs.Metrics.counter Gmf_obs.Metrics.default "precheck.infeasible"

let m_certified =
  Gmf_obs.Metrics.counter Gmf_obs.Metrics.default "precheck.certified"

let m_components_reused =
  Gmf_obs.Metrics.counter Gmf_obs.Metrics.default "precheck.components_reused"

let g_largest =
  Gmf_obs.Metrics.gauge Gmf_obs.Metrics.default "precheck.largest_component"

(* ---------------- necessary tests per flow ---------------- *)

(* The eq-(20)/(34)-(35) overloads are {!Static_tests.route_overloads},
   the list the lint gate [Gmf_lint.Rules.flow_gate] reports, so the two
   layers can never disagree on one. *)
let overload_certificate ~config scenario (flow : Traffic.Flow.t) =
  let worst cmp l = match l with [] -> None | hd :: tl ->
    Some (List.fold_left (fun acc c -> if cmp c acc then c else acc) hd tl)
  in
  let links, ingresses =
    Static_tests.route_overloads scenario flow
    |> List.partition_map (fun (overload, u) ->
           let cert inequality =
             { inequality; value = u; limit = 1.; slack = 1. -. u }
           in
           match overload with
           | Static_tests.Link_overload { src; dst } ->
               Left (cert (Eq20_link_overload { src; dst }))
           | Static_tests.Ingress_overload { src; node } ->
               Right (cert (Eq34_35_ingress_overload { src; node })))
  in
  let demand_floors = Static_tests.demand_floor ~config scenario flow in
  let floors =
    List.filter_map
      (fun frame ->
        let deadline =
          (Gmf.Spec.frame flow.Traffic.Flow.spec frame).Gmf.Frame_spec.deadline
        in
        let total, per_stage = demand_floors.(frame) in
        if total > deadline then
          let binding, _ =
            List.fold_left
              (fun (bs, bv) (stage, v) ->
                if v > bv then (stage, v) else (bs, bv))
              (fst (List.hd per_stage), min_int)
              per_stage
          in
          Some
            {
              inequality = Demand_floor { frame; stage = binding };
              value = float_of_int total;
              limit = float_of_int deadline;
              slack = float_of_int (deadline - total);
            }
        else None)
      (List.init (Traffic.Flow.n flow) Fun.id)
  in
  match worst (fun a b -> a.value > b.value) links with
  | Some c -> Some c
  | None -> (
      match worst (fun a b -> a.value > b.value) ingresses with
      | Some c -> Some c
      | None -> worst (fun a b -> a.slack < b.slack) floors)

(* ---------------- the pass ---------------- *)

(* Sufficient test, all-or-nothing per component: the jitter caps of
   the ceilings are only invariant when every member meets them. *)
let certify ~config scenario members =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | (f : Traffic.Flow.t) :: rest -> (
        match Static_tests.response_ceiling ~config scenario f with
        | Error e -> Error (Printf.sprintf "flow %s: %s" f.Traffic.Flow.name e)
        | Ok ceiling when not (Static_tests.certifies f ceiling) ->
            Error
              (Printf.sprintf
                 "flow %s: frame %d one-shot bound misses its deadline by \
                  %.0f ns"
                 f.Traffic.Flow.name ceiling.Static_tests.binding_frame
                 (-.ceiling.Static_tests.slack))
        | Ok ceiling -> go (ceiling :: acc) rest)
  in
  go [] members

let schedulable (f : Traffic.Flow.t) (ceiling : Static_tests.ceiling) =
  let deadlines = Gmf.Spec.deadlines f.Traffic.Flow.spec in
  let k = ceiling.Static_tests.binding_frame in
  let total = Float.ceil ceiling.Static_tests.totals.(k) in
  let cert =
    {
      inequality =
        One_shot_bound { frame = k; stage = ceiling.Static_tests.binding_stage };
      value = total;
      limit = float_of_int deadlines.(k);
      slack = float_of_int deadlines.(k) -. total;
    }
  in
  ( Schedulable cert,
    Some
      (Array.map
         (fun t -> int_of_float (Float.ceil t))
         ceiling.Static_tests.totals) )

(* Every member's verdict and ceilings, in member order.  Each test reads
   only flows that share a route node with the flow under test, all of
   them members of its component. *)
let component_verdicts ~config scenario members =
  let overloads = List.map (overload_certificate ~config scenario) members in
  let needs reason = (Needs_fixpoint { reason }, None) in
  if List.exists Option.is_some overloads then
    List.map
      (function
        | Some cert -> (Infeasible cert, None)
        | None -> needs "component holds a statically infeasible flow")
      overloads
  else
    match certify ~config scenario members with
    | Error reason -> List.map (fun _ -> needs reason) members
    | Ok ceilings -> List.map2 schedulable members ceilings

let run ?(config = Analysis_config.default) ?table scenario =
  Gmf_obs.Tracer.with_span Gmf_obs.Tracer.default ~cat:"precheck"
    "precheck.run"
  @@ fun () ->
  let graph = Igraph.build (Traffic.Scenario.flows scenario) in
  let components = Igraph.components graph in
  let stats = Igraph.stats graph in
  let reused = ref 0 and of_id = Hashtbl.create 64 in
  List.iter
    (fun (c : Igraph.component) ->
      let members = c.Igraph.members in
      let cached =
        Option.bind table (fun t -> Reuse.find t ~config scenario members)
      in
      let outcome =
        match cached with
        | Some o ->
            incr reused;
            o
        | None ->
            let o = component_verdicts ~config scenario members in
            Option.iter (fun t -> Reuse.add t ~config scenario members o) table;
            o
      in
      List.iter2
        (fun (f : Traffic.Flow.t) o ->
          Hashtbl.replace of_id f.Traffic.Flow.id (c.Igraph.cid, o))
        members outcome)
    components;
  let verdicts =
    List.map
      (fun (f : Traffic.Flow.t) ->
        let component, (verdict, ceilings) =
          Hashtbl.find of_id f.Traffic.Flow.id
        in
        { flow_id = f.Traffic.Flow.id; flow_name = f.Traffic.Flow.name;
          component; verdict; ceilings })
      (Traffic.Scenario.flows scenario)
  in
  let n_inf =
    List.length
      (List.filter (fun v -> match v.verdict with Infeasible _ -> true | _ -> false) verdicts)
  in
  let n_cert =
    List.length
      (List.filter
         (fun v -> match v.verdict with Schedulable _ -> true | _ -> false)
         verdicts)
  in
  if Gmf_obs.Metrics.enabled Gmf_obs.Metrics.default then begin
    Gmf_obs.Metrics.incr m_runs;
    Gmf_obs.Metrics.incr ~by:stats.Igraph.components m_components;
    Gmf_obs.Metrics.incr ~by:!reused m_components_reused;
    Gmf_obs.Metrics.incr ~by:(n_inf + n_cert) m_decided;
    Gmf_obs.Metrics.incr ~by:n_inf m_infeasible;
    Gmf_obs.Metrics.incr ~by:n_cert m_certified;
    Gmf_obs.Metrics.set_gauge g_largest (float_of_int stats.Igraph.largest)
  end;
  { stats; components; verdicts }

(* ---------------- accessors ---------------- *)

let infeasible report =
  List.filter
    (fun v -> match v.verdict with Infeasible _ -> true | _ -> false)
    report.verdicts

let certified report =
  List.filter
    (fun v -> match v.verdict with Schedulable _ -> true | _ -> false)
    report.verdicts

let decided report = List.length (infeasible report) + List.length (certified report)

let verdict_of report id =
  match List.find_opt (fun v -> v.flow_id = id) report.verdicts with
  | Some v -> v.verdict
  | None -> invalid_arg (Printf.sprintf "Precheck.verdict_of: unknown flow %d" id)

let undecided_components report =
  let undecided = Hashtbl.create 16 in
  List.iter
    (fun v ->
      match v.verdict with
      | Needs_fixpoint _ -> Hashtbl.replace undecided v.component ()
      | _ -> ())
    report.verdicts;
  List.filter
    (fun (c : Igraph.component) -> Hashtbl.mem undecided c.Igraph.cid)
    report.components

(* ---------------- diagnostics ---------------- *)

let default_max_component = 64

let inequality_name = function
  | Eq20_link_overload _ -> "eq20-link-overload"
  | Eq34_35_ingress_overload _ -> "eq34-35-ingress-overload"
  | Demand_floor _ -> "demand-floor"
  | One_shot_bound _ -> "one-shot-bound"

let pp_certificate fmt c =
  match c.inequality with
  | Eq20_link_overload { src; dst } ->
      Format.fprintf fmt
        "eq (20) on link %d->%d: utilization %.3f >= 1 (slack %.3f)" src dst
        c.value c.slack
  | Eq34_35_ingress_overload { src; node } ->
      Format.fprintf fmt
        "eqs (34)-(35) at node %d via link %d->%d: rotation utilization %.3f \
         >= 1 (slack %.3f)"
        node src node c.value c.slack
  | Demand_floor { frame; stage } ->
      Format.fprintf fmt
        "demand floor of frame %d: %.0f ns > deadline %.0f ns (binding %a, \
         slack %.0f ns)"
        frame c.value c.limit Stage_key.pp stage c.slack
  | One_shot_bound { frame; stage } ->
      Format.fprintf fmt
        "one-shot bound of frame %d: %.0f ns <= deadline %.0f ns (binding \
         %a, slack %.0f ns)"
        frame c.value c.limit Stage_key.pp stage c.slack

let pp_verdict fmt = function
  | Infeasible c ->
      Format.fprintf fmt "infeasible (%a)" pp_certificate c
  | Schedulable c ->
      Format.fprintf fmt "schedulable (%a)" pp_certificate c
  | Needs_fixpoint { reason } ->
      Format.fprintf fmt "needs-fixpoint (%s)" reason

let by_code_then_message (a : Gmf_diag.t) (b : Gmf_diag.t) =
  compare (a.Gmf_diag.code, a.Gmf_diag.message)
    (b.Gmf_diag.code, b.Gmf_diag.message)

let diagnostics ?(max_component = default_max_component) report =
  let gmf018 =
    List.map
      (fun v ->
        match v.verdict with
        | Infeasible cert ->
            let subject =
              match cert.inequality with
              | Demand_floor { frame; _ } ->
                  Gmf_diag.Frame
                    { id = v.flow_id; name = v.flow_name; frame }
              | _ -> Gmf_diag.Flow { id = v.flow_id; name = v.flow_name }
            in
            Gmf_diag.error ~code:"GMF018" ~subject
              ~suggestion:
                "the holistic analysis cannot admit this flow; shed it, \
                 reroute it or relax the violated constraint"
              "statically infeasible: %s"
              (Format.asprintf "%a" pp_certificate cert)
        | _ -> assert false)
      (infeasible report)
  in
  let gmf019 =
    List.filter_map
      (fun (c : Igraph.component) ->
        let size = List.length c.Igraph.members in
        if size > max_component then
          Some
            (Gmf_diag.warning ~code:"GMF019" ~subject:Gmf_diag.Scenario
               ~suggestion:
                 "the fixpoint on this component may dominate analysis \
                  time; reduce route sharing or raise the bound"
               "interference component %d spans %d flows (bound %d)"
               c.Igraph.cid size max_component)
        else None)
      report.components
  in
  List.sort by_code_then_message (gmf018 @ gmf019)

(* ---------------- rendering ---------------- *)

let pp fmt report =
  Format.fprintf fmt "interference graph: %a@,"
    (Igraph.pp_stats ~edges:(Igraph.edges report.components))
    report.stats;
  List.iter
    (fun (c : Igraph.component) ->
      Format.fprintf fmt "component %d (%d flows):@," c.Igraph.cid
        (List.length c.Igraph.members);
      List.iter
        (fun v ->
          if v.component = c.Igraph.cid then
            Format.fprintf fmt "  flow %d %s: %a@," v.flow_id v.flow_name
              pp_verdict v.verdict)
        report.verdicts)
    report.components;
  Format.fprintf fmt "decided statically: %d/%d (%d infeasible, %d certified)"
    (decided report) report.stats.Igraph.flows
    (List.length (infeasible report))
    (List.length (certified report))

let to_json report =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let s = report.stats and edges = Igraph.edges report.components in
  add "{\n";
  add
    "  \"stats\": {\"flows\": %d, \"edges\": %d, \"components\": %d, \
     \"largest\": %d, \"singletons\": %d, \"density\": %.4f},\n"
    s.Igraph.flows edges s.Igraph.components s.Igraph.largest
    s.Igraph.singletons (Igraph.density s ~edges);
  add "  \"components\": [";
  List.iteri
    (fun i (c : Igraph.component) ->
      if i > 0 then add ", ";
      add "{\"cid\": %d, \"flows\": [%s]}" c.Igraph.cid
        (String.concat ", "
           (List.map
              (fun (f : Traffic.Flow.t) -> string_of_int f.Traffic.Flow.id)
              c.Igraph.members)))
    report.components;
  add "],\n";
  add "  \"verdicts\": [\n";
  List.iteri
    (fun i v ->
      if i > 0 then add ",\n";
      add "    {\"flow\": %d, \"name\": %s, \"component\": %d, " v.flow_id
        (Gmf_util.Json.quote v.flow_name) v.component;
      (match v.verdict with
      | Needs_fixpoint { reason } ->
          add "\"verdict\": \"needs-fixpoint\", \"reason\": %s}"
            (Gmf_util.Json.quote reason)
      | (Infeasible cert | Schedulable cert) as verdict ->
          add "\"verdict\": \"%s\", "
            (match verdict with
            | Infeasible _ -> "infeasible"
            | _ -> "schedulable");
          add
            "\"certificate\": {\"inequality\": \"%s\", \"value\": %.3f, \
             \"limit\": %.3f, \"slack\": %.3f, \"detail\": %s}"
            (inequality_name cert.inequality)
            cert.value cert.limit cert.slack
            (Gmf_util.Json.quote (Format.asprintf "%a" pp_certificate cert));
          (match v.ceilings with
          | Some bounds ->
              add ", \"ceilings\": [%s]}"
                (String.concat ", "
                   (Array.to_list (Array.map string_of_int bounds)))
          | None -> add "}")))
    report.verdicts;
  add "\n  ],\n";
  add "  \"decided\": %d\n" (decided report);
  add "}\n";
  Buffer.contents buf
