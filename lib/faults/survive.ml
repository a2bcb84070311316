type component =
  | Link of Network.Node.id * Network.Node.id
  | Switch of Network.Node.id

type fate = Unaffected | Rerouted of Network.Route.t | Shed

type delta = {
  d_closure : int;
  d_skipped : int;
  d_saved : int;
  d_fallbacks : int;
  d_warm : int;
}

type case_result = {
  case : component list;
  fates : (Traffic.Flow.t * fate) list;
  verdict : Analysis.Holistic.verdict;
  rounds : int;
  delta : delta option;
}

type flow_verdict = Survives | Survives_with_reroute | Must_shed

type report = {
  k : int;
  base : Analysis.Holistic.report;
  cases : case_result list;
  matrix : (Traffic.Flow.t * flow_verdict) list;
  shed_set : Traffic.Flow.t list;
  delta_totals : delta option;
}

let m_cases = Gmf_obs.Metrics.counter Gmf_obs.Metrics.default "survive.cases"

let m_rerouted =
  Gmf_obs.Metrics.counter Gmf_obs.Metrics.default "faults.flows_rerouted"

let m_shed =
  Gmf_obs.Metrics.counter Gmf_obs.Metrics.default "faults.flows_shed"

let components scenario =
  let topo = Traffic.Scenario.topo scenario in
  let seen = Hashtbl.create 16 in
  let links =
    List.filter_map
      (fun (l : Network.Link.t) ->
        let a = min l.Network.Link.src l.Network.Link.dst
        and b = max l.Network.Link.src l.Network.Link.dst in
        if Hashtbl.mem seen (a, b) then None
        else begin
          Hashtbl.replace seen (a, b) ();
          Some (Link (a, b))
        end)
      (Network.Topology.links topo)
  in
  let switches =
    List.filter_map
      (fun (n : Network.Node.t) ->
        if Network.Node.is_switch n then Some (Switch n.Network.Node.id)
        else None)
      (Network.Topology.nodes topo)
  in
  links @ switches

let component_name scenario component =
  let topo = Traffic.Scenario.topo scenario in
  let name id = (Network.Topology.node topo id).Network.Node.name in
  match component with
  | Link (a, b) -> Printf.sprintf "link %s<->%s" (name a) (name b)
  | Switch n -> Printf.sprintf "switch %s" (name n)

(* All subsets of [comps] of size 1..k, smallest size first.  Within a
   size class the subsets walk in revolving-door Gray order: consecutive
   cases differ by swapping exactly one component in and one out.  No
   cost depends on the order (every closure is relative to the
   fault-free base, and the base's precheck and report tables hold every
   component the sweep met); it is kept because the reports and their
   goldens list cases in it.  Each subset lists its components in
   [comps] order, and the size-1 class is exactly [comps] — the k=1
   case order (and its golden) is unchanged from the naive
   enumeration. *)
let failure_cases ~k comps =
  let arr = Array.of_list comps in
  let n = Array.length arr in
  (* Revolving-door: R(n,t) = R(n-1,t) ++ reverse(R(n-1,t-1)) * {n-1}.
     The last of R(n-1,t) and the first of the reversed block differ by
     one swap, as do neighbours inside each block (induction). *)
  let rec revolving n t =
    if t = 0 then [ [] ]
    else if t > n then []
    else if t = n then [ List.init n Fun.id ]
    else
      revolving (n - 1) t
      @ List.map
          (fun c -> c @ [ n - 1 ])
          (List.rev (revolving (n - 1) (t - 1)))
  in
  List.concat_map
    (fun size ->
      List.map (List.map (Array.get arr)) (revolving n (size + 1)))
    (List.init k Fun.id)

type sweep = {
  scenario : Traffic.Scenario.t;
  reroutes : (Traffic.Flow.id * Network.Node.id list, Traffic.Flow.t)
    Hashtbl.t;
      (* (flow, route) -> the one rerouted record of the sweep *)
}

let sweep scenario = { scenario; reroutes = Hashtbl.create 64 }

(* The directed links and nodes a failure case takes out: a failed
   switch takes every link into and out of it. *)
let failed_parts sw case =
  let topo = Traffic.Scenario.topo sw.scenario in
  List.fold_left
    (fun (links, nodes) -> function
      | Link (a, b) -> ((a, b) :: (b, a) :: links, nodes)
      | Switch n ->
          ( List.map (fun m -> (n, m)) (Network.Topology.out_neighbors topo n)
            @ List.map (fun m -> (m, n)) (Network.Topology.in_neighbors topo n)
            @ links,
            n :: nodes ))
    ([], []) case

(* The one record of [f] on [route] for the whole sweep: every case that
   reroutes [f] the same way shares it, and the params it fits. *)
let reroute sw (f : Traffic.Flow.t) route =
  let key = (f.Traffic.Flow.id, Network.Route.nodes route) in
  match Hashtbl.find_opt sw.reroutes key with
  | Some r -> r
  | None ->
      let r = Analysis.Rerouting.with_route f route in
      Hashtbl.replace sw.reroutes key r;
      r

let id_set flows =
  let t = Hashtbl.create 16 in
  List.iter
    (fun (f : Traffic.Flow.t) -> Hashtbl.replace t f.Traffic.Flow.id ())
    flows;
  t

(* Lowest 802.1p priority first; ties shed the most recently admitted
   (highest id) flow first.  The comparator is total (flow ids are
   unique), and [stable_sort] pins the permutation even if that ever
   stops holding — the delta walk and a cold enumeration may present
   survivors in different arrangements, and both must pick identical
   victims.  Shared with Gmf_admctl's degraded mode. *)
let shed_order flows =
  List.stable_sort
    (fun (a : Traffic.Flow.t) (b : Traffic.Flow.t) ->
      match compare a.Traffic.Flow.priority b.Traffic.Flow.priority with
      | 0 -> compare b.Traffic.Flow.id a.Traffic.Flow.id
      | c -> c)
    flows

let delta_zero =
  { d_closure = 0; d_skipped = 0; d_saved = 0; d_fallbacks = 0; d_warm = 0 }

let delta_add a b =
  {
    d_closure = a.d_closure + b.d_closure;
    d_skipped = a.d_skipped + b.d_skipped;
    d_saved = a.d_saved + b.d_saved;
    d_fallbacks = a.d_fallbacks + b.d_fallbacks;
    d_warm = a.d_warm + b.d_warm;
  }

type 'a degraded = {
  placed : (Traffic.Flow.t * fate) list;
  victims : Traffic.Flow.t list;
  survivors : Traffic.Flow.t list;
  unpinned : Traffic.Flow.t list;
  report : Analysis.Holistic.report;
  last : 'a;
  rounds_spent : int;
}

(* Pure: no counter bumps here.  A flow may be rerouted and then shed
   within one call, so each caller counts the fates it keeps: a sweep
   from its cases' final fates, a session from its degradation. *)
let degrade ~pinned ~avoid_links ~avoid_nodes ~attempt sw =
  let scenario = sw.scenario in
  let topo = Traffic.Scenario.topo scenario in
  (* Phase 1: reroute every flow the failure touches onto its first
     surviving route, or shed it when none survives.  The flows it
     touches are those on a failed directed link: a route starts and
     ends at an endhost or router, so a flow through a failed node
     crosses one of its links, which [avoid_links] holds. *)
  let hit = Hashtbl.create 16 in
  List.iter
    (fun (src, dst) ->
      List.iter
        (fun (f : Traffic.Flow.t) -> Hashtbl.replace hit f.Traffic.Flow.id ())
        (Traffic.Scenario.flows_on scenario ~src ~dst))
    avoid_links;
  let placed =
    List.map
      (fun (f : Traffic.Flow.t) ->
        if not (Hashtbl.mem hit f.Traffic.Flow.id) then
          ((f, Unaffected), Some f)
        else
          let route = f.Traffic.Flow.route in
          match
            Network.Pathfind.first_route ~avoid_links ~avoid_nodes topo
              ~src:(Network.Route.source route)
              ~dst:(Network.Route.destination route)
          with
          | None -> ((f, Shed), None)
          | Some alt -> ((f, Rerouted alt), Some (reroute sw f alt)))
      (Traffic.Scenario.flows scenario)
  in
  let pre_shed, rerouted =
    List.fold_right
      (fun (((f : Traffic.Flow.t), fate), moved) (shed, rerouted) ->
        match (fate, moved) with
        | Shed, _ -> (f.Traffic.Flow.id :: shed, rerouted)
        | Rerouted _, Some r -> (shed, r :: rerouted)
        | _ -> (shed, rerouted))
      placed ([], [])
  in
  let pinned = id_set pinned in
  let is_pinned (f : Traffic.Flow.t) = Hashtbl.mem pinned f.Traffic.Flow.id in
  (* Phase 2: greedy shedding among the unpinned survivors until the
     degraded set is schedulable or nothing sheddable is left.  Each
     attempt is an edit of [scenario]: the sheds are removals and the
     reroutes of the survivors are put records. *)
  let rec settle survivors victims shed rounds =
    let report, last =
      attempt
        {
          Analysis.Delta.removed =
            pre_shed
            @ List.map (fun (v : Traffic.Flow.t) -> v.Traffic.Flow.id) victims;
          put =
            List.filter
              (fun (r : Traffic.Flow.t) ->
                not (Hashtbl.mem shed r.Traffic.Flow.id))
              rerouted;
        }
    in
    let rounds = rounds + report.Analysis.Holistic.rounds in
    let unpinned = List.filter (fun f -> not (is_pinned f)) survivors in
    match
      if Analysis.Holistic.is_schedulable report then []
      else shed_order unpinned
    with
    | [] ->
        {
          placed = List.map fst placed;
          victims = List.rev victims;
          survivors;
          unpinned;
          report;
          last;
          rounds_spent = rounds;
        }
    | victim :: _ ->
        Hashtbl.replace shed victim.Traffic.Flow.id ();
        settle
          (List.filter
             (fun (f : Traffic.Flow.t) ->
               f.Traffic.Flow.id <> victim.Traffic.Flow.id)
             survivors)
          (victim :: victims) shed rounds
  in
  settle (List.filter_map snd placed) [] (Hashtbl.create 8) 0

(* One failure case: {!degrade} with every survivor sheddable, each
   attempt a delta against the shared fault-free base.  Per-attempt
   delta stats are summed into the case result, the copy the report
   (and its JSON) aggregates whether metrics are on or not. *)
let analyze_case dbase sw case =
  Gmf_obs.Tracer.with_span Gmf_obs.Tracer.default ~cat:"faults" "survive.case"
    (fun () ->
      let avoid_links, avoid_nodes = failed_parts sw case in
      let acc = ref delta_zero in
      let attempt edit =
        let d = Analysis.Delta.analyze ~lint:true ~precheck:true dbase edit in
        let s = d.Analysis.Delta.d_stats in
        acc :=
          delta_add !acc
            {
              d_closure = s.Analysis.Delta.closure_flows;
              d_skipped = s.Analysis.Delta.skipped_flows;
              d_saved = s.Analysis.Delta.rounds_saved;
              d_fallbacks = Bool.to_int s.Analysis.Delta.cold_fallback;
              d_warm = Bool.to_int s.Analysis.Delta.warm_seeded;
            };
        (d.Analysis.Delta.d_report, ())
      in
      let d = degrade ~pinned:[] ~avoid_links ~avoid_nodes ~attempt sw in
      let shed_ids = id_set d.victims in
      let fates =
        List.map
          (fun ((f : Traffic.Flow.t), fate) ->
            if Hashtbl.mem shed_ids f.Traffic.Flow.id then (f, Shed)
            else (f, fate))
          d.placed
      in
      {
        case;
        fates;
        verdict = d.report.Analysis.Holistic.verdict;
        rounds = d.rounds_spent;
        delta = Some !acc;
      })

(* A case whose evaluation raised is reported conservatively:
   analysis-failed verdict, every flow shed. *)
let failed_case_result scenario err case =
  {
    case;
    fates =
      List.map
        (fun (f : Traffic.Flow.t) -> (f, Shed))
        (Traffic.Scenario.flows scenario);
    verdict = (Analysis.Case.report_of_error err).Analysis.Holistic.verdict;
    rounds = 0;
    delta = None;
  }

(* A stub for the benchmark harness; see the interface. *)
let clear_memo () = ()

let run ?(config = Analysis.Config.default) ?(k = 1) ?domain scenario =
  if k < 0 then invalid_arg "Survive.run: k < 0";
  (* One base fixpoint shared by every case of the sweep.  A base that
     does not converge leaves every attempt on the delta engine's cold
     fallback, and the sweep reports no delta totals. *)
  let dbase = Analysis.Delta.compute_base ~config scenario in
  (* The reroute records, once per sweep. *)
  let sw = sweep scenario in
  let comps = match domain with Some d -> d | None -> components scenario in
  let case_list = failure_cases ~k comps in
  Gmf_obs.Metrics.incr ~by:(List.length case_list) m_cases;
  let cases =
    List.map
      (fun case ->
        match Analysis.Case.run ~f:(analyze_case dbase sw) case with
        | Ok r -> r
        | Error e -> failed_case_result scenario e case)
      case_list
  in
  (* One pass over every fate: the counters and each flow's worst fate
     across cases.
     [flow_verdict]'s constructors are declared in increasing severity,
     so [max] keeps the worst. *)
  let worst = Hashtbl.create 64 in
  List.iter
    (fun c ->
      List.iter
        (fun ((f : Traffic.Flow.t), fate) ->
          let v =
            match fate with
            | Rerouted _ ->
                Gmf_obs.Metrics.incr m_rerouted;
                Survives_with_reroute
            | Shed ->
                Gmf_obs.Metrics.incr m_shed;
                Must_shed
            | Unaffected -> Survives
          in
          let id = f.Traffic.Flow.id in
          match Hashtbl.find_opt worst id with
          | Some w when w >= v -> ()
          | _ -> Hashtbl.replace worst id v)
        c.fates)
    cases;
  let matrix =
    List.map
      (fun (f : Traffic.Flow.t) ->
        ( f,
          Option.value ~default:Survives
            (Hashtbl.find_opt worst f.Traffic.Flow.id) ))
      (Traffic.Scenario.flows scenario)
  in
  let shed_set =
    List.filter_map
      (fun (f, v) -> if v = Must_shed then Some f else None)
      matrix
  in
  let delta_totals =
    if Analysis.Delta.base_ok dbase then
      Some
        (List.fold_left
           (fun acc c ->
             match c.delta with Some d -> delta_add acc d | None -> acc)
           delta_zero cases)
    else None
  in
  {
    k;
    base = Analysis.Delta.base_report dbase;
    cases;
    matrix;
    shed_set;
    delta_totals;
  }

(* ------------------------------------------------------------------ *)
(* Survivable-admission gate                                           *)
(* ------------------------------------------------------------------ *)

let admission_gate ?config ?(k = 1) ~(candidate : Traffic.Flow.t) scenario =
  let report = run ?config ~k scenario in
  let verdict =
    List.find_map
      (fun ((f : Traffic.Flow.t), v) ->
        if f.Traffic.Flow.id = candidate.Traffic.Flow.id then Some v
        else None)
      report.matrix
  in
  match verdict with
  | Some Must_shed ->
      let shed_cases =
        List.filter
          (fun c ->
            List.exists
              (fun ((f : Traffic.Flow.t), fate) ->
                f.Traffic.Flow.id = candidate.Traffic.Flow.id && fate = Shed)
              c.fates)
          report.cases
      in
      let witness =
        match shed_cases with
        | c :: _ ->
            String.concat " + " (List.map (component_name scenario) c.case)
        | [] -> "unknown case"
      in
      [
        Gmf_diag.error ~code:"GMF017"
          ~subject:
            (Gmf_diag.Flow
               {
                 id = candidate.Traffic.Flow.id;
                 name = candidate.Traffic.Flow.name;
               })
          ~suggestion:
            "add an alternate route (extra link) for the flow, raise its \
             priority, or admit without the survivability gate"
          "flow %S is shed in %d of %d <=%d-failure case(s) (first: %s)"
          candidate.Traffic.Flow.name (List.length shed_cases)
          (List.length report.cases) k witness;
      ]
  | Some Survives | Some Survives_with_reroute | None -> []

(* ------------------------------------------------------------------ *)
(* Rendering                                                          *)
(* ------------------------------------------------------------------ *)

let fate_string = function
  | Unaffected -> "unaffected"
  | Rerouted _ -> "rerouted"
  | Shed -> "shed"

let flow_verdict_string = function
  | Survives -> "survives"
  | Survives_with_reroute -> "survives-with-reroute"
  | Must_shed -> "must-shed"

let case_name scenario case =
  String.concat " + " (List.map (component_name scenario) case)

let pp_report scenario fmt r =
  let count pred fates = List.length (List.filter (fun (_, f) -> pred f) fates) in
  Format.fprintf fmt "baseline: %s (%d rounds), %d flows, k=%d, %d cases@\n"
    (Analysis.Holistic.verdict_tag r.base.Analysis.Holistic.verdict)
    r.base.Analysis.Holistic.rounds
    (List.length (Traffic.Scenario.flows scenario))
    r.k (List.length r.cases);
  (match r.delta_totals with
  | None -> ()
  | Some d ->
      Format.fprintf fmt
        "delta: closure=%d skipped=%d rounds-saved=%d warm=%d fallbacks=%d@\n"
        d.d_closure d.d_skipped d.d_saved d.d_warm d.d_fallbacks);
  List.iter
    (fun c ->
      Format.fprintf fmt "  %-28s %-15s rounds=%-3d rerouted=%d shed=%d@\n"
        (case_name scenario c.case)
        (Analysis.Holistic.verdict_tag c.verdict)
        c.rounds
        (count (function Rerouted _ -> true | _ -> false) c.fates)
        (count (fun f -> f = Shed) c.fates))
    r.cases;
  Format.fprintf fmt "per-flow verdicts:@\n";
  List.iter
    (fun ((f : Traffic.Flow.t), v) ->
      Format.fprintf fmt "  %-12s %s@\n" f.Traffic.Flow.name
        (flow_verdict_string v))
    r.matrix;
  match r.shed_set with
  | [] -> Format.fprintf fmt "shed set: (empty)@\n"
  | shed ->
      Format.fprintf fmt "shed set: %s@\n"
        (String.concat ", "
           (List.map
              (fun (f : Traffic.Flow.t) ->
                Printf.sprintf "%s (prio %d)" f.Traffic.Flow.name
                  f.Traffic.Flow.priority)
              shed))

(* Written piece by piece, one case at a time, so a large sweep never
   holds its whole rendering in memory. *)
let pp_json scenario fmt r =
  let str = Gmf_util.Json.quote in
  let add = Format.pp_print_string fmt in
  (* Each element of [xs] rendered by [one], separated by [",\n"]. *)
  let elements one xs =
    List.iteri
      (fun i x ->
        if i > 0 then add ",\n";
        add (one x))
      xs
  in
  add "{\n";
  add (Printf.sprintf "  \"k\": %d,\n" r.k);
  add
    (Printf.sprintf "  \"base\": %s,\n"
       (str (Analysis.Holistic.verdict_tag r.base.Analysis.Holistic.verdict)));
  (match r.delta_totals with
  | None -> add "  \"delta\": null,\n"
  | Some d ->
      add
        (Printf.sprintf
           "  \"delta\": {\"closure_flows\": %d, \"flows_skipped\": %d, \
            \"rounds_saved\": %d, \"warm_seeded\": %d, \"cold_fallbacks\": \
            %d},\n"
           d.d_closure d.d_skipped d.d_saved d.d_warm d.d_fallbacks));
  add "  \"cases\": [\n";
  let case_json c =
    let fate_json ((f : Traffic.Flow.t), fate) =
      let route_field =
        match fate with
        | Rerouted route ->
            Printf.sprintf ", \"route\": %s"
              (str (Format.asprintf "%a" Network.Route.pp route))
        | Unaffected | Shed -> ""
      in
      Printf.sprintf "{\"flow\": %s, \"fate\": %s%s}"
        (str f.Traffic.Flow.name)
        (str (fate_string fate))
        route_field
    in
    Printf.sprintf
      "    {\"failed\": [%s], \"verdict\": %s, \"rounds\": %d,\n\
      \     \"flows\": [%s]}"
      (String.concat ", "
         (List.map (fun comp -> str (component_name scenario comp)) c.case))
      (str (Analysis.Holistic.verdict_tag c.verdict))
      c.rounds
      (String.concat ", " (List.map fate_json c.fates))
  in
  elements case_json r.cases;
  add "\n  ],\n";
  add "  \"matrix\": [\n";
  elements
    (fun ((f : Traffic.Flow.t), v) ->
      Printf.sprintf "    {\"flow\": %s, \"verdict\": %s}"
        (str f.Traffic.Flow.name)
        (str (flow_verdict_string v)))
    r.matrix;
  add "\n  ],\n";
  add
    (Printf.sprintf "  \"shed\": [%s]\n"
       (String.concat ", "
          (List.map
             (fun (f : Traffic.Flow.t) -> str f.Traffic.Flow.name)
             r.shed_set)));
  add "}\n"
