open Gmf_util

type category = Structural | Model | Utilization

let category_to_string = function
  | Structural -> "structural"
  | Model -> "model"
  | Utilization -> "utilization"

type rule = {
  code : string;
  category : category;
  default_severity : Gmf_diag.severity;
  title : string;
  reference : string;
}

let catalog =
  [
    {
      code = "GMF001";
      category = Structural;
      default_severity = Gmf_diag.Error;
      title = "duplicate flow name";
      reference = "Section 2.3 (flows are identified by name in reports)";
    };
    {
      code = "GMF002";
      category = Structural;
      default_severity = Gmf_diag.Hint;
      title = "redundant 802.1p remark";
      reference = "eq (2): a remark equal to the default priority is a no-op";
    };
    {
      code = "GMF003";
      category = Structural;
      default_severity = Gmf_diag.Warning;
      title = "isolated node";
      reference = "Section 2.1 (every node should attach to the network)";
    };
    {
      code = "GMF004";
      category = Structural;
      default_severity = Gmf_diag.Hint;
      title = "link carries no flow";
      reference = "Section 3 (flows(N1,N2) is empty)";
    };
    {
      code = "GMF005";
      category = Structural;
      default_severity = Gmf_diag.Hint;
      title = "route longer than the shortest path";
      reference = "Section 2.1 (routes are pre-specified, detours are legal \
                   but add stages)";
    };
    {
      code = "GMF006";
      category = Structural;
      default_severity = Gmf_diag.Hint;
      title = "switch model on a switch no route crosses";
      reference = "Section 2.2 (CIRC only matters on relaying switches)";
    };
    {
      code = "GMF007";
      category = Structural;
      default_severity = Gmf_diag.Hint;
      title = "single point of failure: no alternate route";
      reference =
        "Section 2.1 (routes are pre-specified; a flow relayed through \
         switches with at most one src/dst route of up to \
         Network.Pathfind.max_hops links cannot be rerouted around a link \
         or switch failure, see Gmf_faults.Survive)";
    };
    {
      code = "GMF010";
      category = Structural;
      default_severity = Gmf_diag.Error;
      title = "priority outside the 802.1p range";
      reference = "Section 2.1 (802.1p code points are 0..7)";
    };
    {
      code = "GMF011";
      category = Structural;
      default_severity = Gmf_diag.Error;
      title = "remark on a hop not on the route";
      reference = "eq (2): prio(tau,N1,N2) is defined on route links only";
    };
    {
      code = "GMF012";
      category = Structural;
      default_severity = Gmf_diag.Error;
      title = "hop remarked twice";
      reference = "eq (2): one priority per flow per link";
    };
    {
      code = "GMF013";
      category = Structural;
      default_severity = Gmf_diag.Error;
      title = "non-positive payload scale factor";
      reference = "Section 2.3 (payloads are positive)";
    };
    {
      code = "GMF014";
      category = Structural;
      default_severity = Gmf_diag.Error;
      title = "candidate flow id already admitted";
      reference =
        "Section 3.5 (admission control: produced by Analysis.Admission \
         and Gmf_admctl sessions, not by the scenario rules)";
    };
    {
      code = "GMF015";
      category = Structural;
      default_severity = Gmf_diag.Error;
      title = "remove/update of a flow id the session does not hold";
      reference =
        "Section 3.5 (admission control: produced by Gmf_admctl sessions, \
         not by the scenario rules)";
    };
    {
      code = "GMF016";
      category = Structural;
      default_severity = Gmf_diag.Error;
      title = "fault event error (failed-link routing, unknown or \
               duplicate fail/restore)";
      reference =
        "Section 3.5 (degraded-mode sessions: produced by Gmf_admctl \
         fail/restore handling, not by the scenario rules)";
    };
    {
      code = "GMF017";
      category = Structural;
      default_severity = Gmf_diag.Error;
      title = "candidate not k-failure survivable (must-shed verdict)";
      reference =
        "Section 3.5 (produced by the survivable-admission gate — \
         Gmf_faults.Survive.admission_gate — not by the scenario \
         rules)";
    };
    {
      code = "GMF018";
      category = Utilization;
      default_severity = Gmf_diag.Error;
      title = "flow statically infeasible (precheck certificate)";
      reference =
        "eqs (20)/(34)-(35) and the one-shot demand floor (produced by \
         Gmf_precheck.Precheck, not by the scenario rules)";
    };
    {
      code = "GMF019";
      category = Utilization;
      default_severity = Gmf_diag.Warning;
      title = "interference component larger than the configured bound";
      reference =
        "Section 3.5 (fixpoint cost grows with the interference \
         component; produced by Gmf_precheck.Precheck, not by the \
         scenario rules)";
    };
    {
      code = "GMF101";
      category = Model;
      default_severity = Gmf_diag.Hint;
      title = "frame deadline exceeds its period";
      reference = "Section 2.3 (D > T is legal but admits cross-cycle \
                   backlog; the analysis walks Q instances)";
    };
    {
      code = "GMF102";
      category = Model;
      default_severity = Gmf_diag.Warning;
      title = "source jitter at least the frame period";
      reference = "eqs (21)-(35) charge interference per jitter window; \
                   GJ >= T makes bursts of back-to-back cycles possible";
    };
    {
      code = "GMF103";
      category = Model;
      default_severity = Gmf_diag.Hint;
      title = "payload fragments into several Ethernet frames";
      reference = "Section 3.1 / DESIGN.md R2-R3: fragmentation is where \
                   the Faithful variant under-charges rotations";
    };
    {
      code = "GMF104";
      category = Model;
      default_severity = Gmf_diag.Hint;
      title = "equal 802.1p priority on a shared link";
      reference = "eq (2): hep() counts priority ties as interference both \
                   ways; bounds for tied flows are mutually pessimistic";
    };
    {
      code = "GMF105";
      category = Model;
      default_severity = Gmf_diag.Hint;
      title = "switch model has more interfaces than links";
      reference = "Section 2.2: CIRC(N) grows with NINTERFACES(N); unused \
                   ports still cost a rotation slot";
    };
    {
      code = "GMF201";
      category = Utilization;
      default_severity = Gmf_diag.Error;
      title = "link utilization at least 1";
      reference = "eq (20): sum of CSUM/TSUM over flows(N1,N2) must stay \
                   below 1";
    };
    {
      code = "GMF202";
      category = Utilization;
      default_severity = Gmf_diag.Error;
      title = "deadline below the uncontended response time";
      reference = "Figure 6: RSUM starts at GJ and adds at least each \
                   stage's own transmission/rotation time";
    };
    {
      code = "GMF203";
      category = Utilization;
      default_severity = Gmf_diag.Error;
      title = "ingress task rotation overload";
      reference = "eqs (34)-(35): sum of NSUM*CIRC/TSUM over an ingress \
                   link must stay below 1";
    };
    {
      code = "GMF204";
      category = Utilization;
      default_severity = Gmf_diag.Hint;
      title = "link near saturation";
      reference = "eq (20): utilization in [0.9, 1) converges but busy \
                   periods grow sharply";
    };
    {
      code = "GMF205";
      category = Utilization;
      default_severity = Gmf_diag.Warning;
      title = "analysis horizon below a frame deadline";
      reference = "Config.horizon treats longer busy periods as divergence; \
                   a horizon under max D cannot prove schedulability";
    };
    {
      code = "GMF206";
      category = Utilization;
      default_severity = Gmf_diag.Error;
      title = "non-positive analysis iteration cap";
      reference = "Section 3.5: the fixed points need at least one \
                   iteration and one holistic round";
    };
  ]

let find code = List.find_opt (fun r -> r.code = code) catalog

(* ---------------- shared helpers ---------------- *)

let flow_subject (f : Traffic.Flow.t) =
  Gmf_diag.Flow { id = f.Traffic.Flow.id; name = f.Traffic.Flow.name }

let frame_subject (f : Traffic.Flow.t) k =
  Gmf_diag.Frame { id = f.Traffic.Flow.id; name = f.Traffic.Flow.name; frame = k }

let node_subject topo id =
  Gmf_diag.Node { id; name = (Network.Topology.node topo id).Network.Node.name }

(* ---------------- GMF0xx: structural ---------------- *)

(* Over [flows] in id order: the first of a name is the one cited. *)
let check_duplicate_names flows =
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun (f : Traffic.Flow.t) ->
      match Hashtbl.find_opt seen f.Traffic.Flow.name with
      | Some first ->
          Some
            (Gmf_diag.error ~code:"GMF001" ~subject:(flow_subject f)
               ~suggestion:"give every flow a distinct name"
               "flow name %S already used by flow %d" f.Traffic.Flow.name
               first)
      | None ->
          Hashtbl.add seen f.Traffic.Flow.name f.Traffic.Flow.id;
          None)
    flows

let check_redundant_remarks (f : Traffic.Flow.t) =
  List.filter_map
    (fun ((src, dst), p) ->
      if p = f.Traffic.Flow.priority then
        Some
          (Gmf_diag.hint ~code:"GMF002" ~subject:(flow_subject f)
             ~suggestion:"drop the remark; the default already applies"
             "remark on hop %d->%d repeats the default priority %d" src dst p)
      else None)
    f.Traffic.Flow.remarks

let check_isolated_nodes scenario =
  let topo = Traffic.Scenario.topo scenario in
  let attached = Hashtbl.create 16 in
  List.iter
    (fun (l : Network.Link.t) ->
      Hashtbl.replace attached l.Network.Link.src ();
      Hashtbl.replace attached l.Network.Link.dst ())
    (Network.Topology.links topo);
  List.filter_map
    (fun (n : Network.Node.t) ->
      if Hashtbl.mem attached n.Network.Node.id then None
      else
        Some
          (Gmf_diag.warning ~code:"GMF003"
             ~subject:(node_subject topo n.Network.Node.id)
             ~suggestion:"add a link or remove the node"
             "node has no links"))
    (Network.Topology.nodes topo)

let check_unused_links scenario =
  let topo = Traffic.Scenario.topo scenario in
  List.filter_map
    (fun (l : Network.Link.t) ->
      let src = l.Network.Link.src and dst = l.Network.Link.dst in
      if Traffic.Scenario.flows_on scenario ~src ~dst <> [] then None
      else
        Some
          (Gmf_diag.hint ~code:"GMF004"
             ~subject:(Gmf_diag.Link { src; dst })
             ~suggestion:"no flow routes over this direction"
             "link carries no flow"))
    (Network.Topology.links topo)

(* Routes end at endhosts, so a switch relays some flow exactly when a
   link into it carries one. *)
let check_unused_switches scenario =
  let topo = Traffic.Scenario.topo scenario in
  List.filter_map
    (fun node ->
      if
        List.exists
          (fun src -> Traffic.Scenario.flows_on scenario ~src ~dst:node <> [])
          (Network.Topology.in_neighbors topo node)
      then None
      else
        Some
          (Gmf_diag.hint ~code:"GMF006" ~subject:(node_subject topo node)
             ~suggestion:"no route relays through this switch"
             "switch model is never exercised"))
    (Traffic.Scenario.switch_nodes scenario)

(* GMF005 and GMF007 over the flows of one pass, from one route search
   per destination ({!Network.Pathfind.summarize}).  Only flows relayed
   through at least one switch are searched: a direct wire has no
   shorter route, and is trivially its only one (flagging it would
   drown every two-node scenario in GMF007 hints). *)
let check_routes topo flows =
  let relayed (f : Traffic.Flow.t) =
    Network.Route.hop_count f.Traffic.Flow.route > 1
  in
  let endpoints (f : Traffic.Flow.t) =
    let route = f.Traffic.Flow.route in
    (Network.Route.source route, Network.Route.destination route)
  in
  let findings (f : Traffic.Flow.t) (a : Network.Pathfind.summary) =
    let hops = Network.Route.hop_count f.Traffic.Flow.route in
    let detour =
      match a.Network.Pathfind.fewest with
      | Some d when d < hops ->
          [
            Gmf_diag.hint ~code:"GMF005" ~subject:(flow_subject f)
              ~suggestion:(Printf.sprintf "a %d-hop path exists" d)
              "route takes %d hops where %d suffice" hops d;
          ]
      | _ -> []
    in
    if a.Network.Pathfind.second then detour
    else
      let src, dst = endpoints f in
      let name id = (Network.Topology.node topo id).Network.Node.name in
      detour
      @ [
          Gmf_diag.hint ~code:"GMF007" ~subject:(flow_subject f)
            ~suggestion:
              "add a redundant link so the flow can survive a failure \
               (gmfnet survive enumerates the cases)"
            "single point of failure: at most one route of up to %d links \
             from %s to %s"
            Network.Pathfind.max_hops (name src) (name dst);
        ]
  in
  let rec zip flows answers =
    match (flows, answers) with
    | [], _ -> []
    | f :: rest, a :: answers when relayed f -> findings f a :: zip rest answers
    | _ :: rest, _ -> [] :: zip rest answers
  in
  zip flows
    (Network.Pathfind.summarize topo
       (List.filter_map
          (fun (f : Traffic.Flow.t) ->
            if relayed f then
              let src, dst = endpoints f in
              Some (src, dst, Network.Route.hop_count f.Traffic.Flow.route - 1)
            else None)
          flows))

(* ---------------- GMF1xx: model preconditions ---------------- *)

(* The findings of [check f k] over every frame [k] of [f]. *)
let per_frame (f : Traffic.Flow.t) check =
  List.filter_map (check f) (List.init (Traffic.Flow.n f) Fun.id)

let check_deadline_vs_period (f : Traffic.Flow.t) k =
  let fr = Gmf.Spec.frame f.Traffic.Flow.spec k in
  if fr.Gmf.Frame_spec.deadline > fr.Gmf.Frame_spec.period then
    Some
      (Gmf_diag.hint ~code:"GMF101" ~subject:(frame_subject f k)
         ~suggestion:"legal, but consecutive cycles may overlap in the network"
         "deadline %s exceeds period %s"
         (Timeunit.to_string fr.Gmf.Frame_spec.deadline)
         (Timeunit.to_string fr.Gmf.Frame_spec.period))
  else None

let check_jitter_vs_period (f : Traffic.Flow.t) k =
  let fr = Gmf.Spec.frame f.Traffic.Flow.spec k in
  if
    fr.Gmf.Frame_spec.period > 0
    && fr.Gmf.Frame_spec.jitter >= fr.Gmf.Frame_spec.period
  then
    Some
      (Gmf_diag.warning ~code:"GMF102" ~subject:(frame_subject f k)
         ~suggestion:"bursts of back-to-back releases inflate every bound"
         "source jitter %s is at least the period %s"
         (Timeunit.to_string fr.Gmf.Frame_spec.jitter)
         (Timeunit.to_string fr.Gmf.Frame_spec.period))
  else None

let check_fragmentation ~(config : Analysis_config.t) (f : Traffic.Flow.t) k =
  let nbits = Traffic.Flow.nbits f k in
  let frags = Ethernet.Fragment.fragment_count ~nbits in
  if frags > 1 then
    let build =
      match config.Analysis_config.variant with
      | Analysis_config.Faithful ->
          Gmf_diag.warning
            ~suggestion:
              "the faithful variant under-charges rotations for fragmented \
               frames; prefer --variant repaired"
      | Analysis_config.Repaired ->
          Gmf_diag.hint ~suggestion:"each fragment costs a CIRC rotation"
    in
    Some
      (build ~code:"GMF103" ~subject:(frame_subject f k)
         "datagram of %d bits fragments into %d Ethernet frames" nbits frags)
  else None

let check_priority_ties scenario =
  List.concat_map
    (fun ((src, dst), _) ->
      let flows = Traffic.Scenario.flows_on scenario ~src ~dst in
      let by_prio = Hashtbl.create 8 in
      List.iter
        (fun (f : Traffic.Flow.t) ->
          let p = Traffic.Flow.priority_on f ~src ~dst in
          let prev =
            Option.value ~default:[] (Hashtbl.find_opt by_prio p)
          in
          Hashtbl.replace by_prio p (f :: prev))
        flows;
      Hashtbl.fold
        (fun p group acc ->
          if List.length group >= 2 then
            Gmf_diag.hint ~code:"GMF104"
              ~subject:(Gmf_diag.Link { src; dst })
              ~suggestion:
                "hep() counts ties as interference both ways; distinct \
                 priorities tighten both bounds"
              "%d flows share priority %d on this link"
              (List.length group) p
            :: acc
          else acc)
        by_prio [])
    (Traffic.Scenario.loaded_links scenario)

let check_overprovisioned_switches scenario =
  let topo = Traffic.Scenario.topo scenario in
  List.filter_map
    (fun node ->
      let model = Traffic.Scenario.switch_model scenario node in
      let degree = Network.Topology.degree topo node in
      if model.Click.Switch_model.ninterfaces > degree then
        Some
          (Gmf_diag.hint ~code:"GMF105" ~subject:(node_subject topo node)
             ~suggestion:
               (Printf.sprintf
                  "unused ports still cost rotation slots; CIRC is %s"
                  (Timeunit.to_string (Click.Switch_model.circ model)))
             "model has %d interfaces but the node has %d links"
             model.Click.Switch_model.ninterfaces degree)
      else None)
    (Traffic.Scenario.switch_nodes scenario)

(* ---------------- GMF2xx: utilization / config ---------------- *)

(* GMF201, as the fabric rule and the per-flow gate both report it. *)
let link_overload ~src ~dst u =
  Gmf_diag.error ~code:"GMF201"
    ~subject:(Gmf_diag.Link { src; dst })
    ~suggestion:"shed flows or raise the link rate"
    "utilization %.3f violates the necessary condition of eq (20)" u

let check_link_utilization scenario =
  List.filter_map
    (fun ((src, dst), u) ->
      if u >= 1. then Some (link_overload ~src ~dst u)
      else if u >= 0.9 then
        Some
          (Gmf_diag.hint ~code:"GMF204"
             ~subject:(Gmf_diag.Link { src; dst })
             ~suggestion:"busy periods grow sharply near saturation"
             "utilization %.3f is within 10%% of saturation" u)
      else None)
    (Traffic.Scenario.loaded_links scenario)

(* GMF203 has two suggestions: this one names the ingress link, the
   per-flow gate's ([flow_gate]) does not.  [lint] and [admission] print
   the first, [analyze]'s failure lines the second, so both stay. *)
let check_ingress_utilization scenario =
  let topo = Traffic.Scenario.topo scenario in
  List.filter_map
    (fun ((src, node), u) ->
      if u >= 1. then
        Some
          (Gmf_diag.error ~code:"GMF203" ~subject:(node_subject topo node)
             ~suggestion:
               (Printf.sprintf
                  "frames entering via link %d->%d alone oversubscribe the \
                   rotation; fewer frames or more processors"
                  src node)
             "ingress rotation utilization %.3f on link %d->%d violates \
              eqs (34)-(35)"
             u src node)
      else None)
    (Traffic.Scenario.loaded_ingresses scenario)

let check_impossible_deadline scenario (f : Traffic.Flow.t) k =
  let d = (Gmf.Spec.frame f.Traffic.Flow.spec k).Gmf.Frame_spec.deadline in
  let floor = Gmf_precheck.Static_tests.min_response scenario f ~frame:k in
  if floor > d then
    Some
      (Gmf_diag.error ~code:"GMF202" ~subject:(frame_subject f k)
         ~suggestion:
           "even an uncontended packet misses; relax the deadline or shorten \
            the route"
         "jitter plus uncontended stage responses total %s, above the \
          deadline %s"
         (Timeunit.to_string floor) (Timeunit.to_string d))
  else None

let check_config ~(config : Analysis_config.t) scenario =
  let caps =
    List.filter_map
      (fun (name, v) ->
        if v <= 0 then
          Some
            (Gmf_diag.error ~code:"GMF206" ~subject:Gmf_diag.Config
               ~suggestion:"every cap must be positive"
               "%s = %d leaves the analysis no iterations" name v)
        else None)
      [
        ("max_busy_iters", config.Analysis_config.max_busy_iters);
        ("max_q", config.Analysis_config.max_q);
        ("max_holistic_rounds", config.Analysis_config.max_holistic_rounds);
        ("horizon", config.Analysis_config.horizon);
      ]
  in
  let max_deadline =
    List.fold_left
      (fun acc (f : Traffic.Flow.t) ->
        Array.fold_left max acc (Gmf.Spec.deadlines f.Traffic.Flow.spec))
      0
      (Traffic.Scenario.flows scenario)
  in
  let horizon =
    if
      config.Analysis_config.horizon > 0
      && config.Analysis_config.horizon < max_deadline
    then
      [
        Gmf_diag.warning ~code:"GMF205" ~subject:Gmf_diag.Config
          ~suggestion:
            "shorten the deadline to the horizon or less; the horizon is \
             Config.horizon (100 s by default), which no command-line \
             option sets"
          "horizon %s is below the largest frame deadline %s; verdicts \
           degrade to divergence"
          (Timeunit.to_string config.Analysis_config.horizon)
          (Timeunit.to_string max_deadline);
      ]
    else []
  in
  caps @ horizon

(* ---------------- the rule table ---------------- *)

(* How a check is applied.  A [Per_flow] check is handed the flows of a
   pass at once and returns the findings on each, in order, so it may
   share work between them: GMF005 and GMF007 run one route search per
   destination. *)
type scope =
  | Per_flow of
      (config:Analysis_config.t ->
      Traffic.Scenario.t ->
      Traffic.Flow.t list ->
      Gmf_diag.t list list)
  | Fabric of
      (config:Analysis_config.t -> Traffic.Scenario.t -> Gmf_diag.t list)
  | Names of (Traffic.Flow.t list -> Gmf_diag.t list)
      (* reads only the names and ids of the flows it is given, in id
         order: a whole pass gives it every flow, the gate may give it
         the flows of other interference components too *)

type check = {
  emits : string list; (* the codes the check can emit *)
  scope : scope;
}

(* Every scenario rule, once, in pass order: flow rules, then fabric. *)
let checks =
  let flow emits f =
    { emits; scope = Per_flow (fun ~config s -> List.map (f ~config s)) }
  in
  let fabric emits f = { emits; scope = Fabric f } in
  let topo = Traffic.Scenario.topo in
  [
    flow [ "GMF002" ] (fun ~config:_ _ -> check_redundant_remarks);
    {
      emits = [ "GMF005"; "GMF007" ];
      scope = Per_flow (fun ~config:_ s -> check_routes (topo s));
    };
    flow [ "GMF101" ] (fun ~config:_ _ f ->
        per_frame f check_deadline_vs_period);
    flow [ "GMF102" ] (fun ~config:_ _ f ->
        per_frame f check_jitter_vs_period);
    flow [ "GMF103" ] (fun ~config _ f ->
        per_frame f (check_fragmentation ~config));
    flow [ "GMF202" ] (fun ~config:_ s f ->
        per_frame f (check_impossible_deadline s));
    { emits = [ "GMF001" ]; scope = Names check_duplicate_names };
    fabric [ "GMF003" ] (fun ~config:_ -> check_isolated_nodes);
    fabric [ "GMF004" ] (fun ~config:_ -> check_unused_links);
    fabric [ "GMF006" ] (fun ~config:_ -> check_unused_switches);
    fabric [ "GMF104" ] (fun ~config:_ -> check_priority_ties);
    fabric [ "GMF105" ] (fun ~config:_ -> check_overprovisioned_switches);
    fabric [ "GMF201"; "GMF204" ] (fun ~config:_ -> check_link_utilization);
    fabric [ "GMF203" ] (fun ~config:_ -> check_ingress_utilization);
    fabric [ "GMF206"; "GMF205" ] (fun ~config -> check_config ~config);
  ]

let is_error code =
  match find code with
  | Some r -> r.default_severity = Gmf_diag.Error
  | None -> false

(* The checks that can emit an error, and those errors' codes. *)
let gate_checks =
  List.filter (fun c -> List.exists is_error c.emits) checks

let gate_codes =
  List.sort compare
    (List.concat_map (fun c -> List.filter is_error c.emits) gate_checks)

let scenario_codes =
  List.sort compare (List.concat_map (fun c -> c.emits) checks)

(* ---------------- entry points ---------------- *)

let by_code_then_message (a : Gmf_diag.t) (b : Gmf_diag.t) =
  match compare a.Gmf_diag.code b.Gmf_diag.code with
  | 0 -> compare a.Gmf_diag.message b.Gmf_diag.message
  | c -> c

let sort = List.sort by_code_then_message

(* Rule by rule, each handed every flow: the GMF005/GMF007 check
   searches once per destination among [flows] and never looks at the
   scenario's other flows, so a pass that reuses most findings searches
   only for the rest. *)
let flow_rules ~config scenario flows =
  let by_rule =
    List.filter_map
      (fun c ->
        match c.scope with
        | Per_flow rule -> Some (rule ~config scenario flows)
        | Fabric _ | Names _ -> None)
      checks
  in
  List.fold_right (List.map2 ( @ )) by_rule (List.map (fun _ -> []) flows)

let fabric_rules ~config scenario =
  List.concat_map
    (fun c ->
      match c.scope with
      | Fabric rule -> rule ~config scenario
      | Names rule -> rule (Traffic.Scenario.flows scenario)
      | Per_flow _ -> [])
    checks

(* Each rule's findings come in the order of the full pass, and each
   code has one rule, so the stable sort lines the errors up exactly as
   in [sort (flow_rules @ fabric_rules)]. *)
let gate_rules ~config ?names scenario =
  List.concat_map
    (fun c ->
      match c.scope with
      | Per_flow rule ->
          List.concat (rule ~config scenario (Traffic.Scenario.flows scenario))
      | Fabric rule -> rule ~config scenario
      | Names rule -> (
          match names with
          | None -> rule (Traffic.Scenario.flows scenario)
          | Some flows ->
              rule
                (List.stable_sort
                   (fun (a : Traffic.Flow.t) (b : Traffic.Flow.t) ->
                     compare a.Traffic.Flow.id b.Traffic.Flow.id)
                   flows)))
    gate_checks
  |> Gmf_diag.by_severity Gmf_diag.Error
  |> sort

let flow_gate scenario (f : Traffic.Flow.t) =
  Gmf_precheck.Static_tests.route_overloads scenario f
  |> List.map (fun (overload, u) ->
         match overload with
         | Gmf_precheck.Static_tests.Link_overload { src; dst } ->
             link_overload ~src ~dst u
         | Gmf_precheck.Static_tests.Ingress_overload { src; node } ->
             Gmf_diag.error ~code:"GMF203"
               ~subject:(node_subject (Traffic.Scenario.topo scenario) node)
               ~suggestion:"fewer frames or more processors"
               "ingress rotation utilization %.3f on link %d->%d violates \
                eqs (34)-(35)"
               u src node)
  |> sort
