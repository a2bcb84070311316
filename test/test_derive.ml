(* Scenario derivation: [Scenario.with_flows] and [Scenario.map_switches]
   must equal [Scenario.make] of the same parts on everything the
   analysis reads, and share a link table only with the very flow record
   it was built for. *)

open Gmf_util

let ids = List.map (fun (f : Traffic.Flow.t) -> f.Traffic.Flow.id)

(* A topogen fabric — mesh, fat-tree or ring of rings — with 20 to 120
   flows, plus declared models for a random subset of its switches: some
   of them relay no route, so a derivation must carry them as declared,
   not re-derive them. *)
let gen_source rng =
  let open Gmf_topogen.Gen_spec in
  let family =
    match Rng.int rng 3 with
    | 0 -> Mesh { rows = 3; cols = 3; planes = 1 }
    | 1 -> Fat_tree { k = 4 }
    | _ -> Ring_of_rings { rings = 3; ring_size = 3 }
  in
  let spec =
    {
      default with
      family;
      hosts_per_switch = 2;
      flows = 20 + Rng.int rng 101;
      seed = Rng.int rng 1_000_000;
    }
  in
  let generated = (Gmf_topogen.Topogen.generate spec).Gmf_topogen.Topogen.scenario in
  let topo = Traffic.Scenario.topo generated in
  let declared =
    Network.Topology.nodes topo
    |> List.filter_map (fun (n : Network.Node.t) ->
           if Network.Node.is_switch n && Rng.int rng 2 = 0 then
             let degree = Network.Topology.degree topo n.Network.Node.id in
             Some
               ( n.Network.Node.id,
                 Click.Switch_model.make
                   ~croute:(Timeunit.us (5 + Rng.int rng 10))
                   ~ninterfaces:(degree + Rng.int rng 3)
                   () )
           else None)
  in
  (declared, topo, Traffic.Scenario.flows generated)

(* Pick each element with probability 1/2. *)
let subset rng l = List.filter (fun _ -> Rng.int rng 2 = 0) l

(* Rebuild about half the flows with the same id: scaled payloads, a new
   priority, a second route (which may cross switches the source never
   modelled), or identical contents in a fresh record. *)
let edit rng topo flows =
  List.map
    (fun (f : Traffic.Flow.t) ->
      match Rng.int rng 8 with
      | 0 -> Traffic.Flow.scale_payloads f 1.5
      | 1 ->
          Traffic.Flow.make ~id:f.Traffic.Flow.id ~name:f.Traffic.Flow.name
            ~spec:f.Traffic.Flow.spec ~encap:f.Traffic.Flow.encap
            ~route:f.Traffic.Flow.route
            ~priority:((f.Traffic.Flow.priority + 1) mod 8)
      | 2 -> (
          let route = f.Traffic.Flow.route in
          match
            Network.Pathfind.k_shortest ~k:2 topo
              ~src:(Network.Route.source route)
              ~dst:(Network.Route.destination route)
          with
          | [ _; alt ] -> Analysis.Rerouting.with_route f alt
          | _ -> f)
      | 3 ->
          Traffic.Flow.with_remarks
            (Traffic.Flow.make ~id:f.Traffic.Flow.id
               ~name:f.Traffic.Flow.name ~spec:f.Traffic.Flow.spec
               ~encap:f.Traffic.Flow.encap ~route:f.Traffic.Flow.route
               ~priority:f.Traffic.Flow.priority)
            f.Traffic.Flow.remarks
      | _ -> f)
    flows

let hops (f : Traffic.Flow.t) = Network.Route.hops f.Traffic.Flow.route

(* Build every link table of the source, so the derivation has something
   to share. *)
let force_params scenario =
  List.iter
    (fun f ->
      List.iter
        (fun (src, dst) -> ignore (Traffic.Scenario.params scenario f ~src ~dst))
        (hops f))
    (Traffic.Scenario.flows scenario)

let fail fmt = Printf.ksprintf QCheck.Test.fail_report fmt

(* [derived] against [expected] (built by [make]) on switch models,
   flows_on, hep, lp, every link table and the holistic CSVs. *)
let check_equal ~what derived expected =
  let sw s =
    List.map
      (fun n -> (n, Traffic.Scenario.switch_model s n))
      (Traffic.Scenario.switch_nodes s)
  in
  if sw derived <> sw expected then fail "%s: switch models differ" what;
  if ids (Traffic.Scenario.flows derived) <> ids (Traffic.Scenario.flows expected)
  then fail "%s: flows differ" what;
  List.iter
    (fun (l : Network.Link.t) ->
      let src = l.Network.Link.src and dst = l.Network.Link.dst in
      if
        ids (Traffic.Scenario.flows_on derived ~src ~dst)
        <> ids (Traffic.Scenario.flows_on expected ~src ~dst)
      then fail "%s: flows_on %d->%d differ" what src dst)
    (Network.Topology.links (Traffic.Scenario.topo expected));
  List.iter2
    (fun d e ->
      List.iter
        (fun (node, _) ->
          if
            ids (Traffic.Scenario.hep derived d ~node)
            <> ids (Traffic.Scenario.hep expected e ~node)
          then fail "%s: hep of flow %d at %d differs" what d.Traffic.Flow.id node;
          if
            ids (Traffic.Scenario.lp derived d ~node)
            <> ids (Traffic.Scenario.lp expected e ~node)
          then fail "%s: lp of flow %d at %d differs" what d.Traffic.Flow.id node)
        (hops d);
      List.iter
        (fun (src, dst) ->
          let pd = Traffic.Scenario.params derived d ~src ~dst
          and pe = Traffic.Scenario.params expected e ~src ~dst in
          if
            Traffic.Link_params.csum pd <> Traffic.Link_params.csum pe
            || Traffic.Link_params.nsum pd <> Traffic.Link_params.nsum pe
            || pd.Traffic.Link_params.c <> pe.Traffic.Link_params.c
          then fail "%s: params of flow %d on %d->%d differ" what
                 d.Traffic.Flow.id src dst)
        (hops d))
    (Traffic.Scenario.flows derived)
    (Traffic.Scenario.flows expected);
  let rd = Analysis.Holistic.analyze derived
  and re = Analysis.Holistic.analyze expected in
  if Analysis.Report_io.frame_csv rd <> Analysis.Report_io.frame_csv re then
    fail "%s: frame CSVs differ" what;
  if Analysis.Report_io.stage_csv rd <> Analysis.Report_io.stage_csv re then
    fail "%s: stage CSVs differ" what

(* Link tables depend only on the spec, the encapsulation and the link:
   a record of the source's spec (physically) and encapsulation — the
   source's own, or one rerouted, re-prioritized or remarked — shares
   the source's tables; a record with a new spec gets its own. *)
let check_sharing ~what source derived =
  let held = Hashtbl.create 64 in
  List.iter
    (fun (f : Traffic.Flow.t) -> Hashtbl.replace held f.Traffic.Flow.id f)
    (Traffic.Scenario.flows source);
  List.iter
    (fun (f : Traffic.Flow.t) ->
      let old = Hashtbl.find_opt held f.Traffic.Flow.id in
      List.iter
        (fun (src, dst) ->
          let p = Traffic.Scenario.params derived f ~src ~dst in
          match old with
          | Some o when not (List.mem (src, dst) (hops o)) -> ()
          | Some o
            when o.Traffic.Flow.spec == f.Traffic.Flow.spec
                 && o.Traffic.Flow.encap = f.Traffic.Flow.encap ->
              if p != Traffic.Scenario.params source o ~src ~dst then
                fail "%s: flow %d of the same spec rebuilt its params" what
                  f.Traffic.Flow.id
          | Some o ->
              if p == Traffic.Scenario.params source o ~src ~dst then
                fail "%s: flow %d with a new spec kept stale params" what
                  f.Traffic.Flow.id
          | None -> ())
        (hops f))
    (Traffic.Scenario.flows derived)

let prop_derivation_equals_make =
  QCheck.Test.make ~name:"with_flows / map_switches == make" ~count:25
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let declared, topo, all = gen_source rng in
      let make flows = Traffic.Scenario.make ~switches:declared ~topo ~flows () in
      let derive ~what source flows =
        force_params source;
        let derived = Traffic.Scenario.with_flows source flows in
        check_sharing ~what source derived;
        check_equal ~what derived (make flows)
      in
      let source = make all in
      let part = subset rng all in
      derive ~what:"subset" source part;
      derive ~what:"superset" (make part) all;
      derive ~what:"edit" source (edit rng topo all);
      let scale = 1 + Rng.int rng 3 in
      let remodel _ (m : Click.Switch_model.t) =
        Click.Switch_model.make
          ~croute:(scale * m.Click.Switch_model.croute)
          ~csend:m.Click.Switch_model.csend
          ~processors:m.Click.Switch_model.processors
          ~ninterfaces:m.Click.Switch_model.ninterfaces ()
      in
      force_params source;
      let mapped = Traffic.Scenario.map_switches source ~f:remodel in
      check_sharing ~what:"map_switches" source mapped;
      check_equal ~what:"map_switches" mapped
        (Traffic.Scenario.make
           ~switches:
             (List.map
                (fun n -> (n, remodel n (Traffic.Scenario.switch_model source n)))
                (Traffic.Scenario.switch_nodes source))
           ~topo ~flows:all ());
      true)

let tests = [ QCheck_alcotest.to_alcotest prop_derivation_equals_make ]
