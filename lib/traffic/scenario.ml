(* [hops] is keyed by (flow id, src, dst); [rates] holds, per (flow id,
   link rate), the params every other hop of a fitting record at that rate
   is relinked from.  An entry of either serves a record only when it
   [Link_params.fits] it. *)
type params_pool = {
  hops : (Flow.id * Network.Node.id * Network.Node.id, Link_params.t) Hashtbl.t;
  rates : (Flow.id * int, Link_params.t) Hashtbl.t;
}

type t = {
  topo : Network.Topology.t;
  flows : Flow.t array; (* sorted by id *)
  (* [make ~switches] as given, inherited by derived scenarios *)
  declared : (Network.Node.id * Click.Switch_model.t) list;
  switches : (Network.Node.id, Click.Switch_model.t) Hashtbl.t;
  (* A pooled scenario's tables are the caller's pool, shared with the
     other scenarios derived with it. *)
  params_cache : params_pool;
  pooled : bool;
  by_id : (Flow.id, Flow.t) Hashtbl.t;
  (* (src, dst) -> flows whose route contains that hop, in id order.  Built
     once in [make]; turns the per-stage interferer collection from a scan
     over every flow into a lookup. *)
  on_link : (Network.Node.id * Network.Node.id, Flow.t list) Hashtbl.t;
  (* hep/lp sets are route- and priority-static, so they are shared across
     every frame, busy-window iteration and holistic round. *)
  hep_cache : (Flow.id * Network.Node.id, Flow.t list) Hashtbl.t;
  lp_cache : (Flow.id * Network.Node.id, Flow.t list) Hashtbl.t;
  (* hop -> left sides of eq (20) and, for a hop into a switch, of eqs
     (34)-(35); built at the first read from this record's params (a
     pooled [with_flows] swaps its params tables in after [make]). *)
  mutable loads :
    (Network.Node.id * Network.Node.id, float * float) Hashtbl.t option;
}

let params_tables n = { hops = Hashtbl.create n; rates = Hashtbl.create n }
let params_pool () = params_tables 256

let make ?(switches = []) ~topo ~flows () =
  let flows = Array.of_list flows in
  Array.sort (fun a b -> compare a.Flow.id b.Flow.id) flows;
  for i = 1 to Array.length flows - 1 do
    if flows.(i).Flow.id = flows.(i - 1).Flow.id then
      invalid_arg
        (Printf.sprintf "Scenario.make: duplicate flow id %d" flows.(i).Flow.id)
  done;
  let table = Hashtbl.create 16 in
  List.iter
    (fun (node_id, model) ->
      let node = Network.Topology.node topo node_id in
      if not (Network.Node.is_switch node) then
        invalid_arg
          (Printf.sprintf "Scenario.make: node %d is not a switch" node_id);
      let degree = Network.Topology.degree topo node_id in
      if model.Click.Switch_model.ninterfaces < degree then
        invalid_arg
          (Printf.sprintf
             "Scenario.make: switch %d has %d links but model has %d ports"
             node_id degree model.Click.Switch_model.ninterfaces);
      Hashtbl.replace table node_id model)
    switches;
  (* Default model for every switch that routes traffic but was not given
     an explicit model. *)
  Array.iter
    (fun flow ->
      List.iter
        (fun node_id ->
          if not (Hashtbl.mem table node_id) then begin
            let degree = Network.Topology.degree topo node_id in
            Hashtbl.replace table node_id
              (Click.Switch_model.make ~ninterfaces:(max 1 degree) ())
          end)
        (Network.Route.intermediate_switches flow.Flow.route))
    flows;
  let nflows = Array.length flows in
  let by_id = Hashtbl.create (max 16 nflows) in
  Array.iter (fun f -> Hashtbl.replace by_id f.Flow.id f) flows;
  let on_link = Hashtbl.create (max 16 (4 * nflows)) in
  (* Flows are visited in id order; prepend then reverse keeps each per-hop
     list in id order too. *)
  Array.iter
    (fun f ->
      List.iter
        (fun hop ->
          let prev =
            match Hashtbl.find_opt on_link hop with Some l -> l | None -> []
          in
          Hashtbl.replace on_link hop (f :: prev))
        (Network.Route.hops f.Flow.route))
    flows;
  Hashtbl.filter_map_inplace (fun _ l -> Some (List.rev l)) on_link;
  {
    topo;
    flows;
    declared = switches;
    switches = table;
    params_cache = params_tables 64;
    pooled = false;
    by_id;
    on_link;
    hep_cache = Hashtbl.create 64;
    lp_cache = Hashtbl.create 64;
    loads = None;
  }

let topo t = t.topo
let flows t = Array.to_list t.flows
let flow_count t = Array.length t.flows

let flow t id =
  match Hashtbl.find_opt t.by_id id with
  | Some f -> f
  | None -> invalid_arg (Printf.sprintf "Scenario.flow: unknown id %d" id)

let switch_model t node_id =
  match Hashtbl.find_opt t.switches node_id with
  | Some m -> m
  | None ->
      invalid_arg
        (Printf.sprintf "Scenario.switch_model: node %d has no switch model"
           node_id)

let circ t node_id = Click.Switch_model.circ (switch_model t node_id)

let switch_nodes t =
  Hashtbl.fold (fun id _ acc -> id :: acc) t.switches []
  |> List.sort compare

let flows_on t ~src ~dst =
  match Hashtbl.find_opt t.on_link (src, dst) with
  | Some l -> l
  | None -> []

let hep t flow_i ~node =
  let key = (flow_i.Flow.id, node) in
  match Hashtbl.find_opt t.hep_cache key with
  | Some l -> l
  | None ->
      let succ = Network.Route.succ flow_i.Flow.route node in
      let l =
        flows_on t ~src:node ~dst:succ
        |> List.filter (fun j ->
               j.Flow.id <> flow_i.Flow.id
               && Flow.equal_priority_or_higher ~than:flow_i ~src:node
                    ~dst:succ j)
      in
      Hashtbl.replace t.hep_cache key l;
      l

let lp t flow_i ~node =
  let key = (flow_i.Flow.id, node) in
  match Hashtbl.find_opt t.lp_cache key with
  | Some l -> l
  | None ->
      let succ = Network.Route.succ flow_i.Flow.route node in
      let l =
        flows_on t ~src:node ~dst:succ
        |> List.filter (fun j ->
               j.Flow.id <> flow_i.Flow.id
               && not
                    (Flow.equal_priority_or_higher ~than:flow_i ~src:node
                       ~dst:succ j))
      in
      Hashtbl.replace t.lp_cache key l;
      l

(* Registered at the first pooled build, so a run that derives no
   pooled scenario lists no such counter. *)
let m_params_built =
  lazy (Gmf_obs.Metrics.counter Gmf_obs.Metrics.default "traffic.params_built")

let find_fitting table key flow =
  match Hashtbl.find_opt table key with
  | Some p when Link_params.fits p flow -> Some p
  | _ -> None

let params t flow ~src ~dst =
  let key = (flow.Flow.id, src, dst) in
  match find_fitting t.params_cache.hops key flow with
  | Some p -> p
  | None ->
      let link = Network.Topology.link_exn t.topo ~src ~dst in
      let rate = (flow.Flow.id, link.Network.Link.rate_bps) in
      let p =
        match find_fitting t.params_cache.rates rate flow with
        | Some q -> Link_params.relink q ~flow ~link
        | None ->
            let p = Link_params.make ~flow ~link in
            Hashtbl.replace t.params_cache.rates rate p;
            p
      in
      if t.pooled && Gmf_obs.Metrics.enabled Gmf_obs.Metrics.default then
        Gmf_obs.Metrics.incr (Lazy.force m_params_built);
      Hashtbl.replace t.params_cache.hops key p;
      p

(* One pass over the flows in id order, so each sum adds the terms of
   the fold over [flows_on] in its order.  The table gains its keys in
   the order the flows and their hops first reach them, from 16 buckets:
   that fixes the order [loaded_links] lists them in, and so the order
   of lint's GMF104/GMF201/GMF204 findings with equal messages.  Routes
   end at endhosts, so a hop into a switch is an ingress. *)
let build_loads t =
  let loads = Hashtbl.create 16 in
  Array.iter
    (fun f ->
      List.iter
        (fun ((src, dst) as hop) ->
          let p = params t f ~src ~dst in
          let link, ingress =
            Option.value ~default:(0., 0.) (Hashtbl.find_opt loads hop)
          in
          let rotations =
            if Hashtbl.mem t.switches dst then
              float_of_int (Link_params.nsum p * circ t dst)
              /. float_of_int (Flow.tsum f)
            else 0.
          in
          Hashtbl.replace loads hop
            (link +. Link_params.utilization p, ingress +. rotations))
        (Network.Route.hops f.Flow.route))
    t.flows;
  loads

let loads t =
  if Option.is_none t.loads then t.loads <- Some (build_loads t);
  Option.get t.loads

let load t hop = Option.value ~default:(0., 0.) (Hashtbl.find_opt (loads t) hop)
let link_utilization t ~src ~dst = fst (load t (src, dst))
let ingress_utilization t ~src ~node = snd (load t (src, node))
let loaded_links t = Hashtbl.fold (fun h (u, _) l -> (h, u) :: l) (loads t) []

let loaded_ingresses t =
  Hashtbl.fold
    (fun ((_, dst) as h) (_, u) l ->
      if Hashtbl.mem t.switches dst then (h, u) :: l else l)
    (loads t) []

(* A derived scenario over the same topology takes the source's params
   of every (flow, hop) they fit, unless its tables already hold fitting
   ones (a pool); a taken entry also serves the record's new hops at its
   rate. *)
let share_params ~from t =
  Array.iter
    (fun (f : Flow.t) ->
      List.iter
        (fun (src, dst) ->
          let key = (f.Flow.id, src, dst) in
          if Option.is_none (find_fitting t.params_cache.hops key f) then
            match find_fitting from.params_cache.hops key f with
            | Some p ->
                Hashtbl.replace t.params_cache.hops key p;
                let rate =
                  (f.Flow.id, p.Link_params.link.Network.Link.rate_bps)
                in
                if Option.is_none (find_fitting t.params_cache.rates rate f)
                then Hashtbl.replace t.params_cache.rates rate p
            | None -> ())
        (Network.Route.hops f.Flow.route))
    t.flows;
  t

let with_flows ?pool t flows =
  let derived = make ~switches:t.declared ~topo:t.topo ~flows () in
  share_params ~from:t
    (match pool with
    | None -> derived
    | Some pool -> { derived with params_cache = pool; pooled = true })

let map_switches t ~f =
  let switches =
    List.map (fun n -> (n, f n (switch_model t n))) (switch_nodes t)
  in
  share_params ~from:t (make ~switches ~topo:t.topo ~flows:(flows t) ())

let map_flows t ~f = with_flows t (List.map f (flows t))

let pp fmt t =
  Format.fprintf fmt "@[<v>scenario: %d flows@," (Array.length t.flows);
  Array.iter (fun f -> Format.fprintf fmt "  %a@," Flow.pp f) t.flows;
  Network.Topology.pp fmt t.topo;
  Format.fprintf fmt "@]"
