type result = {
  spec : Gen_spec.t;
  scenario : Traffic.Scenario.t;
  built : Builders.built;
  requested : int;
  placed : int;
  rejected : int;
  gen_seconds : float;
}

let m_nodes = Gmf_obs.Metrics.counter Gmf_obs.Metrics.default "topogen.nodes"
let m_links = Gmf_obs.Metrics.counter Gmf_obs.Metrics.default "topogen.links"
let m_flows = Gmf_obs.Metrics.counter Gmf_obs.Metrics.default "topogen.flows"

let m_rejected =
  Gmf_obs.Metrics.counter Gmf_obs.Metrics.default "topogen.rejected"

let g_gen_seconds =
  Gmf_obs.Metrics.gauge Gmf_obs.Metrics.default "topogen.gen_seconds"

(* Kind-specific traffic contracts, from the Gmf_workload catalog.  The
   sensor class varies period and payload per flow (drawn from the shared
   rng, so still deterministic). *)
let sensor_periods = [| 50; 100; 200 |] (* ms *)
let sensor_payloads = [| 100; 200; 400 |] (* bytes *)

let spec_of_kind rng = function
  | Gen_spec.Mpeg -> (Workload.Mpeg.spec (), Ethernet.Encap.Udp)
  | Gen_spec.Voip -> (Workload.Voip.g711_spec (), Ethernet.Encap.Rtp_udp)
  | Gen_spec.Sensor ->
      let period =
        Gmf_util.Timeunit.ms (Gmf_util.Rng.pick rng sensor_periods)
      in
      let payload_bytes = Gmf_util.Rng.pick rng sensor_payloads in
      ( Workload.Voip.spec ~period ~payload_bytes
          ~deadline:(Gmf_util.Timeunit.ms 250) (),
        Ethernet.Encap.Udp )

let priority_of_kind (spec : Gen_spec.t) = function
  | Gen_spec.Sensor -> spec.Gen_spec.prio_lo
  | Gen_spec.Mpeg -> (spec.Gen_spec.prio_lo + spec.Gen_spec.prio_hi) / 2
  | Gen_spec.Voip -> spec.Gen_spec.prio_hi

let pick_kind rng mix total_weight =
  let r = Gmf_util.Rng.int rng total_weight in
  let rec go acc = function
    | [] -> assert false
    | [ (k, _) ] -> k
    | (k, w) :: rest -> if r < acc + w then k else go (acc + w) rest
  in
  go 0 mix

let generate (spec : Gen_spec.t) =
  (match Gen_spec.validate spec with
  | Ok () -> ()
  | Error e -> invalid_arg ("Topogen.generate: " ^ e));
  let t0 = Unix.gettimeofday () in
  let built =
    Builders.build ~rate_bps:spec.Gen_spec.rate_bps ~prop:spec.Gen_spec.prop
      ~hosts_per_switch:spec.Gen_spec.hosts_per_switch spec.Gen_spec.family
  in
  let topo = built.Builders.topo in
  let hosts = built.Builders.hosts in
  let nhosts = Array.length hosts in
  if nhosts < 2 && spec.Gen_spec.flows > 0 then
    invalid_arg "Topogen.generate: need at least two hosts to place flows";
  let rng = Gmf_util.Rng.create ~seed:spec.Gen_spec.seed in
  let total_weight =
    List.fold_left (fun acc (_, w) -> acc + w) 0 spec.Gen_spec.mix
  in
  (* Locality: host indices per region, and a lazily built "near" pool per
     region (hosts of every region local to it). *)
  let region_hosts = Hashtbl.create 64 in
  Array.iteri
    (fun i r ->
      let prev =
        match Hashtbl.find_opt region_hosts r with Some l -> l | None -> []
      in
      Hashtbl.replace region_hosts r (i :: prev))
    built.Builders.host_region;
  let regions =
    Hashtbl.fold (fun r _ acc -> r :: acc) region_hosts []
    |> List.sort compare
  in
  let near_pool = Hashtbl.create 64 in
  let near_hosts_of r =
    match Hashtbl.find_opt near_pool r with
    | Some a -> a
    | None ->
        let pool =
          List.concat_map
            (fun r' ->
              if Builders.near_regions spec.Gen_spec.family r r' then
                List.rev (Hashtbl.find region_hosts r')
              else [])
            regions
          |> Array.of_list
        in
        Hashtbl.replace near_pool r pool;
        pool
  in
  (* Shortest-path routes, memoized per endpoint pair: locality makes
     pair reuse common, so generation does not re-run BFS per flow. *)
  let route_memo = Hashtbl.create 256 in
  let route_of src dst =
    match Hashtbl.find_opt route_memo (src, dst) with
    | Some r -> r
    | None ->
        let r =
          match Network.Topology.shortest_path topo ~src ~dst with
          | None -> None
          | Some nodes -> Some (Network.Route.make topo nodes)
        in
        Hashtbl.replace route_memo (src, dst) r;
        r
  in
  (* The default switch model Scenario.make will assign per node — needed
     to price ingress rotations before the scenario exists. *)
  let model_memo = Hashtbl.create 64 in
  let model_of n =
    match Hashtbl.find_opt model_memo n with
    | Some m -> m
    | None ->
        let degree = Network.Topology.degree topo n in
        let m = Click.Switch_model.make ~ninterfaces:(max 1 degree) () in
        Hashtbl.replace model_memo n m;
        m
  in
  (* Running utilizations, mirroring Scenario.link_utilization and
     ingress_utilization term by term so the emitted scenario can never
     trip GMF201/GMF203 (and with max_util <= 0.9, not even the GMF204
     saturation hint). *)
  let link_util = Hashtbl.create 256 in
  let ingress_util = Hashtbl.create 256 in
  let current tbl key =
    match Hashtbl.find_opt tbl key with Some u -> u | None -> 0.
  in
  let rejected = ref 0 in
  let placed = ref [] in
  let nplaced = ref 0 in
  let max_attempts = 20 in
  (* One candidate draw: endpoints, route, contract; accepted only if the
     uncontended floor meets every deadline (GMF202) and no link/ingress
     utilization would cross the ceiling. *)
  let attempt kind =
    let si = Gmf_util.Rng.int rng nhosts in
    let use_near = Gmf_util.Rng.float rng 1.0 < spec.Gen_spec.locality in
    let pool =
      if use_near then near_hosts_of built.Builders.host_region.(si)
      else [||]
    in
    let di =
      if use_near && Array.length pool > 0 then
        pool.(Gmf_util.Rng.int rng (Array.length pool))
      else Gmf_util.Rng.int rng nhosts
    in
    if di = si then None
    else
      let src = hosts.(si) and dst = hosts.(di) in
      match route_of src dst with
      | None -> None
      | Some route -> (
          let gspec, encap = spec_of_kind rng kind in
          let priority = priority_of_kind spec kind in
          let name =
            Printf.sprintf "%s%d" (Gen_spec.kind_to_string kind) !nplaced
          in
          match
            Traffic.Flow.make_checked ~id:!nplaced ~name ~spec:gspec ~encap
              ~route ~priority
          with
          | Error _ -> None
          | Ok flow ->
              let hops = Network.Route.hops route in
              let params =
                List.map
                  (fun (s, d) ->
                    ( (s, d),
                      Traffic.Link_params.make ~flow
                        ~link:(Network.Topology.link_exn topo ~src:s ~dst:d)
                    ))
                  hops
              in
              let switches = Network.Route.intermediate_switches route in
              let params_of s d = List.assoc (s, d) params in
              let tsum = float_of_int (Traffic.Flow.tsum flow) in
              let n = Traffic.Flow.n flow in
              let floor_ok =
                let ok = ref true in
                for k = 0 to n - 1 do
                  let fr = Gmf.Spec.frame gspec k in
                  let links =
                    List.fold_left
                      (fun acc (_, (p : Traffic.Link_params.t)) ->
                        acc
                        + p.Traffic.Link_params.c.(k)
                        + p.Traffic.Link_params.link.Network.Link.prop)
                      0 params
                  in
                  let ingresses =
                    List.fold_left
                      (fun acc node ->
                        let pred = Network.Route.prec route node in
                        let p = params_of pred node in
                        acc
                        + p.Traffic.Link_params.eth_frames.(k)
                          * (model_of node).Click.Switch_model.croute)
                      0 switches
                  in
                  if
                    fr.Gmf.Frame_spec.jitter + links + ingresses
                    > fr.Gmf.Frame_spec.deadline
                  then ok := false
                done;
                !ok
              in
              let link_fits =
                List.for_all
                  (fun (key, p) ->
                    current link_util key +. Traffic.Link_params.utilization p
                    <= spec.Gen_spec.max_util)
                  params
              in
              let ingress_contribs =
                List.map
                  (fun node ->
                    let pred = Network.Route.prec route node in
                    let p = params_of pred node in
                    let circ =
                      Click.Switch_model.circ (model_of node)
                    in
                    ( (pred, node),
                      float_of_int (Traffic.Link_params.nsum p * circ)
                      /. tsum ))
                  switches
              in
              let ingress_fits =
                List.for_all
                  (fun (key, contrib) ->
                    current ingress_util key +. contrib
                    <= spec.Gen_spec.max_util)
                  ingress_contribs
              in
              if not (floor_ok && link_fits && ingress_fits) then None
              else begin
                List.iter
                  (fun (key, p) ->
                    Hashtbl.replace link_util key
                      (current link_util key
                      +. Traffic.Link_params.utilization p))
                  params;
                List.iter
                  (fun (key, contrib) ->
                    Hashtbl.replace ingress_util key
                      (current ingress_util key +. contrib))
                  ingress_contribs;
                Some flow
              end)
  in
  for _slot = 1 to spec.Gen_spec.flows do
    let kind = pick_kind rng spec.Gen_spec.mix total_weight in
    let rec go attempts =
      if attempts >= max_attempts then ()
      else
        match attempt kind with
        | Some flow ->
            placed := flow :: !placed;
            incr nplaced
        | None ->
            incr rejected;
            go (attempts + 1)
    in
    go 0
  done;
  let scenario = Traffic.Scenario.make ~topo ~flows:(List.rev !placed) () in
  let gen_seconds = Unix.gettimeofday () -. t0 in
  if Gmf_obs.Metrics.enabled Gmf_obs.Metrics.default then begin
    Gmf_obs.Metrics.incr ~by:(Network.Topology.node_count topo) m_nodes;
    Gmf_obs.Metrics.incr ~by:built.Builders.link_count m_links;
    Gmf_obs.Metrics.incr ~by:!nplaced m_flows;
    Gmf_obs.Metrics.incr ~by:!rejected m_rejected;
    Gmf_obs.Metrics.set_gauge g_gen_seconds gen_seconds
  end;
  {
    spec;
    scenario;
    built;
    requested = spec.Gen_spec.flows;
    placed = !nplaced;
    rejected = !rejected;
    gen_seconds;
  }

let to_string = Scenario_io.Print.to_string
let to_file = Scenario_io.Print.to_file

let summary r =
  let topo = Traffic.Scenario.topo r.scenario in
  [
    ("family", Gen_spec.family_to_string r.spec.Gen_spec.family);
    ("nodes", string_of_int (Network.Topology.node_count topo));
    ("switches", string_of_int r.built.Builders.switch_count);
    ("links", string_of_int r.built.Builders.link_count);
    ("hosts", string_of_int (Array.length r.built.Builders.hosts));
    ("flows", Printf.sprintf "%d/%d" r.placed r.requested);
    ("rejected-draws", string_of_int r.rejected);
    ("gen-seconds", Printf.sprintf "%.3f" r.gen_seconds);
  ]
