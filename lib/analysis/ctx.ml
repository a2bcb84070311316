module Nodes = Hashtbl.Make (struct
  type t = Traffic.Flow.id * Stage.t

  let equal ((f1 : Traffic.Flow.id), s1) (f2, s2) =
    f1 = f2 && Stage.equal s1 s2

  let hash = Hashtbl.hash
end)

type node = {
  flow : Traffic.Flow.t;
  stage : Stage.t;
  time : Gmf.Demand.t;
  count : Gmf.Demand.t;
  mutable extra : Gmf_util.Timeunit.ns;
  mutable stamp : int;
  (* Empty until first resolved: a stage charges at least its own flow. *)
  mutable reads : node array;
  (* Per frame: the last evaluation and the clock when it ran, -1 before
     the first one. *)
  last : (Result_types.stage_response, Result_types.failure) result array;
  ran_at : int array;
}

type t = {
  scenario : Traffic.Scenario.t;
  config : Config.t;
  mutable jitters : Jitter_state.t;
  (* MX clamps each window to the interval under the paper's eq (10) only. *)
  capped : bool;
  (* Lint gates are scenario-static: one evaluation per flow and context. *)
  gates : (Traffic.Flow.id, Traffic.Flow.t * Gmf_diag.t list) Hashtbl.t;
  (* Stage-graph nodes of the current jitter state, created on first use. *)
  mutable nodes : node Nodes.t;
  (* Advanced on every change of some node's extra. *)
  mutable clock : int;
}

let install_source_jitters scenario state =
  List.iter
    (fun flow ->
      let route = flow.Traffic.Flow.route in
      let source = Network.Route.source route in
      let stage =
        Stage.First_link (source, Network.Route.succ route source)
      in
      let jitters = Gmf.Spec.jitters flow.Traffic.Flow.spec in
      Array.iteri
        (fun frame value ->
          Jitter_state.set state ~flow:flow.Traffic.Flow.id ~stage ~frame
            value)
        jitters)
    (Traffic.Scenario.flows scenario)

let create ?(config = Config.default) scenario =
  let jitters = Jitter_state.create () in
  install_source_jitters scenario jitters;
  (* The paper's MXS (eq 10) clamps each window's demand to the interval
     length, which makes MX(0) = 0: with all jitters zero, the queuing-time
     recurrences then accept w = 0 as a fixed point and report no
     interference at all.  The Repaired variant therefore uses the uncapped
     window maximum — the classical request-bound reading, where a competing
     frame arriving at the critical instant contributes its full
     transmission time (repair R7 in DESIGN.md). *)
  let capped =
    match config.Config.variant with
    | Config.Faithful -> true
    | Config.Repaired -> false
  in
  {
    scenario;
    config;
    jitters;
    capped;
    gates = Hashtbl.create 64;
    nodes = Nodes.create 64;
    clock = 0;
  }

let scenario t = t.scenario
let config t = t.config
let jitters t = t.jitters

(* Nodes cache extras and evaluations of the state they were built on. *)
let replace_jitters t state =
  install_source_jitters t.scenario state;
  t.jitters <- state;
  t.nodes <- Nodes.create 64

let reset_jitters t = replace_jitters t (Jitter_state.create ())
let snapshot t = Jitter_state.copy t.jitters
let restore t state = replace_jitters t (Jitter_state.copy state)

let params t flow ~src ~dst = Traffic.Scenario.params t.scenario flow ~src ~dst

let extra t flow ~stage =
  Jitter_state.extra t.jitters ~flow:flow.Traffic.Flow.id
    ~n_frames:(Traffic.Flow.n flow) ~stage

let time_bound t demand dt = Gmf.Demand.bound demand ~capped:t.capped dt
let count_bound demand dt = Gmf.Demand.bound demand ~capped:false dt

let mx t flow ~src ~dst ~dt =
  time_bound t (params t flow ~src ~dst).Traffic.Link_params.time_demand dt

let nx t flow ~src ~dst ~dt =
  count_bound (params t flow ~src ~dst).Traffic.Link_params.count_demand dt

(* Fills the [last] slots of frames not evaluated yet; never returned. *)
let unevaluated =
  Error
    {
      Result_types.flow_id = -1;
      frame = -1;
      failed_stage = None;
      reason = "not evaluated";
    }

let node t flow ~stage =
  let key = (flow.Traffic.Flow.id, stage) in
  match Nodes.find_opt t.nodes key with
  | Some node -> node
  | None ->
      let src, dst = Gmf_precheck.Stage_eq.link_of flow stage in
      let p = params t flow ~src ~dst in
      let node =
        {
          flow;
          stage;
          time = p.Traffic.Link_params.time_demand;
          count = p.Traffic.Link_params.count_demand;
          extra = extra t flow ~stage;
          stamp = 0;
          reads = [||];
          last = Array.make (Traffic.Flow.n flow) unevaluated;
          ran_at = Array.make (Traffic.Flow.n flow) (-1);
        }
      in
      Nodes.add t.nodes key node;
      node

let reads t self =
  if Array.length self.reads = 0 then
    self.reads <-
      Gmf_precheck.Stage_eq.busy_set t.scenario self.flow self.stage
      |> List.map (fun j -> node t j ~stage:self.stage)
      |> Array.of_list;
  self.reads

let charge t self ~others f dt =
  let reads = reads t self in
  let acc = ref 0 in
  for k = 0 to Array.length reads - 1 do
    let j = reads.(k) in
    if not (others && j == self) then
      acc := Gmf_util.Timeunit.sat_add !acc (f j dt)
  done;
  !acc

let mx_of t j ~dt = time_bound t j.time (Gmf_util.Timeunit.sat_add dt j.extra)
let nx_of j ~dt = count_bound j.count (Gmf_util.Timeunit.sat_add dt j.extra)

let recall t self ~frame =
  let at = self.ran_at.(frame) in
  if at >= 0 && Array.for_all (fun j -> j.stamp <= at) (reads t self) then
    Some self.last.(frame)
  else None

let remember t self ~frame result =
  self.last.(frame) <- result;
  self.ran_at.(frame) <- t.clock

let flow_gate t flow =
  match Hashtbl.find_opt t.gates flow.Traffic.Flow.id with
  (* Physical equality: a caller may pass a same-id flow of another
     scenario, whose gate must be computed afresh. *)
  | Some (f, gate) when f == flow -> gate
  | _ ->
      let gate = Gmf_lint.Rules.flow_gate t.scenario flow in
      Hashtbl.replace t.gates flow.Traffic.Flow.id (flow, gate);
      gate

let set_jitter t flow ~frame ~stage value =
  Jitter_state.set t.jitters ~flow:flow.Traffic.Flow.id ~stage ~frame value;
  match Nodes.find_opt t.nodes (flow.Traffic.Flow.id, stage) with
  | None -> ()
  | Some node ->
      let extra = extra t flow ~stage in
      if extra <> node.extra then begin
        t.clock <- t.clock + 1;
        node.extra <- extra;
        node.stamp <- t.clock
      end

let get_jitter t flow ~frame ~stage =
  Jitter_state.get t.jitters ~flow:flow.Traffic.Flow.id ~stage ~frame
