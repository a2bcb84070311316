module By_id = Hashtbl.Make (Int)

type node = {
  flow : Traffic.Flow.t;
  stage : Stage.t;
  time : Gmf.Demand.t;
  count : Gmf.Demand.t;
  (* Per frame: the generalized jitter GJ at this stage. *)
  jitter : Gmf_util.Timeunit.ns array;
  (* The largest entry of [jitter]. *)
  mutable extra : Gmf_util.Timeunit.ns;
  mutable stamp : int;
  (* Empty until first resolved: a stage charges at least its own flow. *)
  mutable reads : node array;
  (* The stage's equations, described at the first request: they depend
     on the scenario and the configuration only. *)
  mutable describe : (frame:int -> Gmf_precheck.Stage_eq.t) option;
  (* Per frame: the last evaluation and the clock when it ran, -1 before
     the first one. *)
  last : (Result_types.stage_response, Result_types.failure) result array;
  ran_at : int array;
}

type t = {
  scenario : Traffic.Scenario.t;
  config : Config.t;
  (* MX clamps each window to the interval under the paper's eq (10) only. *)
  capped : bool;
  (* Per flow id: the flow's nodes in route order, built in [create];
     [order] holds the same nodes flow by flow. *)
  routes : node array By_id.t;
  order : node array;
  (* Advanced on every change of some node's extra. *)
  mutable clock : int;
  (* Advanced on every jitter write that changed a value. *)
  mutable writes : int;
}

(* Unset frames of [last]: never returned, [ran_at] is -1 there. *)
let unevaluated =
  Error
    {
      Result_types.flow_id = -1;
      frame = -1;
      failed_stage = None;
      reason = "not evaluated";
    }

let max_entry a = Array.fold_left max 0 a

(* The bottom of the holistic iteration (Section 3.5): the flow's source
   jitters at its first link, 0 at every later stage. *)
let install_source_jitters node =
  (match node.stage with
  | Stage.First_link _ ->
      Array.blit (Gmf.Spec.jitters node.flow.Traffic.Flow.spec) 0 node.jitter
        0 (Array.length node.jitter)
  | Stage.Ingress _ | Stage.Egress _ ->
      Array.fill node.jitter 0 (Array.length node.jitter) 0);
  node.extra <- max_entry node.jitter;
  node.stamp <- 0;
  Array.fill node.ran_at 0 (Array.length node.ran_at) (-1);
  Array.fill node.last 0 (Array.length node.last) unevaluated

let create ?(config = Config.default) scenario =
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
  let routes = By_id.create 256 in
  let order =
    Traffic.Scenario.flows scenario
    |> List.map (fun flow ->
           let n = Traffic.Flow.n flow in
           let node stage =
             let src, dst = Gmf_precheck.Stage_eq.link_of flow stage in
             let p = Traffic.Scenario.params scenario flow ~src ~dst in
             let node =
               {
                 flow;
                 stage;
                 time = p.Traffic.Link_params.time_demand;
                 count = p.Traffic.Link_params.count_demand;
                 jitter = Array.make n 0;
                 extra = 0;
                 stamp = 0;
                 reads = [||];
                 describe = None;
                 last = Array.make n unevaluated;
                 ran_at = Array.make n (-1);
               }
             in
             install_source_jitters node;
             node
           in
           let nodes =
             Array.of_list
               (List.map node (Stage.stages_of_route flow.Traffic.Flow.route))
           in
           By_id.replace routes flow.Traffic.Flow.id nodes;
           nodes)
    |> Array.concat
  in
  {
    scenario;
    config;
    capped;
    routes;
    order;
    clock = 0;
    writes = 0;
  }

let scenario t = t.scenario
let config t = t.config
let reset_jitters t = Array.iter install_source_jitters t.order

let params t flow ~src ~dst = Traffic.Scenario.params t.scenario flow ~src ~dst

let nodes t flow =
  match By_id.find_opt t.routes flow.Traffic.Flow.id with
  | Some nodes -> nodes
  | None ->
      invalid_arg
        (Printf.sprintf "Ctx.nodes: flow %d is not in this context"
           flow.Traffic.Flow.id)

let node t flow ~stage =
  let nodes =
    Option.value ~default:[||] (By_id.find_opt t.routes flow.Traffic.Flow.id)
  in
  match Array.find_opt (fun node -> Stage.equal node.stage stage) nodes with
  | Some node -> node
  | None ->
      invalid_arg
        (Format.asprintf "Ctx.node: %a is not a stage of flow %d here" Stage.pp
           stage flow.Traffic.Flow.id)

let node_flow node = node.flow

let describe t node ~frame =
  match node.describe with
  | Some d -> d ~frame
  | None ->
      let d =
        Gmf_precheck.Stage_eq.make ~config:t.config t.scenario node.flow
          node.stage
      in
      node.describe <- Some d;
      d ~frame

let extra t flow ~stage = (node t flow ~stage).extra

let time_bound t demand dt = Gmf.Demand.bound demand ~capped:t.capped dt
let count_bound demand dt = Gmf.Demand.bound demand ~capped:false dt

let mx t flow ~src ~dst ~dt =
  time_bound t (params t flow ~src ~dst).Traffic.Link_params.time_demand dt

let nx t flow ~src ~dst ~dt =
  count_bound (params t flow ~src ~dst).Traffic.Link_params.count_demand dt

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

let write t node ~frame value =
  if value < 0 then invalid_arg "Ctx.set_jitter: negative jitter";
  let old = node.jitter.(frame) in
  if value <> old then begin
    t.writes <- t.writes + 1;
    node.jitter.(frame) <- value;
    let extra =
      if value > node.extra then value
      else if old = node.extra then max_entry node.jitter
      else node.extra
    in
    if extra <> node.extra then begin
      t.clock <- t.clock + 1;
      node.extra <- extra;
      node.stamp <- t.clock
    end
  end

let set_jitter t flow ~frame ~stage value =
  write t (node t flow ~stage) ~frame value

let get_jitter t flow ~frame ~stage = (node t flow ~stage).jitter.(frame)
let writes t = t.writes

type copy = Gmf_util.Timeunit.ns array array

let copy_jitters t = Array.map (fun node -> Array.copy node.jitter) t.order

let flow_deltas t ~since =
  let deltas = Hashtbl.create 64 in
  Array.iteri
    (fun k node ->
      let before = since.(k) and after = node.jitter in
      (* A flow is listed once it holds a non-zero jitter on either side. *)
      if Array.exists (( <> ) 0) before || Array.exists (( <> ) 0) after
      then begin
        let d = ref 0 in
        Array.iteri (fun i v -> d := max !d (abs (v - before.(i)))) after;
        let id = node.flow.Traffic.Flow.id in
        match Hashtbl.find_opt deltas id with
        | Some cur when cur >= !d -> ()
        | _ -> Hashtbl.replace deltas id !d
      end)
    t.order;
  Hashtbl.fold (fun id d acc -> (id, d) :: acc) deltas [] |> List.sort compare
