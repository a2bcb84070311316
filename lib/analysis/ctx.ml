type t = {
  scenario : Traffic.Scenario.t;
  config : Config.t;
  mutable jitters : Jitter_state.t;
  (* MX clamps each window to the interval under the paper's eq (10) only. *)
  capped : bool;
  (* Lint gates are scenario-static: one evaluation per flow and context. *)
  gates : (Traffic.Flow.id, Traffic.Flow.t * Gmf_diag.t list) Hashtbl.t;
}

type interferer = {
  time : Gmf.Demand.t;
  count : Gmf.Demand.t;
  extra : Gmf_util.Timeunit.ns;
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
  { scenario; config; jitters; capped; gates = Hashtbl.create 64 }

let scenario t = t.scenario
let config t = t.config
let jitters t = t.jitters

let reset_jitters t =
  let fresh = Jitter_state.create () in
  install_source_jitters t.scenario fresh;
  t.jitters <- fresh

let snapshot t = Jitter_state.copy t.jitters

let restore t state =
  let fresh = Jitter_state.copy state in
  install_source_jitters t.scenario fresh;
  t.jitters <- fresh

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

let interferers t flows ~src ~dst ~stage =
  Array.of_list
    (List.map
       (fun j ->
         let p = params t j ~src ~dst in
         {
           time = p.Traffic.Link_params.time_demand;
           count = p.Traffic.Link_params.count_demand;
           extra = extra t j ~stage;
         })
       flows)

let mx_of t i ~dt = time_bound t i.time (Gmf_util.Timeunit.sat_add dt i.extra)
let nx_of i ~dt = count_bound i.count (Gmf_util.Timeunit.sat_add dt i.extra)

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
  Jitter_state.set t.jitters ~flow:flow.Traffic.Flow.id ~stage ~frame value

let get_jitter t flow ~frame ~stage =
  Jitter_state.get t.jitters ~flow:flow.Traffic.Flow.id ~stage ~frame
