(* Guard margin for the float comparisons of the sufficient test: the
   holistic analysis is integer-exact, the closed forms are real-valued,
   so every "< 1" and "<= horizon" check keeps a safety margin. *)
let eps = 1e-9

(* ---------------- stage utilizations ---------------- *)

let link_utilization scenario ~src ~dst =
  Traffic.Scenario.link_utilization scenario ~src ~dst

(* Left side of eqs (34)-(35) for one ingress link (src -> switch): every
   Ethernet frame entering the switch there costs one CIRC rotation. *)
let ingress_utilization scenario ~src ~node =
  let circ = Traffic.Scenario.circ scenario node in
  List.fold_left
    (fun acc f ->
      let p = Traffic.Scenario.params scenario f ~src ~dst:node in
      acc
      +. float_of_int (Traffic.Link_params.nsum p * circ)
         /. float_of_int (Traffic.Flow.tsum f))
    0.
    (Traffic.Scenario.flows_on scenario ~src ~dst:node)

let egress_utilization scenario (flow : Traffic.Flow.t) ~node =
  let dst = Network.Route.succ flow.Traffic.Flow.route node in
  flow :: Traffic.Scenario.hep scenario flow ~node
  |> List.fold_left
       (fun acc j ->
         acc
         +. Traffic.Link_params.utilization
              (Traffic.Scenario.params scenario j ~src:node ~dst))
       0.

let stage_utilization scenario (flow : Traffic.Flow.t) = function
  | Stage_key.First_link (src, dst) -> link_utilization scenario ~src ~dst
  | Stage_key.Ingress node ->
      let src = Network.Route.prec flow.Traffic.Flow.route node in
      ingress_utilization scenario ~src ~node
  | Stage_key.Egress (node, _) -> egress_utilization scenario flow ~node

(* ---------------- uncontended floor (GMF202) ---------------- *)

(* GJ + the sum of per-stage response-time lower bounds of Figure 6: own
   transmission + propagation on every link stage, own rotations at every
   ingress stage.  Mirrors [Analysis.Pipeline.stage_min_response]. *)
let min_response scenario (f : Traffic.Flow.t) ~frame =
  let route = f.Traffic.Flow.route in
  let links =
    List.fold_left
      (fun acc (src, dst) ->
        let p = Traffic.Scenario.params scenario f ~src ~dst in
        acc
        + p.Traffic.Link_params.c.(frame)
        + p.Traffic.Link_params.link.Network.Link.prop)
      0 (Network.Route.hops route)
  in
  let ingresses =
    List.fold_left
      (fun acc node ->
        let src = Network.Route.prec route node in
        let p = Traffic.Scenario.params scenario f ~src ~dst:node in
        let model = Traffic.Scenario.switch_model scenario node in
        acc
        + p.Traffic.Link_params.eth_frames.(frame)
          * model.Click.Switch_model.croute)
      0
      (Network.Route.intermediate_switches route)
  in
  let gj = (Gmf.Spec.frame f.Traffic.Flow.spec frame).Gmf.Frame_spec.jitter in
  gj + links + ingresses

(* ---------------- shared demand helpers ---------------- *)

let mx ~capped scenario j ~src ~dst ~dt =
  Gmf.Demand.bound
    (Traffic.Scenario.params scenario j ~src ~dst).Traffic.Link_params
      .time_demand ~capped dt

let nx scenario j ~src ~dst ~dt =
  Gmf.Demand.bound
    (Traffic.Scenario.params scenario j ~src ~dst).Traffic.Link_params
      .count_demand ~capped:false dt

let others_on scenario (flow : Traffic.Flow.t) ~src ~dst =
  Traffic.Scenario.flows_on scenario ~src ~dst
  |> List.filter (fun (j : Traffic.Flow.t) ->
         j.Traffic.Flow.id <> flow.Traffic.Flow.id)

(* ---------------- necessary demand floor ---------------- *)

(* One application of each stage's exact recurrence at (q = 0, l = 0) from
   the bottom jitter state.  At first links every interferer's jitter is
   its source jitter (first-link jitters never change — endhosts do not
   relay, so flows sharing a first link share the stage key); everywhere
   else the bottom jitter is 0.  Converged stage windows dominate one
   application of their own step function, and the scan of Stage_common
   includes (0, 0), so each term bounds the real stage response from
   below for {e any} reachable jitter state. *)
let demand_floor ~config scenario (flow : Traffic.Flow.t) ~frame =
  let variant = config.Analysis_config.variant in
  let capped = variant = Analysis_config.Faithful in
  let route = flow.Traffic.Flow.route in
  let floor_of = function
    | Stage_key.First_link (src, dst) as stage ->
        let own = Traffic.Scenario.params scenario flow ~src ~dst in
        let c_k = own.Traffic.Link_params.c.(frame) in
        let prop = own.Traffic.Link_params.link.Network.Link.prop in
        let interference =
          List.fold_left
            (fun acc (j : Traffic.Flow.t) ->
              acc
              + mx ~capped scenario j ~src ~dst
                  ~dt:(Gmf.Spec.max_jitter j.Traffic.Flow.spec))
            0
            (others_on scenario flow ~src ~dst)
        in
        (stage, c_k + prop + interference)
    | Stage_key.Ingress node as stage ->
        let src = Network.Route.prec route node in
        let circ = Traffic.Scenario.circ scenario node in
        let own = Traffic.Scenario.params scenario flow ~src ~dst:node in
        let m_k = own.Traffic.Link_params.eth_frames.(frame) in
        let own_charge =
          match variant with
          | Analysis_config.Faithful -> 0
          | Analysis_config.Repaired -> (m_k - 1) * circ
        in
        let interference =
          List.fold_left
            (fun acc j -> acc + nx scenario j ~src ~dst:node ~dt:0)
            0
            (others_on scenario flow ~src ~dst:node)
        in
        (stage, own_charge + (interference * circ) + circ)
    | Stage_key.Egress (node, dst) as stage ->
        let circ = Traffic.Scenario.circ scenario node in
        let own = Traffic.Scenario.params scenario flow ~src:node ~dst in
        let c_k = own.Traffic.Link_params.c.(frame) in
        let m_k = own.Traffic.Link_params.eth_frames.(frame) in
        let mft = Traffic.Link_params.mft own in
        let prop = own.Traffic.Link_params.link.Network.Link.prop in
        let own_rotations =
          match variant with
          | Analysis_config.Faithful -> 0
          | Analysis_config.Repaired -> m_k * circ
        in
        let interference =
          List.fold_left
            (fun acc j ->
              acc
              + mx ~capped scenario j ~src:node ~dst ~dt:0
              + (nx scenario j ~src:node ~dst ~dt:0 * circ))
            0
            (Traffic.Scenario.hep scenario flow ~node)
        in
        (stage, mft + own_rotations + interference + c_k + prop)
  in
  let per_stage = List.map floor_of (Stage_key.stages_of_route route) in
  let gj =
    (Gmf.Spec.frame flow.Traffic.Flow.spec frame).Gmf.Frame_spec.jitter
  in
  let total = List.fold_left (fun acc (_, v) -> acc + v) gj per_stage in
  (total, per_stage)

(* ---------------- sufficient response ceiling ---------------- *)

type ceiling = {
  totals : float array;
  binding_frame : int;
  binding_stage : Stage_key.t;
  slack : float;
  max_util : float;
}

(* Per-interferer linear majorant at one stage: cost m per cycle TSUM,
   jitter capped at ebar, so its demand over a window w is at most
   m * (1 + (w + ebar)/TSUM) = sigma + rho * w (the window cost of
   eqs (10)/(12) never exceeds the cycle total). *)
type majorant = { sigma : float; rho : float }

let majorant ~m ~tsum ~ebar =
  let m = float_of_int m and tsum = float_of_int tsum in
  { sigma = m *. (1. +. (ebar /. tsum)); rho = m /. tsum }

let sum_majorants l =
  List.fold_left (fun (a, u) mj -> (a +. mj.sigma, u +. mj.rho)) (0., 0.) l

(* Jitter cap of an interferer away from its first link: once every flow
   of the component meets its deadlines, any accumulated jitter stays
   below the frame's end-to-end bound, itself below the largest deadline.
   The source jitter is folded in to also dominate states below the
   fixpoint. *)
let deadline_cap (j : Traffic.Flow.t) =
  let spec = j.Traffic.Flow.spec in
  let dmax = Array.fold_left max 0 (Gmf.Spec.deadlines spec) in
  float_of_int (max dmax (Gmf.Spec.max_jitter spec))

let window_before arr ~k ~len =
  let n = Array.length arr in
  let rec go i acc =
    if i >= len then acc
    else go (i + 1) (acc + arr.((((k - 1 - i) mod n) + n) mod n))
  in
  go 0 0

(* Everything the closed form needs about one stage of the analyzed flow:
   the interferer majorants, the self terms of the (q, l) scan, and the
   busy-period constants.  [sf_pre]/[sf_pre_t] pair the own carry-in cost
   of l predecessor frames with their minimum separation, flattened over
   every (frame, l) combination of the Repaired scan. *)
type stage_form = {
  sf_interf : majorant list;  (* the w-window interference set *)
  sf_self_m : int;  (* own per-cycle stage cost (busy-period slope) *)
  sf_self_ebar : float;  (* own jitter cap (busy-period interference) *)
  sf_gq : int;  (* own per-cycle w-base increment (q scan) *)
  sf_pre : int array;
  sf_pre_t : int array;
  sf_base0 : int array;  (* per-frame w-base at q = 0, l = 0 *)
  sf_busy_const : int;  (* additive constant of the busy recurrence *)
  sf_seed : int array;  (* per-frame busy seeds (horizon guard) *)
  sf_tail : int array;  (* per-frame finish terms added after w *)
}

(* Flatten window_before over every (k, l) pair of the Repaired scan,
   keeping cost and separation arrays index-aligned. *)
let carry_ins ~repaired ~n cost_arr sep_arr =
  if not repaired then ([| 0 |], [| 0 |])
  else begin
    let costs = Array.make (n * n) 0 and seps = Array.make (n * n) 0 in
    for k = 0 to n - 1 do
      for l = 0 to n - 1 do
        costs.((k * n) + l) <- window_before cost_arr ~k ~len:l;
        seps.((k * n) + l) <- window_before sep_arr ~k ~len:l
      done
    done;
    (costs, seps)
  end

let stage_form ~config scenario (flow : Traffic.Flow.t) stage =
  let variant = config.Analysis_config.variant in
  let repaired = variant = Analysis_config.Repaired in
  let route = flow.Traffic.Flow.route in
  let spec = flow.Traffic.Flow.spec in
  let n = Gmf.Spec.n spec in
  let periods = Gmf.Spec.periods spec in
  match stage with
  | Stage_key.First_link (src, dst) ->
      let own = Traffic.Scenario.params scenario flow ~src ~dst in
      let csum = Traffic.Link_params.csum own in
      let prop = own.Traffic.Link_params.link.Network.Link.prop in
      let interf =
        List.map
          (fun (j : Traffic.Flow.t) ->
            let p = Traffic.Scenario.params scenario j ~src ~dst in
            majorant
              ~m:(Traffic.Link_params.csum p)
              ~tsum:(Traffic.Flow.tsum j)
              (* First-link jitters are frozen source jitters. *)
              ~ebar:(float_of_int (Gmf.Spec.max_jitter j.Traffic.Flow.spec)))
          (others_on scenario flow ~src ~dst)
      in
      let pre, pre_t =
        carry_ins ~repaired ~n own.Traffic.Link_params.c periods
      in
      {
        sf_interf = interf;
        sf_self_m = csum;
        sf_self_ebar = float_of_int (Gmf.Spec.max_jitter spec);
        sf_gq = csum;
        sf_pre = pre;
        sf_pre_t = pre_t;
        sf_base0 = Array.make n 0;
        sf_busy_const = 0;
        sf_seed = Array.copy own.Traffic.Link_params.c;
        sf_tail = Array.init n (fun k -> own.Traffic.Link_params.c.(k) + prop);
      }
  | Stage_key.Ingress node ->
      let src = Network.Route.prec route node in
      let circ = Traffic.Scenario.circ scenario node in
      let own = Traffic.Scenario.params scenario flow ~src ~dst:node in
      let nsum = Traffic.Link_params.nsum own in
      let interf =
        List.map
          (fun (j : Traffic.Flow.t) ->
            let p = Traffic.Scenario.params scenario j ~src ~dst:node in
            majorant
              ~m:(Traffic.Link_params.nsum p * circ)
              ~tsum:(Traffic.Flow.tsum j)
              ~ebar:(deadline_cap j))
          (others_on scenario flow ~src ~dst:node)
      in
      let m_of k = own.Traffic.Link_params.eth_frames.(k) in
      let rot_cost =
        Array.map (fun m -> m * circ) own.Traffic.Link_params.eth_frames
      in
      let pre, pre_t = carry_ins ~repaired ~n rot_cost periods in
      {
        sf_interf = interf;
        sf_self_m = nsum * circ;
        sf_self_ebar = deadline_cap flow;
        sf_gq = (if repaired then nsum * circ else circ);
        sf_pre = pre;
        sf_pre_t = pre_t;
        sf_base0 =
          Array.init n (fun k -> if repaired then (m_of k - 1) * circ else 0);
        sf_busy_const = 0;
        sf_seed =
          Array.init n (fun k -> if repaired then m_of k * circ else circ);
        sf_tail = Array.make n circ;
      }
  | Stage_key.Egress (node, dst) ->
      let circ = Traffic.Scenario.circ scenario node in
      let own = Traffic.Scenario.params scenario flow ~src:node ~dst in
      let csum = Traffic.Link_params.csum own in
      let nsum = Traffic.Link_params.nsum own in
      let mft = Traffic.Link_params.mft own in
      let prop = own.Traffic.Link_params.link.Network.Link.prop in
      let interf =
        List.map
          (fun (j : Traffic.Flow.t) ->
            let p = Traffic.Scenario.params scenario j ~src:node ~dst in
            majorant
              ~m:
                (Traffic.Link_params.csum p
                + (Traffic.Link_params.nsum p * circ))
              ~tsum:(Traffic.Flow.tsum j)
              ~ebar:(deadline_cap j))
          (Traffic.Scenario.hep scenario flow ~node)
      in
      let m_of k = own.Traffic.Link_params.eth_frames.(k) in
      let pre_cost =
        Array.init n (fun k ->
            own.Traffic.Link_params.c.(k)
            + if repaired then m_of k * circ else 0)
      in
      let pre, pre_t = carry_ins ~repaired ~n pre_cost periods in
      {
        sf_interf = interf;
        sf_self_m = csum + (nsum * circ);
        sf_self_ebar = deadline_cap flow;
        sf_gq = (if repaired then csum + (nsum * circ) else csum);
        sf_pre = pre;
        sf_pre_t = pre_t;
        sf_base0 =
          Array.init n (fun k -> mft + if repaired then m_of k * circ else 0);
        sf_busy_const = mft;
        sf_seed = Array.make n mft;
        sf_tail = Array.init n (fun k -> own.Traffic.Link_params.c.(k) + prop);
      }

(* Closed-form per-frame ceiling of one stage, or the violated guard. *)
let stage_ceiling ~config scenario flow stage =
  let sf = stage_form ~config scenario flow stage in
  let tsum_i = float_of_int (Traffic.Flow.tsum flow) in
  let a, u = sum_majorants sf.sf_interf in
  let self =
    majorant ~m:sf.sf_self_m ~tsum:(Traffic.Flow.tsum flow)
      ~ebar:sf.sf_self_ebar
  in
  let u_all = u +. self.rho in
  let stage_str = Format.asprintf "%a" Stage_key.pp stage in
  if u_all >= 1. -. eps then
    Error
      (Printf.sprintf "stage %s: utilization %.3f leaves no slack" stage_str
         u_all)
  else begin
    let a_all = a +. self.sigma in
    let horizon = float_of_int config.Analysis_config.horizon in
    (* Busy-period bound: any fixed point of t = const + I_all(t) obeys
       t <= (const + A_all) / (1 - U_all). *)
    let busy_bar =
      (float_of_int sf.sf_busy_const +. a_all) /. (1. -. u_all)
    in
    let q_bar = Float.max 1. (Float.ceil (busy_bar /. tsum_i)) in
    (* Carry-in slack: the l-scan adds own predecessor cost inside the
       window but subtracts only their minimum separations. *)
    let lslack =
      let best = ref 0. in
      Array.iteri
        (fun idx pre ->
          let v =
            (float_of_int pre /. (1. -. u)) -. float_of_int sf.sf_pre_t.(idx)
          in
          if v > !best then best := v)
        sf.sf_pre;
      !best
    in
    let n = Array.length sf.sf_base0 in
    let base0_max = Array.fold_left max 0 sf.sf_base0 |> float_of_int in
    let pre_max = Array.fold_left max 0 sf.sf_pre |> float_of_int in
    let seed_max = Array.fold_left max 0 sf.sf_seed |> float_of_int in
    let w_bar =
      (base0_max +. ((q_bar -. 1.) *. float_of_int sf.sf_gq) +. pre_max +. a)
      /. (1. -. u)
    in
    if q_bar > float_of_int config.Analysis_config.max_q then
      Error
        (Printf.sprintf "stage %s: busy-period bound needs Q=%.0f > max_q %d"
           stage_str q_bar config.Analysis_config.max_q)
    else if Float.max busy_bar (Float.max w_bar seed_max) > horizon -. 1. then
      Error
        (Printf.sprintf "stage %s: window bound exceeds the horizon" stage_str)
    else begin
      (* q = 0 dominates the scan: gq/(1-U) <= TSUM_i follows from
         U + self.rho < 1 and gq <= self_m. *)
      let rbar =
        Array.init n (fun k ->
            ((float_of_int sf.sf_base0.(k) +. a) /. (1. -. u))
            +. lslack
            +. float_of_int sf.sf_tail.(k))
      in
      Ok (rbar, u_all)
    end
  end

let response_ceiling ~config scenario (flow : Traffic.Flow.t) =
  let spec = flow.Traffic.Flow.spec in
  let n = Gmf.Spec.n spec in
  let stages = Stage_key.stages_of_route flow.Traffic.Flow.route in
  let rec collect acc max_u = function
    | [] -> Ok (List.rev acc, max_u)
    | stage :: rest -> (
        match stage_ceiling ~config scenario flow stage with
        | Error e -> Error e
        | Ok (rbar, u_all) ->
            collect ((stage, rbar) :: acc) (Float.max max_u u_all) rest)
  in
  match collect [] 0. stages with
  | Error e -> Error e
  | Ok (per_stage, max_util) ->
      let jitters = Gmf.Spec.jitters spec in
      let deadlines = Gmf.Spec.deadlines spec in
      let totals =
        Array.init n (fun k ->
            List.fold_left
              (fun acc (_, rbar) -> acc +. rbar.(k))
              (float_of_int jitters.(k))
              per_stage)
      in
      let binding_frame = ref 0 and best_slack = ref infinity in
      Array.iteri
        (fun k total ->
          let slack = float_of_int deadlines.(k) -. total in
          if slack < !best_slack then begin
            best_slack := slack;
            binding_frame := k
          end)
        totals;
      let binding_stage =
        List.fold_left
          (fun (bs, bv) (stage, rbar) ->
            if rbar.(!binding_frame) > bv then (stage, rbar.(!binding_frame))
            else (bs, bv))
          (List.hd stages, neg_infinity)
          per_stage
        |> fst
      in
      Ok
        {
          totals;
          binding_frame = !binding_frame;
          binding_stage;
          slack = !best_slack;
          max_util;
        }

let certifies (flow : Traffic.Flow.t) ceiling =
  let deadlines = Gmf.Spec.deadlines flow.Traffic.Flow.spec in
  let ok = ref true in
  Array.iteri
    (fun k total ->
      if Float.ceil total > float_of_int deadlines.(k) then ok := false)
    ceiling.totals;
  !ok
