(* Guard margin for the float comparisons of the sufficient test: the
   holistic analysis is integer-exact, the closed forms are real-valued,
   so every "< 1" and "<= horizon" check keeps a safety margin. *)
let eps = 1e-9

(* ---------------- stage utilizations ---------------- *)

type overload =
  | Link_overload of { src : Network.Node.id; dst : Network.Node.id }
  | Ingress_overload of { src : Network.Node.id; node : Network.Node.id }

let route_overloads scenario (flow : Traffic.Flow.t) =
  let route = flow.Traffic.Flow.route in
  let links =
    List.filter_map
      (fun (src, dst) ->
        let u = Traffic.Scenario.link_utilization scenario ~src ~dst in
        if u >= 1. then Some (Link_overload { src; dst }, u) else None)
      (Network.Route.hops route)
  in
  let ingresses =
    List.filter_map
      (fun node ->
        let src = Network.Route.prec route node in
        let u = Traffic.Scenario.ingress_utilization scenario ~src ~node in
        if u >= 1. then Some (Ingress_overload { src; node }, u) else None)
      (Network.Route.intermediate_switches route)
  in
  links @ ingresses

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
  | Stage_key.First_link (src, dst) ->
      Traffic.Scenario.link_utilization scenario ~src ~dst
  | Stage_key.Ingress node ->
      let src = Network.Route.prec flow.Traffic.Flow.route node in
      Traffic.Scenario.ingress_utilization scenario ~src ~node
  | Stage_key.Egress (node, _) -> egress_utilization scenario flow ~node

(* ---------------- uncontended floor (GMF202) ---------------- *)

(* GJ + the uncontended floors of every stage of Figure 6. *)
let min_response scenario (f : Traffic.Flow.t) ~frame =
  let gj = (Gmf.Spec.frame f.Traffic.Flow.spec frame).Gmf.Frame_spec.jitter in
  List.fold_left
    (fun acc stage -> acc + Stage_eq.uncontended scenario f ~frame stage)
    gj
    (Stage_key.stages_of_route f.Traffic.Flow.route)

(* ---------------- necessary demand floor ---------------- *)

(* First-link jitters are the frozen source jitters: endhosts do not
   relay, so flows sharing a first link share the stage key.  Everywhere
   else jitters start at 0 and only grow. *)
let jitters_frozen = function
  | Stage_key.First_link _ -> true
  | Stage_key.Ingress _ | Stage_key.Egress _ -> false

(* One application of each stage's exact recurrence at (q = 0, l = 0) from
   the bottom jitter state: every interferer's source jitter at first
   links, 0 elsewhere.  Converged stage windows dominate one application
   of their own step function, and the scan of Stage_common includes
   (0, 0), so each term bounds the real stage response from below for
   {e any} reachable jitter state.  The interference term depends on the
   stage only, not on the frame. *)
let demand_floor ~config scenario (flow : Traffic.Flow.t) =
  let capped = config.Analysis_config.variant = Analysis_config.Faithful in
  let n = Traffic.Flow.n flow in
  let floors_of stage =
    let at = Stage_eq.make ~config scenario flow stage in
    let eqs = Array.init n (fun frame -> at ~frame) in
    let src = eqs.(0).Stage_eq.src and dst = eqs.(0).Stage_eq.dst in
    let bottom (j : Traffic.Flow.t) =
      if jitters_frozen stage then Gmf.Spec.max_jitter j.Traffic.Flow.spec
      else 0
    in
    let params j = Traffic.Scenario.params scenario j ~src ~dst in
    let mx j =
      Gmf.Demand.bound (params j).Traffic.Link_params.time_demand ~capped
        (bottom j)
    and nx j =
      Gmf.Demand.bound (params j).Traffic.Link_params.count_demand
        ~capped:false (bottom j)
    in
    let interference =
      List.fold_left
        (fun acc j -> acc + Stage_eq.charge eqs.(0) ~mx ~nx j)
        0
        (Stage_eq.interferers scenario flow stage)
    in
    Array.map
      (fun d ->
        let w = Stage_eq.window_base d ~q:0 ~l:0 + interference in
        Stage_eq.response d ~q:0 ~l:0 ~w)
      eqs
  in
  let per_stage =
    List.map
      (fun stage -> (stage, floors_of stage))
      (Stage_key.stages_of_route flow.Traffic.Flow.route)
  in
  let jitters = Gmf.Spec.jitters flow.Traffic.Flow.spec in
  Array.init n (fun frame ->
      let terms = List.map (fun (stage, f) -> (stage, f.(frame))) per_stage in
      (List.fold_left (fun acc (_, v) -> acc + v) jitters.(frame) terms, terms))

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

(* Jitter cap of a stage's flows: the frozen source jitter at first
   links, [deadline_cap] elsewhere. *)
let jitter_cap stage (j : Traffic.Flow.t) =
  if jitters_frozen stage then
    float_of_int (Gmf.Spec.max_jitter j.Traffic.Flow.spec)
  else deadline_cap j

(* Everything the closed form needs about one stage of the analyzed flow:
   the interferer majorants, the self terms of the (q, l) scan, and the
   busy-period constants, all read off the per-frame Stage_eq
   descriptions.  [sf_pre]/[sf_pre_t] pair the own carry-in cost of l
   predecessor frames with their minimum separation, flattened over every
   (frame, l) combination of the scan. *)
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

let stage_form ~config scenario (flow : Traffic.Flow.t) stage =
  let n = Traffic.Flow.n flow in
  let eqs =
    let at = Stage_eq.make ~config scenario flow stage in
    Array.init n (fun frame -> at ~frame)
  in
  let d = eqs.(0) in
  let src = d.Stage_eq.src and dst = d.Stage_eq.dst in
  let majorant_of (j : Traffic.Flow.t) =
    majorant
      ~m:
        (Stage_eq.cycle_charge d
           (Traffic.Scenario.params scenario j ~src ~dst))
      ~tsum:(Traffic.Flow.tsum j) ~ebar:(jitter_cap stage j)
  in
  (* Index-aligned (frame, l) pairs: own carry-in cost, separation. *)
  let l_count = d.Stage_eq.l_count in
  let pre = Array.make (n * l_count) 0 and pre_t = Array.make (n * l_count) 0 in
  Array.iteri
    (fun k e ->
      let own, sep = Stage_eq.carry_in e in
      Array.blit own 0 pre (k * l_count) l_count;
      Array.blit sep 0 pre_t (k * l_count) l_count)
    eqs;
  {
    sf_interf = List.map majorant_of (Stage_eq.interferers scenario flow stage);
    sf_self_m =
      Stage_eq.cycle_charge d (Traffic.Scenario.params scenario flow ~src ~dst);
    sf_self_ebar = jitter_cap stage flow;
    sf_gq = Stage_eq.own_per_cycle d;
    sf_pre = pre;
    sf_pre_t = pre_t;
    sf_base0 = Array.map (Stage_eq.window_base ~q:0 ~l:0) eqs;
    sf_busy_const = d.Stage_eq.busy_const;
    sf_seed = Array.map (fun e -> e.Stage_eq.busy_seed) eqs;
    sf_tail = Array.map Stage_eq.tail eqs;
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
  (* Formatted only for an [Error]: most stages certify. *)
  let stage_str () = Format.asprintf "%a" Stage_key.pp stage in
  if u_all >= 1. -. eps then
    Error
      (Printf.sprintf "stage %s: utilization %.3f leaves no slack"
         (stage_str ()) u_all)
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
           (stage_str ()) q_bar config.Analysis_config.max_q)
    else if Float.max busy_bar (Float.max w_bar seed_max) > horizon -. 1. then
      Error
        (Printf.sprintf "stage %s: window bound exceeds the horizon"
           (stage_str ()))
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
