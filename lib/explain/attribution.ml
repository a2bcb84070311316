open Gmf_util
open Analysis
module Stage_eq = Gmf_precheck.Stage_eq

type interferer = {
  if_id : Traffic.Flow.id;
  if_name : string;
  if_pattern : string;
  if_frames : int;
  if_link : Timeunit.ns;
  if_cpu : Timeunit.ns;
}

let if_total i = i.if_link + i.if_cpu

type hop = {
  hop_stage : Stage.t;
  hop_response : Timeunit.ns;
  hop_min_response : Timeunit.ns;
  hop_transmission : Timeunit.ns;
  hop_software : Timeunit.ns;
  hop_blocking : Timeunit.ns;
  hop_own_carry : Timeunit.ns;
  hop_interference : interferer list;
  hop_q : int;
  hop_l : int;
  hop_window : Timeunit.ns;
  hop_residual : Timeunit.ns;
}

type frame_attr = {
  fa_frame : int;
  fa_jitter : Timeunit.ns;
  fa_hops : hop list;
  fa_total : Timeunit.ns;
  fa_deadline : Timeunit.ns;
}

type flow_attr = {
  af_flow : Traffic.Flow.t;
  af_frames : frame_attr list;
}

type t = {
  verdict : Holistic.verdict;
  rounds : int;
  flows : flow_attr list;
}

let slack fa = fa.fa_deadline - fa.fa_total

(* The GMF frame-pattern summary attached to every interferer: how many
   frames its cycle has and how long the cycle is — enough to recognize the
   stream in a report without chasing its id. *)
let pattern j =
  Printf.sprintf "%d frame%s / %s cycle" (Traffic.Flow.n j)
    (if Traffic.Flow.n j = 1 then "" else "s")
    (Timeunit.to_string (Traffic.Flow.tsum j))

(* Re-evaluates every term of the stage recurrence at the recorded witness
   (w_q, w_l, w_last).  At a jitter fixed point the converged window w
   satisfies w = base + sum of per-interferer charges evaluated at
   w + extra_j, so the decomposition below sums to the stage response
   exactly; [hop_residual] (0 at a fixed point) makes any violation — e.g.
   attribution of a non-converged report — visible instead of silent. *)
let hop_of_stage ctx flow ~frame (sr : Result_types.stage_response) =
  let scenario = Ctx.scenario ctx in
  let q = sr.Result_types.w_q
  and l = sr.Result_types.w_l
  and w = sr.Result_types.w_last in
  let stage = sr.Result_types.stage in
  let d = Stage_eq.make ~config:(Ctx.config ctx) scenario flow stage ~frame in
  let src = d.Stage_eq.src and dst = d.Stage_eq.dst in
  let interference =
    Stage_eq.interferers scenario flow stage
    |> List.map (fun j ->
           let dt = w + Ctx.extra ctx j ~stage in
           let frames = Ctx.nx ctx j ~src ~dst ~dt in
           let link, cpu =
             Stage_eq.charge_parts d ~mx:(Ctx.mx ctx j ~src ~dst ~dt)
               ~nx:frames
           in
           {
             if_id = j.Traffic.Flow.id;
             if_name = j.Traffic.Flow.name;
             if_pattern = pattern j;
             if_frames = frames;
             if_link = link;
             if_cpu = cpu;
           })
    |> List.sort (fun a b ->
           compare (if_total b, a.if_id) (if_total a, b.if_id))
  in
  let transmission = d.Stage_eq.transmission
  and software = Stage_eq.own_rotations d ~q ~l + d.Stage_eq.final_rotation
  and blocking = d.Stage_eq.blocking
  and own_carry = Stage_eq.own_work d ~q ~l - Stage_eq.separation d ~q ~l in
  let parts =
    transmission + software + blocking + own_carry
    + List.fold_left (fun acc i -> acc + if_total i) 0 interference
  in
  {
    hop_stage = stage;
    hop_response = sr.Result_types.response;
    hop_min_response = d.Stage_eq.uncontended;
    hop_transmission = transmission;
    hop_software = software;
    hop_blocking = blocking;
    hop_own_carry = own_carry;
    hop_interference = interference;
    hop_q = q;
    hop_l = l;
    hop_window = w;
    hop_residual = sr.Result_types.response - parts;
  }

let frame_of_result ctx flow (fr : Result_types.frame_result) =
  let spec_frame =
    Gmf.Spec.frame flow.Traffic.Flow.spec fr.Result_types.frame
  in
  {
    fa_frame = fr.Result_types.frame;
    fa_jitter = spec_frame.Gmf.Frame_spec.jitter;
    fa_hops =
      List.map
        (hop_of_stage ctx flow ~frame:fr.Result_types.frame)
        fr.Result_types.stages;
    fa_total = fr.Result_types.total;
    fa_deadline = fr.Result_types.deadline;
  }

let of_ctx ctx (report : Holistic.report) =
  {
    verdict = report.Holistic.verdict;
    rounds = report.Holistic.rounds;
    flows =
      List.map
        (fun (res : Result_types.flow_result) ->
          let flow = res.Result_types.flow in
          {
            af_flow = flow;
            af_frames =
              Array.to_list res.Result_types.frames
              |> List.map (frame_of_result ctx flow);
          })
        report.Holistic.results;
  }

let of_report ?config scenario report =
  let ctx = Ctx.create ?config scenario in
  Pipeline.seed ctx report.Holistic.results;
  of_ctx ctx report

let analyze ?config scenario =
  let ctx = Ctx.create ?config scenario in
  let report = Holistic.run ctx in
  (of_ctx ctx report, report)

(* ---------------- binding-term queries ---------------- *)

let frame_exact fa =
  let hop_sum =
    List.fold_left (fun acc h -> acc + h.hop_response) 0 fa.fa_hops
  in
  fa.fa_jitter + hop_sum = fa.fa_total
  && List.for_all (fun h -> h.hop_residual = 0) fa.fa_hops

let worst_frame af =
  match af.af_frames with
  | [] -> invalid_arg "Attribution.worst_frame: no frames"
  | fa0 :: rest ->
      List.fold_left
        (fun best fa -> if slack fa < slack best then fa else best)
        fa0 rest

let binding_hop fa =
  match fa.fa_hops with
  | [] -> None
  | h0 :: rest ->
      Some
        (List.fold_left
           (fun best h ->
             if h.hop_response > best.hop_response then h else best)
           h0 rest)

let interferer_shares fa =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun h ->
      List.iter
        (fun i ->
          let cur =
            match Hashtbl.find_opt tbl i.if_id with
            | Some (_, total) -> total
            | None -> 0
          in
          Hashtbl.replace tbl i.if_id (i.if_name, cur + if_total i))
        h.hop_interference)
    fa.fa_hops;
  Hashtbl.fold (fun id (name, total) acc -> (id, name, total) :: acc) tbl []
  |> List.sort (fun (ia, _, ta) (ib, _, tb) -> compare (tb, ia) (ta, ib))

let binding_interferer fa =
  match interferer_shares fa with
  | (_, _, 0) :: _ | [] -> None
  | top :: _ -> Some top

(* ---------------- one-line summary ---------------- *)

type summary = {
  s_flow_id : Traffic.Flow.id;
  s_flow : string;
  s_frame : int;
  s_total : Timeunit.ns;
  s_deadline : Timeunit.ns;
  s_slack : Timeunit.ns;
  s_hop : string;
  s_interferer : (Traffic.Flow.id * string * Timeunit.ns) option;
}

let summarize t =
  match t.flows with
  | [] -> None
  | flows ->
      let af, fa =
        List.map (fun af -> (af, worst_frame af)) flows
        |> List.fold_left
             (fun (baf, bfa) (af, fa) ->
               if slack fa < slack bfa then (af, fa) else (baf, bfa))
             (List.hd flows, worst_frame (List.hd flows))
      in
      Some
        {
          s_flow_id = af.af_flow.Traffic.Flow.id;
          s_flow = af.af_flow.Traffic.Flow.name;
          s_frame = fa.fa_frame;
          s_total = fa.fa_total;
          s_deadline = fa.fa_deadline;
          s_slack = slack fa;
          s_hop =
            (match binding_hop fa with
            | Some h -> Format.asprintf "%a" Stage.pp h.hop_stage
            | None -> "-");
          s_interferer = binding_interferer fa;
        }
