type policy =
  | Deadline_monotonic
  | Rate_monotonic
  | Lightest_first
  | Uniform of int

let reprioritize flow priority =
  Traffic.Flow.make ~id:flow.Traffic.Flow.id ~name:flow.Traffic.Flow.name
    ~spec:flow.Traffic.Flow.spec ~encap:flow.Traffic.Flow.encap
    ~route:flow.Traffic.Flow.route ~priority

(* Spread [levels] classes over 0..7: level 0 is the lowest class. *)
let class_of_level ~levels level =
  if levels = 1 then 0 else level * 7 / (levels - 1)

(* Mean wire bandwidth over a cycle in bits/s, independent of link speed. *)
let bandwidth flow =
  let bits =
    Array.to_list (Traffic.Flow.nbits_all flow)
    |> List.fold_left
         (fun acc nbits -> acc + Ethernet.Fragment.total_wire_bits ~nbits)
         0
  in
  float_of_int bits /. (float_of_int (Traffic.Flow.tsum flow) /. 1e9)

let urgency policy flow =
  (* Larger urgency = higher class. *)
  match policy with
  | Deadline_monotonic ->
      -.float_of_int (Gmf.Spec.min_deadline flow.Traffic.Flow.spec)
  | Rate_monotonic ->
      -.float_of_int (Gmf.Spec.min_period flow.Traffic.Flow.spec)
  | Lightest_first -> -.bandwidth flow
  | Uniform _ -> 0.

let assign ?(levels = 8) policy flows =
  if levels < 1 || levels > 8 then
    invalid_arg "Priority_assign.assign: levels outside 1..8";
  match policy with
  | Uniform cls -> List.map (fun f -> reprioritize f cls) flows
  | _ ->
      let n = List.length flows in
      let ranked =
        List.stable_sort
          (fun a b ->
            match compare (urgency policy a) (urgency policy b) with
            | 0 -> compare a.Traffic.Flow.id b.Traffic.Flow.id
            | c -> c)
          flows
      in
      (* rank 0 = least urgent = lowest class *)
      List.mapi
        (fun rank flow ->
          let level = if n = 1 then levels - 1 else rank * levels / n in
          reprioritize flow (class_of_level ~levels (min level (levels - 1))))
        ranked
      |> List.sort (fun a b -> compare a.Traffic.Flow.id b.Traffic.Flow.id)

let worst_bound report =
  List.fold_left
    (fun acc res ->
      max acc
        (Result_types.worst_frame res).Result_types.total)
    0 report.Holistic.results

(* Every vector of [n] levels below [levels], lazily, in enumeration
   order: position 0 varies slowest, level 0 first. *)
let rec vectors ~levels n : int list Seq.t =
  if n = 0 then Seq.return []
  else
    Seq.concat_map
      (fun level -> Seq.map (List.cons level) (vectors ~levels (n - 1)))
      (Seq.init levels Fun.id)

(* A vector is dense when its levels are exactly 0..m-1.  The analysis
   reads priorities only through the hep/lp sets, so every vector of one
   priority order has the same verdict and bound; the order's dense
   vector is pointwise, and so lexicographically, its least, hence the
   first of the order enumerated. *)
let dense vector =
  let mask = List.fold_left (fun m level -> m lor (1 lsl level)) 0 vector in
  mask land (mask + 1) = 0

let best_exhaustive ?config ?(levels = 8) scenario =
  if levels < 1 || levels > 8 then
    invalid_arg "Priority_assign.best_exhaustive: levels outside 1..8";
  let flows = Traffic.Scenario.flows scenario in
  let classes = Array.init levels (fun l -> class_of_level ~levels l) in
  let analyze candidate =
    Holistic.analyze ?config (Traffic.Scenario.with_flows scenario candidate)
  in
  (* The fold keeps the first strict minimum in enumeration order; a
     later vector of an order already analyzed cannot displace it. *)
  vectors ~levels (List.length flows)
  |> Seq.filter dense
  |> Seq.fold_left
       (fun best vector ->
         let candidate =
           List.map2
             (fun f level -> reprioritize f classes.(level))
             flows vector
         in
         match Gmf_exec.run ~f:analyze candidate with
         | Ok report when Holistic.is_schedulable report -> begin
             let bound = worst_bound report in
             match best with
             | Some (_, best_bound) when best_bound <= bound -> best
             | _ -> Some (candidate, bound)
           end
         | Ok _ | Error _ -> best)
       None
