(* Test-side reference for [Analysis.Priority_assign.best_exhaustive]:
   the search that analyzes every one of the [levels]^n class vectors
   and keeps the first strict minimum of the worst-frame bound.  The
   library analyzes only the dense vector of each priority order; this
   oracle analyzes them all.  The helpers are copies of the library's
   private ones. *)

let reprioritize flow priority =
  Traffic.Flow.make ~id:flow.Traffic.Flow.id ~name:flow.Traffic.Flow.name
    ~spec:flow.Traffic.Flow.spec ~encap:flow.Traffic.Flow.encap
    ~route:flow.Traffic.Flow.route ~priority

let class_of_level ~levels level =
  if levels = 1 then 0 else level * 7 / (levels - 1)

let worst_bound report =
  List.fold_left
    (fun acc res ->
      max acc
        (Analysis.Result_types.worst_frame res).Analysis.Result_types.total)
    0 report.Analysis.Holistic.results

let best_exhaustive ?config ?(levels = 8) scenario =
  if levels < 1 || levels > 8 then
    invalid_arg "Priority_assign.best_exhaustive: levels outside 1..8";
  let flows = Array.of_list (Traffic.Scenario.flows scenario) in
  let n = Array.length flows in
  let classes = Array.init levels (fun l -> class_of_level ~levels l) in
  (* All [levels]^n candidate flow sets in enumeration order: position 0
     varies slowest, level 0 first — the order the old recursive search
     visited, which the fold below relies on for tie-breaking. *)
  let candidates =
    let rec enumerate i acc =
      if i = n then [ List.rev acc ]
      else
        List.concat_map
          (fun level ->
            enumerate (i + 1) (reprioritize flows.(i) classes.(level) :: acc))
          (List.init levels Fun.id)
    in
    enumerate 0 []
  in
  let analyze candidate =
    Analysis.Holistic.analyze ?config
      (Traffic.Scenario.with_flows scenario candidate)
  in
  (* Candidates are independent cases; the fold keeps the first strict
     minimum in enumeration order. *)
  let outcomes = List.map (Gmf_exec.run ~f:analyze) candidates in
  List.fold_left2
    (fun best candidate outcome ->
      match outcome with
      | Ok report when Analysis.Holistic.is_schedulable report -> begin
          let bound = worst_bound report in
          match best with
          | Some (_, best_bound) when best_bound <= bound -> best
          | _ -> Some (candidate, bound)
        end
      | Ok _ | Error _ -> best)
    None candidates outcomes
