type 'a t = {
  scenario : Traffic.Scenario.t;
  config : Analysis_config.t;
  by_id : (Traffic.Flow.id, Traffic.Flow.t * 'a) Hashtbl.t Lazy.t;
}

let make ~config scenario results =
  let by_id =
    lazy
      (let t = Hashtbl.create (List.length results) in
       List.iter
         (fun ((f : Traffic.Flow.t), v) ->
           Hashtbl.replace t f.Traffic.Flow.id (f, v))
         results;
       t)
  in
  { scenario; config; by_id }

let find ~prev ~config scenario (f : Traffic.Flow.t) =
  let topo = Traffic.Scenario.topo and model = Traffic.Scenario.switch_model in
  match Hashtbl.find_opt (Lazy.force prev.by_id) f.Traffic.Flow.id with
  | Some (g, v)
    when g == f
         && topo prev.scenario == topo scenario
         && prev.config = config
         && List.for_all
              (fun n -> model prev.scenario n = model scenario n)
              (Network.Route.intermediate_switches f.Traffic.Flow.route) ->
      Some v
  | _ -> None
