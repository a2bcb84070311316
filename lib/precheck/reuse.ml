module Ids = Hashtbl.Make (struct
  type t = Traffic.Flow.id list

  let equal = List.equal Int.equal

  (* Over the whole list: [Hashtbl.hash] reads only its first cells, and
     the components of a sweep's cases often share their smallest ids. *)
  let hash ids =
    List.fold_left (fun h id -> (h * 65599) + id) 0 ids land max_int
end)

(* A value with everything it was computed from: the member records, the
   topology, the config and the switch models along the members' routes.
   Never the scenario, which would keep every flow of the run alive. *)
type 'a entry = {
  members : Traffic.Flow.t list;
  topo : Network.Topology.t;
  config : Analysis_config.t;
  models : Click.Switch_model.t list;
  value : 'a;
  mutable seen : int;  (* the epoch that last read or wrote it *)
}

(* Every entry of a member-id set, newest first: the cases of a sweep
   can meet one set with different records (a tile rerouted one way
   alone and another way next to a second failure). *)
type 'a t = { entries : 'a entry list Ids.t; mutable epoch : int }

let create () = { entries = Ids.create 16; epoch = 0 }
let length t = Ids.fold (fun _ es n -> n + List.length es) t.entries 0

let ids members =
  List.map (fun (f : Traffic.Flow.t) -> f.Traffic.Flow.id) members

let entries t ids = Option.value ~default:[] (Ids.find_opt t.entries ids)

let route_models scenario members =
  List.concat_map
    (fun (f : Traffic.Flow.t) ->
      List.map
        (Traffic.Scenario.switch_model scenario)
        (Network.Route.intermediate_switches f.Traffic.Flow.route))
    members

let find t ~config scenario members =
  let topo = Traffic.Scenario.topo scenario in
  let models = lazy (route_models scenario members) in
  let fits e =
    e.topo == topo
    && List.equal ( == ) e.members members
    && e.config = config
    && List.equal ( = ) e.models (Lazy.force models)
  in
  match List.find_opt fits (entries t (ids members)) with
  | Some e ->
      e.seen <- t.epoch;
      Some e.value
  | None -> None

let add t ~config scenario members value =
  let key = ids members in
  let e =
    { members; topo = Traffic.Scenario.topo scenario; config;
      models = route_models scenario members; value; seen = t.epoch }
  in
  Ids.replace t.entries key (e :: entries t key)

let keep_latest t =
  Ids.filter_map_inplace
    (fun _ es ->
      match List.filter (fun e -> e.seen = t.epoch) es with
      | [] -> None
      | kept -> Some kept)
    t.entries;
  t.epoch <- t.epoch + 1
