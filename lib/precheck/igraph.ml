type component = { cid : int; flow_ids : Traffic.Flow.id list }

type stats = {
  flows : int;
  edges : int;
  components : int;
  largest : int;
  singletons : int;
  density : float;
}

type t = { comps : component list; graph_stats : stats }

(* Union-find over flow array indices, with path halving. *)
let rec find parent i =
  let p = parent.(i) in
  if p = i then i
  else begin
    parent.(i) <- parent.(p);
    find parent parent.(i)
  end

let union parent a b =
  let ra = find parent a and rb = find parent b in
  if ra <> rb then parent.(ra) <- rb

(* Route node -> indices of the [flows] crossing it, and a union-find
   over those indices in which flows meeting at a node are joined. *)
let join flows =
  let parent = Array.init (Array.length flows) Fun.id in
  let by_node : (Network.Node.id, int list) Hashtbl.t = Hashtbl.create 64 in
  Array.iteri
    (fun i f ->
      List.iter
        (fun node ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt by_node node) in
          Hashtbl.replace by_node node (i :: prev))
        (Network.Route.nodes f.Traffic.Flow.route))
    flows;
  Hashtbl.iter
    (fun _node members ->
      match members with
      | [] -> ()
      | first :: rest -> List.iter (fun i -> union parent first i) rest)
    by_node;
  (by_node, parent)

(* The members of each union-find class, classes in order of their first
   member in [flows], members in [flows] order. *)
let classes flows parent =
  let slot = Hashtbl.create 16 and acc = ref [] in
  Array.iteri
    (fun i f ->
      let r = find parent i in
      match Hashtbl.find_opt slot r with
      | Some members -> members := f :: !members
      | None ->
          let members = ref [ f ] in
          Hashtbl.replace slot r members;
          acc := members :: !acc)
    flows;
  List.rev_map (fun members -> List.rev !members) !acc

let groups flows =
  let flows = Array.of_list flows in
  classes flows (snd (join flows))

let build scenario =
  let flows = Array.of_list (Traffic.Scenario.flows scenario) in
  let nf = Array.length flows in
  let by_node, parent = join flows in
  (* Flows meeting at a node are pairwise adjacent; distinct pairs are
     counted once even when routes share several nodes.  Consecutive nodes
     of a shared path carry the same member list, so identical lists are
     enumerated once; pair keys are packed into one int. *)
  let edge_set = Hashtbl.create 64 in
  let seen_sets = Hashtbl.create 64 in
  Hashtbl.iter
    (fun _node members ->
      match members with
      | [] | [ _ ] -> ()
      | _ ->
          if not (Hashtbl.mem seen_sets members) then begin
            Hashtbl.replace seen_sets members ();
            let rec pairs = function
              | [] -> ()
              | i :: tl ->
                  List.iter
                    (fun j ->
                      Hashtbl.replace edge_set ((min i j * nf) + max i j) ())
                    tl;
                  pairs tl
            in
            pairs members
          end)
    by_node;
  let comps =
    classes flows parent
    |> List.map (fun members ->
           List.sort compare
             (List.map (fun (f : Traffic.Flow.t) -> f.Traffic.Flow.id) members))
    |> List.sort (fun a b -> compare (List.hd a) (List.hd b))
    |> List.mapi (fun cid flow_ids -> { cid; flow_ids })
  in
  let largest =
    List.fold_left (fun acc c -> max acc (List.length c.flow_ids)) 0 comps
  in
  let singletons =
    List.length (List.filter (fun c -> List.length c.flow_ids = 1) comps)
  in
  let edges = Hashtbl.length edge_set in
  let density =
    if nf < 2 then 0.
    else float_of_int edges /. (float_of_int (nf * (nf - 1)) /. 2.)
  in
  {
    comps;
    graph_stats =
      {
        flows = nf;
        edges;
        components = List.length comps;
        largest;
        singletons;
        density;
      };
  }

let components t = t.comps

let stats t = t.graph_stats

let pp_stats fmt s =
  Format.fprintf fmt
    "%d flows, %d edges, %d components (largest %d, %d singletons), density \
     %.3f"
    s.flows s.edges s.components s.largest s.singletons s.density
