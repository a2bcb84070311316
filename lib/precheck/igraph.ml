type component = { cid : int; members : Traffic.Flow.t list }

type stats = { flows : int; components : int; largest : int; singletons : int }

type t = {
  comps : component array;
  cid_of_node : int array;  (* node -> cid, -1 off every route *)
  graph_stats : stats;
}

(* Union-find over node ids, with path halving. *)
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

let route_nodes (f : Traffic.Flow.t) = Network.Route.nodes f.Traffic.Flow.route

let build flows =
  let flows = Array.of_list flows in
  let max_node =
    Array.fold_left
      (fun acc f -> List.fold_left max acc (route_nodes f))
      (-1) flows
  in
  (* Every route's nodes join one class: two flows share a class iff a
     chain of routes, each meeting the next at a node, links them. *)
  let parent = Array.init (max_node + 1) Fun.id in
  Array.iter
    (fun f ->
      let nodes = route_nodes f in
      List.iter (union parent (List.hd nodes)) nodes)
    flows;
  (* Classes numbered in order of their first member. *)
  let slot = Array.make (max_node + 1) (-1) and count = ref 0 in
  let cid_of_flow = Array.make (Array.length flows) 0 in
  Array.iteri
    (fun i f ->
      let r = find parent (List.hd (route_nodes f)) in
      if slot.(r) < 0 then begin
        slot.(r) <- !count;
        incr count
      end;
      cid_of_flow.(i) <- slot.(r))
    flows;
  let members = Array.make !count [] in
  for i = Array.length flows - 1 downto 0 do
    let cid = cid_of_flow.(i) in
    members.(cid) <- flows.(i) :: members.(cid)
  done;
  let comps = Array.mapi (fun cid members -> { cid; members }) members in
  let sizes = Array.map List.length members in
  {
    comps;
    cid_of_node = Array.init (max_node + 1) (fun n -> slot.(find parent n));
    graph_stats =
      {
        flows = Array.length flows;
        components = !count;
        largest = Array.fold_left max 0 sizes;
        singletons =
          Array.fold_left (fun acc s -> if s = 1 then acc + 1 else acc) 0 sizes;
      };
  }

let components t = Array.to_list t.comps

let node_component t node =
  if node < 0 || node >= Array.length t.cid_of_node then None
  else
    let cid = t.cid_of_node.(node) in
    if cid < 0 then None else Some t.comps.(cid)

let stats t = t.graph_stats

(* Members meeting at a node are pairwise adjacent; distinct pairs are
   counted once even when routes share several nodes.  Consecutive nodes
   of a shared path carry the same member list, so identical lists are
   enumerated once; pair keys are packed into one int. *)
let component_edges c =
  let members = Array.of_list c.members in
  let m = Array.length members in
  if m < 2 then 0
  else begin
    let by_node = Hashtbl.create 64 in
    Array.iteri
      (fun i f ->
        List.iter
          (fun node ->
            Hashtbl.replace by_node node
              (i :: Option.value ~default:[] (Hashtbl.find_opt by_node node)))
          (route_nodes f))
      members;
    let edge_set = Hashtbl.create 64 and seen_sets = Hashtbl.create 64 in
    Hashtbl.iter
      (fun _node at ->
        match at with
        | [] | [ _ ] -> ()
        | _ ->
            if not (Hashtbl.mem seen_sets at) then begin
              Hashtbl.replace seen_sets at ();
              let rec pairs = function
                | [] -> ()
                | i :: tl ->
                    List.iter
                      (fun j ->
                        Hashtbl.replace edge_set ((min i j * m) + max i j) ())
                      tl;
                    pairs tl
              in
              pairs at
            end)
      by_node;
    Hashtbl.length edge_set
  end

let edges comps = List.fold_left (fun acc c -> acc + component_edges c) 0 comps

let density s ~edges =
  if s.flows < 2 then 0.
  else float_of_int edges /. (float_of_int (s.flows * (s.flows - 1)) /. 2.)

let pp_stats ~edges fmt s =
  Format.fprintf fmt
    "%d flows, %d edges, %d components (largest %d, %d singletons), density \
     %.3f"
    s.flows edges s.components s.largest s.singletons (density s ~edges)
