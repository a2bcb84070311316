(* Test-side reference for [Gmf_precheck.Igraph]: the node-sharing graph
   written out directly, with no union-find and no node table.

   Two records are adjacent when their route node sets intersect,
   compared pair by pair; the components are a breadth-first search
   over that adjacency.  Records are identified by their position in the
   given list, so two versions of one id are two vertices. *)

type t = {
  components : int list list;
      (* Positions, components in order of their first position,
         positions ascending. *)
  edges : int;  (* Adjacent pairs. *)
  node_component : Network.Node.id -> int option;
      (* Index into [components] of the component whose routes hold the
         node. *)
}

let build (flows : Traffic.Flow.t list) =
  let routes =
    Array.of_list
      (List.map
         (fun (f : Traffic.Flow.t) -> Network.Route.nodes f.Traffic.Flow.route)
         flows)
  in
  let n = Array.length routes in
  let adjacent i j =
    i <> j && List.exists (fun node -> List.mem node routes.(j)) routes.(i)
  in
  let edges = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if adjacent i j then incr edges
    done
  done;
  let comp = Array.make n (-1) and components = ref [] in
  for start = 0 to n - 1 do
    if comp.(start) < 0 then begin
      let cid = List.length !components in
      let queue = Queue.create () and members = ref [] in
      comp.(start) <- cid;
      Queue.add start queue;
      while not (Queue.is_empty queue) do
        let i = Queue.pop queue in
        members := i :: !members;
        for j = 0 to n - 1 do
          if comp.(j) < 0 && adjacent i j then begin
            comp.(j) <- cid;
            Queue.add j queue
          end
        done
      done;
      components := List.sort compare !members :: !components
    end
  done;
  let node_component node =
    let rec go i =
      if i >= n then None
      else if List.mem node routes.(i) then Some comp.(i)
      else go (i + 1)
    in
    go 0
  in
  { components = List.rev !components; edges = !edges; node_component }
