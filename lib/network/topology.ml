type t = {
  mutable nodes : Node.t array; (* dense by id; length = capacity *)
  mutable node_count : int;
  links : (Node.id * Node.id, Link.t) Hashtbl.t;
  mutable link_order : Link.t list; (* reversed insertion order *)
  mutable out_edges : Node.id list array; (* by id, insertion order *)
  mutable in_edges : Node.id list array; (* by id, reversed insertion order *)
}

let create () =
  {
    nodes = [||];
    node_count = 0;
    links = Hashtbl.create 64;
    link_order = [];
    out_edges = [||];
    in_edges = [||];
  }

let add_node t ~name ~kind =
  let id = t.node_count in
  let node = { Node.id; name; kind } in
  let cap = Array.length t.nodes in
  if id = cap then begin
    let grow a fill =
      let grown = Array.make (max 8 (2 * cap)) fill in
      Array.blit a 0 grown 0 cap;
      grown
    in
    t.nodes <- grow t.nodes node;
    t.out_edges <- grow t.out_edges [];
    t.in_edges <- grow t.in_edges []
  end;
  t.nodes.(id) <- node;
  t.node_count <- id + 1;
  id

let check_node t id name =
  if id < 0 || id >= t.node_count then
    invalid_arg (Printf.sprintf "%s: unknown node %d" name id)

let node t id =
  check_node t id "Topology.node";
  t.nodes.(id)

let node_count t = t.node_count

let nodes t = List.init t.node_count (fun i -> t.nodes.(i))

let add_link t ~src ~dst ~rate_bps ~prop =
  check_node t src "Topology.add_link";
  check_node t dst "Topology.add_link";
  if Hashtbl.mem t.links (src, dst) then
    invalid_arg
      (Printf.sprintf "Topology.add_link: duplicate link %d->%d" src dst);
  let link = Link.make ~src ~dst ~rate_bps ~prop in
  Hashtbl.replace t.links (src, dst) link;
  t.link_order <- link :: t.link_order;
  (* Appended, so [out_neighbors] hands the stored list out as it is. *)
  t.out_edges.(src) <- t.out_edges.(src) @ [ dst ];
  t.in_edges.(dst) <- src :: t.in_edges.(dst)

let add_duplex_link t ~a ~b ~rate_bps ~prop =
  add_link t ~src:a ~dst:b ~rate_bps ~prop;
  add_link t ~src:b ~dst:a ~rate_bps ~prop

let find_link t ~src ~dst = Hashtbl.find_opt t.links (src, dst)

let link_exn t ~src ~dst =
  match find_link t ~src ~dst with
  | Some l -> l
  | None ->
      invalid_arg (Printf.sprintf "Topology.link_exn: no link %d->%d" src dst)

let links t = List.rev t.link_order

let out_neighbors t id =
  check_node t id "Topology.out_neighbors";
  t.out_edges.(id)

let in_neighbors t id =
  check_node t id "Topology.in_neighbors";
  t.in_edges.(id)

let degree t id = List.length (out_neighbors t id)

let shortest_path t ~src ~dst =
  check_node t src "Topology.shortest_path";
  check_node t dst "Topology.shortest_path";
  (* BFS where only switches may be traversed; source and destination are
     exempt from the switch requirement. *)
  let parent = Array.make t.node_count (-1) in
  let visited = Array.make t.node_count false in
  visited.(src) <- true;
  let queue = Queue.create () in
  Queue.add src queue;
  let found = ref false in
  while (not !found) && not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    let expandable = u = src || Node.is_switch t.nodes.(u) in
    if expandable then
      List.iter
        (fun v ->
          if not visited.(v) then begin
            visited.(v) <- true;
            parent.(v) <- u;
            if v = dst then found := true else Queue.add v queue
          end)
        (out_neighbors t u)
  done;
  if not !found && src <> dst then None
  else begin
    let rec build v acc =
      if v = src then src :: acc else build parent.(v) (v :: acc)
    in
    Some (build dst [])
  end

let pp fmt t =
  Format.fprintf fmt "@[<v>topology: %d nodes, %d links@," t.node_count
    (Hashtbl.length t.links);
  List.iter (fun n -> Format.fprintf fmt "  %a@," Node.pp n) (nodes t);
  List.iter (fun l -> Format.fprintf fmt "  %a@," Link.pp l) (links t);
  Format.fprintf fmt "@]"
