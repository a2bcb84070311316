type t = { nodes : Node.id array }

let make topo node_list =
  let nodes = Array.of_list node_list in
  let len = Array.length nodes in
  if len < 2 then invalid_arg "Route.make: fewer than two nodes";
  let seen = Hashtbl.create len in
  Array.iter
    (fun n ->
      if Hashtbl.mem seen n then
        invalid_arg (Printf.sprintf "Route.make: node %d repeated" n);
      Hashtbl.replace seen n ())
    nodes;
  let endpoint_ok n = Node.may_terminate_flow (Topology.node topo n) in
  if not (endpoint_ok nodes.(0)) then
    invalid_arg "Route.make: source must be an endhost or router";
  if not (endpoint_ok nodes.(len - 1)) then
    invalid_arg "Route.make: destination must be an endhost or router";
  for i = 1 to len - 2 do
    if not (Node.is_switch (Topology.node topo nodes.(i))) then
      invalid_arg
        (Printf.sprintf "Route.make: intermediate node %d is not a switch"
           nodes.(i))
  done;
  for i = 0 to len - 2 do
    match Topology.find_link topo ~src:nodes.(i) ~dst:nodes.(i + 1) with
    | Some _ -> ()
    | None ->
        invalid_arg
          (Printf.sprintf "Route.make: missing link %d->%d" nodes.(i)
             nodes.(i + 1))
  done;
  { nodes }

let source t = t.nodes.(0)
let destination t = t.nodes.(Array.length t.nodes - 1)
let nodes t = Array.to_list t.nodes

let hops t =
  List.init
    (Array.length t.nodes - 1)
    (fun i -> (t.nodes.(i), t.nodes.(i + 1)))

let hop_count t = Array.length t.nodes - 1

let index_of t n =
  let rec find i =
    if i >= Array.length t.nodes then
      invalid_arg (Printf.sprintf "Route: node %d not on route" n)
    else if t.nodes.(i) = n then i
    else find (i + 1)
  in
  find 0

let succ t n =
  let i = index_of t n in
  if i = Array.length t.nodes - 1 then
    invalid_arg "Route.succ: destination has no successor";
  t.nodes.(i + 1)

let prec t n =
  let i = index_of t n in
  if i = 0 then invalid_arg "Route.prec: source has no predecessor";
  t.nodes.(i - 1)

let mem t n = Array.exists (fun x -> x = n) t.nodes

let crosses t ~links ~nodes =
  let last = Array.length t.nodes - 1 in
  let rec hop i =
    i < last && (List.mem (t.nodes.(i), t.nodes.(i + 1)) links || hop (i + 1))
  in
  hop 0 || List.exists (mem t) nodes

let intermediate_switches t =
  let len = Array.length t.nodes in
  List.init (len - 2) (fun i -> t.nodes.(i + 1))

let links t topo =
  List.map (fun (src, dst) -> Topology.link_exn topo ~src ~dst) (hops t)

let pp fmt t =
  Array.iteri
    (fun i n ->
      if i > 0 then Format.pp_print_string fmt "->";
      Format.pp_print_int fmt n)
    t.nodes
