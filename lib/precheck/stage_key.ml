type t =
  | First_link of Network.Node.id * Network.Node.id
  | Ingress of Network.Node.id
  | Egress of Network.Node.id * Network.Node.id

let equal a b =
  match (a, b) with
  | First_link (s, d), First_link (s', d') | Egress (s, d), Egress (s', d') ->
      s = s' && d = d'
  | Ingress n, Ingress n' -> n = n'
  | (First_link _ | Ingress _ | Egress _), _ -> false

let compare = Stdlib.compare

let stages_of_route route =
  let source = Network.Route.source route in
  let first = First_link (source, Network.Route.succ route source) in
  let per_switch n =
    [ Ingress n; Egress (n, Network.Route.succ route n) ]
  in
  first
  :: List.concat_map per_switch (Network.Route.intermediate_switches route)

let pp fmt = function
  | First_link (s, d) -> Format.fprintf fmt "first(%d->%d)" s d
  | Ingress n -> Format.fprintf fmt "in(%d)" n
  | Egress (n, d) -> Format.fprintf fmt "out(%d->%d)" n d
