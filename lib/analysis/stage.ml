(* Re-export of the shared stage vocabulary: the type moved below the
   analysis library so the static pre-analysis (Gmf_precheck) and the
   fixpoint agree on stage identity (jitter-state keys included). *)

type t = Gmf_precheck.Stage_key.t =
  | First_link of Network.Node.id * Network.Node.id
  | Ingress of Network.Node.id
  | Egress of Network.Node.id * Network.Node.id

let equal = Gmf_precheck.Stage_key.equal
let compare = Gmf_precheck.Stage_key.compare
let stages_of_route = Gmf_precheck.Stage_key.stages_of_route
let pp = Gmf_precheck.Stage_key.pp
