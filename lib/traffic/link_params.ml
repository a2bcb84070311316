open Gmf_util

type t = {
  flow : Flow.t;
  link : Network.Link.t;
  c : Timeunit.ns array;
  eth_frames : int array;
  time_demand : Gmf.Demand.t;
  count_demand : Gmf.Demand.t;
}

let make ~flow ~link =
  let nbits = Flow.nbits_all flow in
  let c = Array.map (fun bits -> Network.Link.tx_time link ~nbits:bits) nbits in
  let mft_ns = Network.Link.mft link in
  (* Eq (5): number of Ethernet frames of GMF frame k as ceil(C / MFT). *)
  let eth_frames = Array.map (fun ci -> Timeunit.cdiv ci mft_ns) c in
  let periods = Gmf.Spec.periods flow.Flow.spec in
  {
    flow;
    link;
    c;
    eth_frames;
    time_demand = Gmf.Demand.make ~costs:c ~periods;
    count_demand = Gmf.Demand.make ~costs:eth_frames ~periods;
  }

let fits t (flow : Flow.t) =
  let g = t.flow in
  g == flow || (g.Flow.spec == flow.Flow.spec && g.Flow.encap = flow.Flow.encap)

(* C_i^k, the Ethernet-frame counts and both demand tables depend on the
   link through its rate alone (the MFT and every transmission time are
   functions of the bit rate); only [link] itself, whose propagation
   delay the tail reads, is per hop. *)
let relink t ~flow ~link =
  if not (fits t flow) then
    invalid_arg "Link_params.relink: the flow does not fit these params";
  if link.Network.Link.rate_bps <> t.link.Network.Link.rate_bps then
    invalid_arg "Link_params.relink: the link rate differs";
  { t with flow; link }

let csum t = Gmf.Demand.cost_total t.time_demand
let nsum t = Gmf.Demand.cost_total t.count_demand
let mft t = Network.Link.mft t.link

let utilization t = float_of_int (csum t) /. float_of_int (Flow.tsum t.flow)

let pp fmt t =
  Format.fprintf fmt
    "@[<hov 2>params(%s on %a): CSUM=%a NSUM=%d TSUM=%a util=%.4f@]"
    t.flow.Flow.name Network.Link.pp t.link Timeunit.pp (csum t) (nsum t)
    Timeunit.pp (Flow.tsum t.flow) (utilization t)
