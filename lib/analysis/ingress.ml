let incoming_link flow node =
  let route = flow.Traffic.Flow.route in
  if not (Network.Route.mem route node) then
    invalid_arg "Ingress.analyze: node not on the flow's route";
  (Network.Route.prec route node, node)

let analyze ctx ~flow ~node ~frame =
  if frame < 0 || frame >= Traffic.Flow.n flow then
    invalid_arg "Ingress.analyze: frame index out of range";
  let p, n = incoming_link flow node in
  let stage = Stage.Ingress n in
  let scenario = Ctx.scenario ctx in
  let circ = Traffic.Scenario.circ scenario n in
  let own = Ctx.params ctx flow ~src:p ~dst:n in
  let m_k = own.Traffic.Link_params.eth_frames.(frame) in
  let nsum_i = Traffic.Link_params.nsum own in
  let tsum_i = Traffic.Flow.tsum flow in
  let self = Ctx.node ctx flow ~stage in
  let interference ~others dt =
    Ctx.charge ctx self ~others (fun j -> Ctx.nx_of j ~dt)
  in
  let variant = (Ctx.config ctx).Config.variant in
  let periods = Gmf.Spec.periods flow.Traffic.Flow.spec in
  let pre_m l =
    Stage_common.window_before own.Traffic.Link_params.eth_frames ~k:frame
      ~len:l
  in
  let pre_t l = Stage_common.window_before periods ~k:frame ~len:l in
  let own_charge q l =
    (* Task rotations consumed by the analyzed flow itself before its last
       Ethernet frame is enqueued: the paper (eqs 23-24) charges one per
       cycle; the Repaired variant charges one per own Ethernet frame,
       including those of the l predecessor frames (repair R8). *)
    match variant with
    | Config.Faithful -> q * circ
    | Config.Repaired -> ((q * nsum_i) + pre_m l + (m_k - 1)) * circ
  in
  let busy_seed =
    match variant with
    | Config.Faithful -> circ
    | Config.Repaired -> m_k * circ
  in
  Stage_common.run ~ctx ~stage ~flow ~frame ~busy_seed
    ~busy_step:(fun t -> interference ~others:false t * circ)
    ~w_base:(fun ~q ~l -> own_charge q l)
    ~w_step:(fun ~q ~l w -> own_charge q l + (interference ~others:true w * circ))
    ~finish:(fun ~q ~l ~w -> w - ((q * tsum_i) + pre_t l) + circ)

let utilization_condition ctx ~flow ~node =
  let p, n = incoming_link flow node in
  Gmf_precheck.Static_tests.ingress_utilization (Ctx.scenario ctx) ~src:p
    ~node:n
