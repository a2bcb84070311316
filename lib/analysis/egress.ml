let outgoing_link flow node =
  let route = flow.Traffic.Flow.route in
  if not (Network.Route.mem route node) then
    invalid_arg "Egress.analyze: node not on the flow's route";
  (node, Network.Route.succ route node)

let analyze ctx ~flow ~node ~frame =
  if frame < 0 || frame >= Traffic.Flow.n flow then
    invalid_arg "Egress.analyze: frame index out of range";
  let n, d = outgoing_link flow node in
  let stage = Stage.Egress (n, d) in
  let scenario = Ctx.scenario ctx in
  let circ = Traffic.Scenario.circ scenario n in
  let own = Ctx.params ctx flow ~src:n ~dst:d in
  let c_k = own.Traffic.Link_params.c.(frame) in
  let m_k = own.Traffic.Link_params.eth_frames.(frame) in
  let csum_i = Traffic.Link_params.csum own in
  let nsum_i = Traffic.Link_params.nsum own in
  let tsum_i = Traffic.Flow.tsum flow in
  let mft = Traffic.Link_params.mft own in
  let prop = own.Traffic.Link_params.link.Network.Link.prop in
  (* The analyzed flow heads the busy-period set; the window set is the
     rest.  Combined link-time + task-rotation interference over an
     interval: the MX and NX * CIRC terms of eqs (29)/(31). *)
  let self = Ctx.node ctx flow ~stage in
  let interference ~others dt =
    Ctx.charge ctx self ~others (fun j ->
        Ctx.mx_of ctx j ~dt + (Ctx.nx_of j ~dt * circ))
  in
  let periods = Gmf.Spec.periods flow.Traffic.Flow.spec in
  let pre_c l = Stage_common.window_before own.Traffic.Link_params.c ~k:frame ~len:l in
  let pre_m l =
    Stage_common.window_before own.Traffic.Link_params.eth_frames ~k:frame
      ~len:l
  in
  let pre_t l = Stage_common.window_before periods ~k:frame ~len:l in
  let own_rotations q l =
    match (Ctx.config ctx).Config.variant with
    | Config.Faithful -> 0
    | Config.Repaired -> ((q * nsum_i) + pre_m l + m_k) * circ
  in
  (* Own predecessor transmissions (repair R8) join the q whole cycles. *)
  let own_work q l = (q * csum_i) + pre_c l in
  Stage_common.run ~ctx ~stage ~flow ~frame ~busy_seed:mft
    ~busy_step:(fun t -> mft + interference ~others:false t)
    ~w_base:(fun ~q ~l -> mft + own_work q l + own_rotations q l)
    ~w_step:(fun ~q ~l w ->
      mft + own_work q l + own_rotations q l + interference ~others:true w)
    ~finish:(fun ~q ~l ~w -> w - ((q * tsum_i) + pre_t l) + c_k + prop)

let utilization_condition ctx ~flow ~node =
  let n, _ = outgoing_link flow node in
  Gmf_precheck.Static_tests.egress_utilization (Ctx.scenario ctx) flow
    ~node:n
