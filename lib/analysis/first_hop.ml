let check_frame flow frame =
  if frame < 0 || frame >= Traffic.Flow.n flow then
    invalid_arg "First_hop.analyze: frame index out of range"

let link_of flow =
  let route = flow.Traffic.Flow.route in
  let s = Network.Route.source route in
  (s, Network.Route.succ route s)

let analyze ctx ~flow ~frame =
  check_frame flow frame;
  let s, d = link_of flow in
  let stage = Stage.First_link (s, d) in
  let own = Ctx.params ctx flow ~src:s ~dst:d in
  let c_k = own.Traffic.Link_params.c.(frame) in
  let csum_i = Traffic.Link_params.csum own in
  let tsum_i = Traffic.Flow.tsum flow in
  let prop = own.Traffic.Link_params.link.Network.Link.prop in
  let periods = Gmf.Spec.periods flow.Traffic.Flow.spec in
  (* Every interfering flow's jitter on this link; the first link of flow i
     is the first link of every flow sharing it (endhosts do not relay). *)
  let self = Ctx.node ctx flow ~stage in
  let interference ~others dt =
    Ctx.charge ctx self ~others (fun j -> Ctx.mx_of ctx j ~dt)
  in
  (* Own demand (in link time) of the l predecessors of frame k, and the
     minimum time by which they precede it (repair R8). *)
  let pre_c l = Stage_common.window_before own.Traffic.Link_params.c ~k:frame ~len:l in
  let pre_t l = Stage_common.window_before periods ~k:frame ~len:l in
  Stage_common.run ~ctx ~stage ~flow ~frame ~busy_seed:c_k
    ~busy_step:(fun t -> interference ~others:false t)
    ~w_base:(fun ~q ~l -> (q * csum_i) + pre_c l)
    ~w_step:(fun ~q ~l w -> (q * csum_i) + pre_c l + interference ~others:true w)
    ~finish:(fun ~q ~l ~w -> w - ((q * tsum_i) + pre_t l) + c_k + prop)

let utilization_condition ctx ~flow =
  let s, d = link_of flow in
  Gmf_precheck.Static_tests.link_utilization (Ctx.scenario ctx) ~src:s ~dst:d
