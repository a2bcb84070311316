type charge = Link_time | Rotations | Link_time_and_rotations

type cost = {
  per_cycle : Gmf_util.Timeunit.ns;
  per_frame : int array;
  scale : int;
  const : Gmf_util.Timeunit.ns;
}

type t = {
  stage : Stage_key.t;
  frame : int;
  src : Network.Node.id;
  dst : Network.Node.id;
  charge : charge;
  circ : Gmf_util.Timeunit.ns;
  busy_seed : Gmf_util.Timeunit.ns;
  busy_const : Gmf_util.Timeunit.ns;
  blocking : Gmf_util.Timeunit.ns;
  rotations : cost;
  work : cost;
  transmission : Gmf_util.Timeunit.ns;
  final_rotation : Gmf_util.Timeunit.ns;
  uncontended : Gmf_util.Timeunit.ns;
  l_count : int;
  tsum : Gmf_util.Timeunit.ns;
  periods : int array;
}

(* The index before [j] in a cyclic array of [n] entries. *)
let cyclic_pred n j = if j = 0 then n - 1 else j - 1

let window_before arr ~k ~len =
  let n = Array.length arr in
  (* Walk backwards from k - 1, wrapping below 0: no division per entry. *)
  let j = ref (if len <= 0 then 0 else ((((k - 1) mod n) + n) mod n)) in
  let acc = ref 0 in
  for _ = 1 to len do
    acc := !acc + arr.(!j);
    j := cyclic_pred n !j
  done;
  !acc

(* [window_before arr ~k ~len] for every [len] below [count], from one
   walk: each sum extends the previous one by the next entry back. *)
let windows_before arr ~k ~count =
  let n = Array.length arr in
  let sums = Array.make count 0 in
  let j = ref ((((k - 1) mod n) + n) mod n) in
  for len = 1 to count - 1 do
    sums.(len) <- sums.(len - 1) + arr.(!j);
    j := cyclic_pred n !j
  done;
  sums

let link_of (flow : Traffic.Flow.t) = function
  | Stage_key.First_link (s, d) | Stage_key.Egress (s, d) -> (s, d)
  | Stage_key.Ingress n -> (Network.Route.prec flow.Traffic.Flow.route n, n)

let busy_set scenario (flow : Traffic.Flow.t) = function
  | Stage_key.Egress (n, _) ->
      flow :: Traffic.Scenario.hep scenario flow ~node:n
  | stage ->
      let src, dst = link_of flow stage in
      Traffic.Scenario.flows_on scenario ~src ~dst

let interferers scenario (flow : Traffic.Flow.t) stage =
  busy_set scenario flow stage
  |> List.filter (fun (j : Traffic.Flow.t) ->
         j.Traffic.Flow.id <> flow.Traffic.Flow.id)

(* The uncontended floors: a link stage transmits the frame, an ingress
   stage spends one CROUTE per Ethernet frame of it. *)
let link_floor (own : Traffic.Link_params.t) ~frame =
  own.Traffic.Link_params.c.(frame)
  + own.Traffic.Link_params.link.Network.Link.prop

let ingress_floor (own : Traffic.Link_params.t) model ~frame =
  own.Traffic.Link_params.eth_frames.(frame) * model.Click.Switch_model.croute

let uncontended scenario (flow : Traffic.Flow.t) ~frame stage =
  let src, dst = link_of flow stage in
  let own = Traffic.Scenario.params scenario flow ~src ~dst in
  match stage with
  | Stage_key.First_link _ | Stage_key.Egress _ -> link_floor own ~frame
  | Stage_key.Ingress n ->
      ingress_floor own (Traffic.Scenario.switch_model scenario n) ~frame

let no_cost frames = { per_cycle = 0; per_frame = frames; scale = 0; const = 0 }

(* The paper's per-frame analysis assumes every busy period begins with a
   release of the analyzed frame k itself (eqs 16/23/30 charge only whole
   prior cycles, q * CSUM).  That is unsound when earlier frames of the
   same flow can still be in service at frame k's release — e.g. the
   Figure 3 stream on a 10 Mbit/s link, where the I+P packet's 36.6 ms
   transmission exceeds its 30 ms period, so the following B packet always
   queues behind it (observed by the simulator, experiment E18).

   Repair R8 (DESIGN.md): under [Repaired] the scan maximizes over busy
   periods starting [l] own frames before frame k (l = 0..n_i - 1); the
   own-work charge grows by the l predecessors' demand while the
   separation grows only by their minimum separations.  [Faithful] keeps
   the paper's l = 0.

   Repair R2: under [Repaired] the software stages charge the flow's own
   Ethernet frames one rotation each, where the paper charges one
   rotation per cycle at ingress (eqs 23-24) and none at egress. *)
let make ~config scenario (flow : Traffic.Flow.t) stage =
  (match stage with
  | Stage_key.First_link _ -> ()
  | Stage_key.Ingress n | Stage_key.Egress (n, _) ->
      if not (Network.Route.mem flow.Traffic.Flow.route n) then
        invalid_arg "Stage_eq.make: node not on the flow's route");
  let repaired = config.Analysis_config.variant = Analysis_config.Repaired in
  let src, dst = link_of flow stage in
  let own = Traffic.Scenario.params scenario flow ~src ~dst in
  let c = own.Traffic.Link_params.c
  and eth = own.Traffic.Link_params.eth_frames in
  let link_work =
    { per_cycle = Traffic.Link_params.csum own; per_frame = c; scale = 1;
      const = 0 }
  in
  let n_frames = Traffic.Flow.n flow in
  let l_count = if repaired then n_frames else 1 in
  let tsum = Traffic.Flow.tsum flow in
  let periods = Gmf.Spec.periods flow.Traffic.Flow.spec in
  let check frame =
    if frame < 0 || frame >= n_frames then
      invalid_arg "Stage_eq.make: frame index out of range"
  in
  match stage with
  | Stage_key.First_link _ ->
      (* Eqs 14-19: a work-conserving source queue; every flow on the link
         interferes regardless of priority. *)
      fun ~frame ->
        check frame;
        let transmission = link_floor own ~frame in
        {
          stage; frame; src; dst; charge = Link_time; circ = 0;
          busy_seed = c.(frame); busy_const = 0; blocking = 0;
          rotations = no_cost eth; work = link_work;
          transmission; final_rotation = 0; uncontended = transmission;
          l_count; tsum; periods;
        }
  | Stage_key.Ingress n ->
      (* Eqs 21-26: the priority-blind NIC FIFO, served one Ethernet frame
         per task rotation. *)
      let model = Traffic.Scenario.switch_model scenario n in
      let circ = Click.Switch_model.circ model in
      let nsum_circ = Traffic.Link_params.nsum own * circ in
      fun ~frame ->
        check frame;
        let m_k = eth.(frame) in
        let work =
          if repaired then
            { per_cycle = nsum_circ; per_frame = eth; scale = circ;
              const = (m_k - 1) * circ }
          else { (no_cost eth) with per_cycle = circ }
        in
        {
          stage; frame; src; dst; charge = Rotations; circ;
          busy_seed = (if repaired then m_k * circ else circ);
          busy_const = 0; blocking = 0; rotations = no_cost eth; work;
          transmission = 0; final_rotation = circ;
          uncontended = ingress_floor own model ~frame;
          l_count; tsum; periods;
        }
  | Stage_key.Egress (n, _) ->
      (* Eqs 28-33: the static-priority output queue behind one blocking
         lower-priority frame, each frame also waiting for a send-task
         rotation. *)
      let circ = Traffic.Scenario.circ scenario n in
      let nsum_circ = Traffic.Link_params.nsum own * circ in
      let mft = Traffic.Link_params.mft own in
      fun ~frame ->
        check frame;
        let rotations =
          if repaired then
            { per_cycle = nsum_circ; per_frame = eth; scale = circ;
              const = eth.(frame) * circ }
          else no_cost eth
        in
        let transmission = link_floor own ~frame in
        {
          stage; frame; src; dst; charge = Link_time_and_rotations; circ;
          busy_seed = mft; busy_const = mft; blocking = mft; rotations;
          work = link_work; transmission; final_rotation = 0;
          uncontended = transmission; l_count; tsum; periods;
        }

let charge d ~mx ~nx j =
  match d.charge with
  | Link_time -> mx j
  | Rotations -> nx j * d.circ
  | Link_time_and_rotations -> mx j + (nx j * d.circ)

let charge_parts d ~mx ~nx =
  match d.charge with
  | Link_time -> (mx, 0)
  | Rotations -> (0, nx * d.circ)
  | Link_time_and_rotations -> (mx, nx * d.circ)

let cycle_charge d =
  charge d ~mx:Traffic.Link_params.csum ~nx:Traffic.Link_params.nsum

let predecessors c ~frame ~l =
  if c.scale = 0 then 0 else c.scale * window_before c.per_frame ~k:frame ~len:l

let cost_at c ~frame ~q ~l =
  (q * c.per_cycle) + predecessors c ~frame ~l + c.const

let own_work d ~q ~l = cost_at d.work ~frame:d.frame ~q ~l
let own_rotations d ~q ~l = cost_at d.rotations ~frame:d.frame ~q ~l
let window_base d ~q ~l = d.blocking + own_rotations d ~q ~l + own_work d ~q ~l
let own_per_cycle d = d.work.per_cycle + d.rotations.per_cycle

let carry_in d =
  let count = d.l_count in
  let scaled c =
    if c.scale = 0 then Array.make count 0
    else
      Array.map (( * ) c.scale) (windows_before c.per_frame ~k:d.frame ~count)
  in
  ( Array.map2 ( + ) (scaled d.work) (scaled d.rotations),
    windows_before d.periods ~k:d.frame ~count )

let separation d ~q ~l =
  (q * d.tsum) + window_before d.periods ~k:d.frame ~len:l

let tail d = d.transmission + d.final_rotation
let response d ~q ~l ~w = w - separation d ~q ~l + tail d
