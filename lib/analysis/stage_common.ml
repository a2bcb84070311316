module Eq = Gmf_precheck.Stage_eq

(* Per-stage-kind convergence histograms and span names: the profile
   subcommand reports where fixpoint iterations are spent across the three
   stage analyses.  Constant names keep the disabled tracer path
   allocation-free. *)
type kind_obs = { span : string; iters : Gmf_obs.Metrics.histogram }

let kind_obs name =
  {
    span = "stage." ^ name;
    iters =
      Gmf_obs.Metrics.histogram Gmf_obs.Metrics.default
        ("fixpoint.iters." ^ name);
  }

let obs_first_link = kind_obs "first_link"
let obs_ingress = kind_obs "ingress"
let obs_egress = kind_obs "egress"

let obs_of = function
  | Stage.First_link _ -> obs_first_link
  | Stage.Ingress _ -> obs_ingress
  | Stage.Egress _ -> obs_egress

let evaluate ctx self (d : Eq.t) iters =
  let cfg = Ctx.config ctx in
  let stage = d.Eq.stage and frame = d.Eq.frame in
  let fail reason =
    Error
      {
        Result_types.flow_id = (Ctx.node_flow self).Traffic.Flow.id;
        frame;
        failed_stage = Some stage;
        reason;
      }
  in
  let fixed ~f ~seed =
    let outcome =
      Fixpoint.iterate ~f ~seed ~max_iters:cfg.Config.max_busy_iters
        ~horizon:cfg.Config.horizon
    in
    (match outcome with
    | Fixpoint.Converged { iters = n; _ } -> Gmf_obs.Metrics.observe iters n
    | Fixpoint.Diverged _ -> ());
    outcome
  in
  (* The interferer charge, chosen once per evaluation so the w-iteration
     neither matches on the stage nor allocates. *)
  let charge =
    let circ = d.Eq.circ in
    match d.Eq.charge with
    | Eq.Link_time -> fun j dt -> Ctx.mx_of ctx j ~dt
    | Eq.Rotations -> fun j dt -> Ctx.nx_of j ~dt * circ
    | Eq.Link_time_and_rotations ->
        fun j dt -> Ctx.mx_of ctx j ~dt + (Ctx.nx_of j ~dt * circ)
  in
  let busy_const = d.Eq.busy_const in
  match
    fixed
      ~f:(fun t -> busy_const + Ctx.charge ctx self ~others:false charge t)
      ~seed:d.Eq.busy_seed
  with
  | Fixpoint.Diverged msg -> fail ("busy period: " ^ msg)
  | Fixpoint.Converged { value = busy_len; _ } ->
      let q_count = max 1 (Gmf_util.Timeunit.cdiv busy_len d.Eq.tsum) in
      let l_count = d.Eq.l_count in
      if q_count > cfg.Config.max_q then
        fail
          (Printf.sprintf "Q=%d exceeds the configured cap %d" q_count
             cfg.Config.max_q)
      else begin
        (* Scan every candidate busy-period shape: q whole own cycles plus
           l own predecessor frames ahead of the analyzed instance.  The
           stage bound is the worst response among them; the winning shape
           (q, l) and its converged window w are kept as a witness so the
           explain layer can re-derive every term of the bound. *)
        let rec scan q l best =
          if q >= q_count then
            let best_r, w_q, w_l, w_last = best in
            Ok
              {
                Result_types.stage;
                response = best_r;
                busy_len;
                q_count;
                w_q;
                w_l;
                w_last;
              }
          else if l >= l_count then scan (q + 1) 0 best
          else
            let base = Eq.window_base d ~q ~l in
            match
              fixed
                ~f:(fun w -> base + Ctx.charge ctx self ~others:true charge w)
                ~seed:base
            with
            | Fixpoint.Diverged msg ->
                fail (Printf.sprintf "w(q=%d,l=%d): %s" q l msg)
            | Fixpoint.Converged { value = w; _ } ->
                let r = Eq.response d ~q ~l ~w in
                let best_r, _, _, _ = best in
                scan q (l + 1) (if r > best_r then (r, q, l, w) else best)
        in
        scan 0 0 (min_int, 0, 0, 0)
      end

let analyze ctx self ~frame =
  let d = Ctx.describe ctx self ~frame in
  let obs = obs_of d.Eq.stage in
  Gmf_obs.Tracer.with_span Gmf_obs.Tracer.default ~cat:"analysis" obs.span
    (fun () -> evaluate ctx self d obs.iters)
