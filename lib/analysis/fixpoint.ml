open Gmf_util

type outcome =
  | Converged of { value : Timeunit.ns; iters : int }
  | Diverged of string

(* Convergence telemetry, recorded into the process-wide registry.  With
   observability disabled (the default) each [iterate] call pays one
   load-and-branch. *)
let m_calls = Gmf_obs.Metrics.counter Gmf_obs.Metrics.default "fixpoint.calls"

let m_iters_total =
  Gmf_obs.Metrics.counter Gmf_obs.Metrics.default "fixpoint.iters.total"

let m_iters =
  Gmf_obs.Metrics.histogram Gmf_obs.Metrics.default "fixpoint.iters"

let m_div_horizon =
  Gmf_obs.Metrics.counter Gmf_obs.Metrics.default "fixpoint.diverged.horizon"

let m_div_cap =
  Gmf_obs.Metrics.counter Gmf_obs.Metrics.default "fixpoint.diverged.cap"

let iterate ~f ~seed ~max_iters ~horizon =
  if max_iters <= 0 then invalid_arg "Fixpoint.iterate: non-positive cap";
  if seed < 0 then invalid_arg "Fixpoint.iterate: negative seed";
  Gmf_obs.Metrics.incr m_calls;
  let rec go t iters =
    (* A negative value can only be an overflowed step: past any horizon. *)
    if t > horizon || t < 0 then begin
      Gmf_obs.Metrics.incr m_div_horizon;
      Diverged
        (Printf.sprintf "exceeded horizon (%s)" (Timeunit.to_string horizon))
    end
    else if iters >= max_iters then begin
      Gmf_obs.Metrics.incr m_div_cap;
      Diverged (Printf.sprintf "no fixed point after %d iterations" max_iters)
    end
    else begin
      let t' = f t in
      if t' = t then begin
        let iters = iters + 1 in
        Gmf_obs.Metrics.incr ~by:iters m_iters_total;
        Gmf_obs.Metrics.observe m_iters iters;
        Converged { value = t; iters }
      end
      else go t' (iters + 1)
    end
  in
  go seed 0

let pp fmt = function
  | Converged { value; iters } ->
      Format.fprintf fmt "converged(%a, %d iter%s)" Timeunit.pp value iters
        (if iters = 1 then "" else "s")
  | Diverged msg -> Format.fprintf fmt "diverged(%s)" msg
