(* The bisections are inherently sequential — each probe depends on the
   last verdict — so every probe runs in process, through the case
   layer. *)

(* Binary search on integers: smallest x in [lo, hi] with [ok x], given
   [not (ok lo)] and [ok hi]; stops at 1% relative resolution. *)
let search_min_int ~lo ~hi ~ok =
  let rec go lo hi =
    if hi - lo <= max 1 (lo / 100) then hi
    else begin
      let mid = lo + ((hi - lo) / 2) in
      if ok mid then go lo mid else go mid hi
    end
  in
  go lo hi

let min_link_rate ?config ?(lo = 1_000_000) ?(hi = 10_000_000_000)
    ~build () =
  if lo <= 0 || lo > hi then invalid_arg "Sensitivity.min_link_rate: bad range";
  let ok rate_bps = Case.schedulable ?config (build ~rate_bps) in
  if not (ok hi) then None
  else if ok lo then Some lo
  else Some (search_min_int ~lo ~hi ~ok)

(* Binary search on floats: largest scale with [ok scale], given [ok lo]. *)
let search_max_float ~lo ~hi ~resolution ~ok =
  let rec go lo hi =
    if (hi -. lo) /. hi <= resolution then lo
    else begin
      let mid = (lo +. hi) /. 2. in
      if ok mid then go mid hi else go lo mid
    end
  in
  go lo hi

let max_payload_scale ?config ?(resolution = 0.01) ?(hi = 64.) ~build ()
    =
  let ok scale = Case.schedulable ?config (build ~scale) in
  let lo = 1. /. 64. in
  if hi < lo then invalid_arg "Sensitivity.max_payload_scale: hi below 1/64";
  if not (ok lo) then None
  else if ok hi then Some hi
  else Some (search_max_float ~lo ~hi ~resolution ~ok)

let max_circ ?config ~build () =
  let ok circ_scale = Case.schedulable ?config (build ~circ_scale) in
  let lo = 1. /. 1024. and hi = 1024. in
  if not (ok lo) then None
  else if ok hi then Some hi
  else Some (search_max_float ~lo ~hi ~resolution:0.01 ~ok)
