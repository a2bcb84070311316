open Gmf_util

(* One row per (flow, stage) holding the per-frame jitters, 0 where unset.
   Rows only grow, so setting an entry back to 0 leaves a zero in place: an
   all-zero row, a short row and a missing row all mean "every entry 0",
   and every function below treats them alike. *)
module Rows = Hashtbl.Make (struct
  type t = Traffic.Flow.id * Stage.t

  let equal ((f1 : Traffic.Flow.id), s1) (f2, s2) =
    f1 = f2 && Stage.equal s1 s2

  let hash = Hashtbl.hash
end)

type t = Timeunit.ns array Rows.t

let create () : t = Rows.create 256

let no_row = [||]
let row t ~flow ~stage = Option.value ~default:no_row (Rows.find_opt t (flow, stage))
let at row frame = if frame < Array.length row then row.(frame) else 0

let get t ~flow ~stage ~frame = at (row t ~flow ~stage) frame

let set t ~flow ~stage ~frame value =
  if value < 0 then invalid_arg "Jitter_state.set: negative jitter";
  if frame < 0 then invalid_arg "Jitter_state.set: negative frame index";
  let old = row t ~flow ~stage in
  if frame < Array.length old then old.(frame) <- value
  else if value <> 0 then begin
    let grown = Array.make (frame + 1) 0 in
    Array.blit old 0 grown 0 (Array.length old);
    grown.(frame) <- value;
    Rows.replace t (flow, stage) grown
  end

let extra t ~flow ~n_frames ~stage =
  let row = row t ~flow ~stage in
  let best = ref 0 in
  for frame = 0 to min n_frames (Array.length row) - 1 do
    let v = row.(frame) in
    if v > !best then best := v
  done;
  !best

let copy t =
  let out = Rows.copy t in
  Rows.filter_map_inplace (fun _ row -> Some (Array.copy row)) out;
  out

let filter_flows t ~keep =
  let out = create () in
  Rows.iter
    (fun ((flow, _) as key) row ->
      if keep flow then Rows.replace out key (Array.copy row))
    t;
  out

(* Entry-wise union: a non-zero entry of [b] wins, any other keeps [a]'s. *)
let union a b =
  let out = copy a in
  Rows.iter
    (fun key row ->
      let mine = Option.value ~default:no_row (Rows.find_opt out key) in
      let merged =
        Array.init
          (max (Array.length mine) (Array.length row))
          (fun i -> if at row i <> 0 then row.(i) else at mine i)
      in
      Rows.replace out key merged)
    b;
  out

(* Largest entry-wise difference of two rows, the shorter padded with 0. *)
let row_delta x y =
  let d = ref 0 in
  for i = 0 to max (Array.length x) (Array.length y) - 1 do
    d := max !d (abs (at x i - at y i))
  done;
  !d

(* [f key row_x row_y] over every row of [x], paired with [y]'s row. *)
let iter_paired f x y =
  Rows.iter
    (fun key row ->
      f key row (Option.value ~default:no_row (Rows.find_opt y key)))
    x

let max_delta a b =
  let d = ref 0 in
  let one x y = iter_paired (fun _ r s -> d := max !d (row_delta r s)) x y in
  one a b;
  one b a;
  !d

let equal a b = max_delta a b = 0
let max_value t = Rows.fold (fun _ row acc -> Array.fold_left max acc row) t 0

let flow_deltas a b =
  let tbl = Hashtbl.create 16 in
  (* A flow is listed only when it holds a non-zero entry in either state:
     an all-zero row stands for no entries at all. *)
  let one x y =
    iter_paired
      (fun (flow, _) r s ->
        if Array.exists (fun v -> v <> 0) r then begin
          let d = row_delta r s in
          match Hashtbl.find_opt tbl flow with
          | Some cur when cur >= d -> ()
          | _ -> Hashtbl.replace tbl flow d
        end)
      x y
  in
  one a b;
  one b a;
  Hashtbl.fold (fun flow d acc -> (flow, d) :: acc) tbl []
  |> List.sort compare
