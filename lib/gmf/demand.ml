open Gmf_util

type t = {
  n : int;
  cost_prefix : int array; (* cost_prefix.(i) = sum of costs.(0..i-1), i <= 2n *)
  span_prefix : int array; (* span_prefix.(i) = sum of periods.(0..i-1), i <= 2n *)
  cost_total : int;
  tsum : Timeunit.ns;
  max_cycles : int; (* largest cycle count whose cost does not overflow *)
  (* Prefix-max staircase of the window maximum: every window of 1..n
     frames whose span is at most [stair_span.(i)] costs at most
     [stair_cost.(i)], and some such window costs exactly that.  Both arrays
     strictly increase, so MXS/NXS is a binary search. *)
  stair_span : Timeunit.ns array;
  stair_cost : int array;
}

(* The (span, cost) Pareto frontier of all n * n windows: sort the window
   indices by span, then keep only the windows where the running cost
   maximum rises.  Windows of equal span collapse onto their last, largest
   step. *)
let staircase ~n ~cost_prefix ~span_prefix =
  let nw = n * n in
  let spans = Array.make nw 0 and costs = Array.make nw 0 in
  for k1 = 0 to n - 1 do
    for len = 1 to n do
      let w = (k1 * n) + len - 1 in
      spans.(w) <- span_prefix.(k1 + len - 1) - span_prefix.(k1);
      costs.(w) <- cost_prefix.(k1 + len) - cost_prefix.(k1)
    done
  done;
  let order = Array.init nw Fun.id in
  Array.sort (fun a b -> Int.compare spans.(a) spans.(b)) order;
  let step_span = Array.make nw 0 and step_cost = Array.make nw 0 in
  let steps = ref 0 and best = ref 0 in
  Array.iter
    (fun w ->
      let c = costs.(w) in
      if c > !best then begin
        best := c;
        let s = spans.(w) in
        if !steps > 0 && step_span.(!steps - 1) = s then
          step_cost.(!steps - 1) <- c
        else begin
          step_span.(!steps) <- s;
          step_cost.(!steps) <- c;
          incr steps
        end
      end)
    order;
  (Array.sub step_span 0 !steps, Array.sub step_cost 0 !steps)

let make ~costs ~periods =
  let n = Array.length costs in
  if n = 0 then invalid_arg "Demand.make: empty cycle";
  if Array.length periods <> n then
    invalid_arg "Demand.make: costs/periods length mismatch";
  Array.iter
    (fun c -> if c < 0 then invalid_arg "Demand.make: negative cost")
    costs;
  Array.iter
    (fun p -> if p < 0 then invalid_arg "Demand.make: negative period")
    periods;
  (* Prefix sums over two unrolled cycles let any window of up to n frames
     starting anywhere be summed in O(1). *)
  let prefix arr =
    let p = Array.make ((2 * n) + 1) 0 in
    for i = 0 to (2 * n) - 1 do
      p.(i + 1) <- p.(i) + arr.(i mod n)
    done;
    p
  in
  let cost_prefix = prefix costs in
  let span_prefix = prefix periods in
  let cost_total = cost_prefix.(n) in
  let tsum = span_prefix.(n) in
  if tsum <= 0 then invalid_arg "Demand.make: zero cycle length";
  let stair_span, stair_cost = staircase ~n ~cost_prefix ~span_prefix in
  let max_cycles = if cost_total = 0 then max_int else max_int / cost_total in
  { n; cost_prefix; span_prefix; cost_total; tsum; max_cycles; stair_span;
    stair_cost }

let n t = t.n
let cost_total t = t.cost_total
let tsum t = t.tsum

(* Cost of [len] frames starting at [k1]: wraps whole cycles analytically and
   reads the remainder from the unrolled prefix table. *)
let window_cost t ~k1 ~len =
  if k1 < 0 then invalid_arg "Demand.window_cost: negative k1";
  if len < 0 then invalid_arg "Demand.window_cost: negative len";
  let k1 = k1 mod t.n in
  let cycles = len / t.n and rest = len mod t.n in
  (cycles * t.cost_total) + t.cost_prefix.(k1 + rest) - t.cost_prefix.(k1)

let window_span t ~k1 ~len =
  if k1 < 0 then invalid_arg "Demand.window_span: negative k1";
  if len < 0 then invalid_arg "Demand.window_span: negative len";
  if len <= 1 then 0
  else begin
    let k1 = k1 mod t.n in
    let m = len - 1 in
    let cycles = m / t.n and rest = m mod t.n in
    (cycles * t.tsum) + t.span_prefix.(k1 + rest) - t.span_prefix.(k1)
  end

(* Clamping every window to [min dt cost] and then maximizing equals
   clamping the maximum, because [min dt] is monotone. *)
let small t ~capped dt =
  if dt < 0 then 0
  else begin
    let spans = t.stair_span in
    (* Binary search for the number of steps whose span is at most dt. *)
    let lo = ref 0 and hi = ref (Array.length spans) in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if spans.(mid) <= dt then lo := mid + 1 else hi := mid
    done;
    if !lo = 0 then 0
    else
      let cost = t.stair_cost.(!lo - 1) in
      if capped && dt < cost then dt else cost
  end

let bound t ~capped dt =
  if dt < 0 then 0
  else begin
    let cycles = dt / t.tsum in
    let rest = dt - (cycles * t.tsum) in
    (* Saturate instead of wrapping: near max_int the whole-cycle term
       would otherwise overflow to a negative demand. *)
    let whole =
      if cycles > t.max_cycles then max_int else cycles * t.cost_total
    in
    Timeunit.sat_add whole (small t ~capped rest)
  end

let utilization t = float_of_int t.cost_total /. float_of_int t.tsum
