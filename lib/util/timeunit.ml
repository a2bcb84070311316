type ns = int

let ns x = x
let us x = x * 1_000
let ms x = x * 1_000_000
let s x = x * 1_000_000_000
let us_frac x = int_of_float (Float.round (x *. 1_000.))
let to_us t = float_of_int t /. 1_000.
let to_ms t = float_of_int t /. 1_000_000.
let to_s t = float_of_int t /. 1_000_000_000.

(* Trim trailing zeros of a fixed-point rendering so that e.g. 14.800 prints
   as 14.8 and 270.000 prints as 270. *)
let trim_frac str =
  if String.contains str '.' then begin
    let n = ref (String.length str) in
    while !n > 0 && str.[!n - 1] = '0' do
      decr n
    done;
    if !n > 0 && str.[!n - 1] = '.' then decr n;
    String.sub str 0 !n
  end
  else str

let pp fmt t =
  let abs = Stdlib.abs t in
  if abs < 1_000 then Format.fprintf fmt "%dns" t
  else if abs < 1_000_000 then
    Format.fprintf fmt "%sus" (trim_frac (Printf.sprintf "%.3f" (to_us t)))
  else if abs < 1_000_000_000 then
    Format.fprintf fmt "%sms" (trim_frac (Printf.sprintf "%.6f" (to_ms t)))
  else Format.fprintf fmt "%ss" (trim_frac (Printf.sprintf "%.9f" (to_s t)))

let to_string t = Format.asprintf "%a" pp t

let check_div name a b =
  if b <= 0 then invalid_arg (name ^ ": non-positive divisor");
  if a < 0 then invalid_arg (name ^ ": negative dividend")

let cdiv a b =
  check_div "Timeunit.cdiv" a b;
  (a + b - 1) / b

let fdiv a b =
  check_div "Timeunit.fdiv" a b;
  a / b

let tx_time_ns ~bits ~rate_bps =
  if rate_bps <= 0 then invalid_arg "Timeunit.tx_time_ns: non-positive rate";
  if bits < 0 then invalid_arg "Timeunit.tx_time_ns: negative size";
  cdiv (bits * 1_000_000_000) rate_bps

let sat_add a b =
  let s = a + b in
  if a >= 0 && b >= 0 && s < 0 then max_int else s
