(* Shared machinery of the benchmark: clocks, op isolation, seeded
   renaming, output canonicalization, the benchmark's own tracer and the
   result record every workload returns. *)

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)
let ms_of_ns ns = float_of_int ns /. 1e6

let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () - t0)

(* ------------------------------------------------------------------ *)
(* Statistics                                                         *)
(* ------------------------------------------------------------------ *)

(* Linear interpolation between closest ranks, as Python's
   statistics.median / numpy's default percentile. *)
let percentile p xs =
  match List.sort Float.compare xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      let r = p /. 100. *. float_of_int (n - 1) in
      let lo = int_of_float (Float.floor r) in
      let hi = min (n - 1) (lo + 1) in
      let w = r -. float_of_int lo in
      (a.(lo) *. (1. -. w)) +. (a.(hi) *. w)

let median xs = percentile 50. xs
let sum xs = List.fold_left ( +. ) 0. xs

(* ------------------------------------------------------------------ *)
(* Op isolation                                                       *)
(* ------------------------------------------------------------------ *)

(* Every timed op starts from the same cold process-global state: the
   two case memos emptied and the heap collected, outside the timing. *)
let isolate () =
  Gmf_exec.Memo.clear Analysis.Case.shared_memo;
  Gmf_faults.Survive.clear_memo ();
  Gc.compact ()

(* ------------------------------------------------------------------ *)
(* Host speed                                                         *)
(* ------------------------------------------------------------------ *)

(* The shared host this benchmark runs on changes speed by 25-50% over
   tens of minutes, for every workload alike.  So each run times a fixed
   probe between its ops, at least every half second, and reports every
   end-to-end time scaled to the speed the probe had on the reference
   host: an op's wall time is multiplied by [reference_ms] over the mean
   of the probes just before and just after it.  The probe is a
   pseudo-random pointer chase through a 512 KB array outside the OCaml
   heap, with integer mixing: it allocates nothing and calls nothing of
   the program, so no change to the program can move it. *)
module Speed = struct
  let reference_ms = 50.
  let size = 1 lsl 16
  let steps = 6_000_000

  let chain =
    lazy
      (let a = Bigarray.(Array1.create int c_layout size) in
       for i = 0 to size - 1 do
         a.{i} <- i
       done;
       (* Sattolo's shuffle: one cycle through every slot. *)
       let rng = Random.State.make [| 0x5eed |] in
       for i = size - 1 downto 1 do
         let j = Random.State.int rng i in
         let t = a.{i} in
         a.{i} <- a.{j};
         a.{j} <- t
       done;
       a)

  let last = ref None (* (probe ms, finished at ns) *)
  let pending = ref []
  let factors = ref []

  (* Times the probe and hands every time recorded since the previous
     probe, scaled, to its continuation. *)
  let probe () =
    let a = Lazy.force chain in
    let t0 = now_ns () in
    let p = ref 0 and h = ref 0 in
    for _ = 1 to steps do
      p := Bigarray.Array1.unsafe_get a !p;
      h := (!h * 31) lxor !p
    done;
    ignore (Sys.opaque_identity !h);
    let t1 = now_ns () in
    let ms = ms_of_ns (t1 - t0) in
    let around =
      match !last with Some (prev, _) -> (prev +. ms) /. 2. | None -> ms
    in
    let f = reference_ms /. around in
    factors := f :: !factors;
    List.iter (fun (raw, k) -> k (raw *. f)) (List.rev !pending);
    pending := [];
    last := Some (ms, t1)

  (* Probe if half a second has passed since the last probe.  Call
     between ops only. *)
  let tick () =
    match !last with
    | Some (_, at) when now_ns () - at < 500_000_000 -> ()
    | _ -> probe ()

  (* [record raw k]: [k] receives the scaled [raw] at the next probe. *)
  let record raw k = pending := (raw, k) :: !pending

  (* Median scale factor of the run (1 = the reference host's speed). *)
  let factor () = median !factors
end

(* ------------------------------------------------------------------ *)
(* Seeded renaming                                                    *)
(* ------------------------------------------------------------------ *)

let rng_of_seed ~salt seed = Random.State.make [| seed; salt; 0x6d66 |]

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let is_ident c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_'

(* Replace every identifier token found in [tbl]; everything else
   (keywords, numbers with units, punctuation) passes through. *)
let map_tokens tbl s =
  let n = String.length s in
  let b = Buffer.create (n + (n / 8)) in
  let i = ref 0 in
  while !i < n do
    if is_ident s.[!i] then begin
      let j = ref !i in
      while !j < n && is_ident s.[!j] do
        incr j
      done;
      let tok = String.sub s !i (!j - !i) in
      Buffer.add_string b
        (match Hashtbl.find_opt tbl tok with Some r -> r | None -> tok);
      i := !j
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

(* A seeded bijection from canonical node and flow names to fresh
   ones.  The work the program does is the same for every seed up to
   this renaming, so outputs mapped back through [inverse] must equal
   the canonical outputs recorded in [Expected]. *)
type renaming = {
  forward : (string, string) Hashtbl.t;
  inverse : (string, string) Hashtbl.t;
}

let renaming ~seed ~nodes ~flows =
  let forward = Hashtbl.create 4096 and inverse = Hashtbl.create 4096 in
  let assign prefix names salt =
    let a = Array.of_list names in
    shuffle (rng_of_seed ~salt seed) a;
    Array.iteri
      (fun i canon ->
        let fresh = Printf.sprintf "%s%d" prefix i in
        Hashtbl.replace forward canon fresh;
        Hashtbl.replace inverse fresh canon)
      a
  in
  assign "xn" nodes 1;
  assign "xf" flows 2;
  { forward; inverse }

let node_names text =
  List.filter_map
    (fun l ->
      match String.split_on_char ' ' l with
      | "node" :: name :: _ -> Some name
      | _ -> None)
    (String.split_on_char '\n' text)

let flow_names text =
  List.filter_map
    (fun l ->
      match String.split_on_char ' ' l with
      | ("flow" | "admit") :: rest -> (
          match List.filter (fun t -> t <> "flow") rest with
          | name :: _ -> Some name
          | [] -> None)
      | _ -> None)
    (String.split_on_char '\n' text)

let digest s = Digest.to_hex (Digest.string s)

let strip_seq line =
  match String.index_opt line ' ' with
  | Some i when String.length line > 0 && line.[0] = '#' ->
      String.sub line (i + 1) (String.length line - i - 1)
  | _ -> line

(* ------------------------------------------------------------------ *)
(* Process facts                                                      *)
(* ------------------------------------------------------------------ *)

let status_kb ~pid key =
  try
    In_channel.with_open_text (Printf.sprintf "/proc/%s/status" pid)
      (fun ic ->
        let rec go () =
          match In_channel.input_line ic with
          | None -> None
          | Some l ->
              if String.starts_with ~prefix:(key ^ ":") l then
                Scanf.sscanf
                  (String.sub l (String.length key + 1)
                     (String.length l - String.length key - 1))
                  " %d" (fun kb -> Some kb)
              else go ()
        in
        go ())
  with Sys_error _ -> None

let peak_rss_mb ?(pid = "self") () =
  match status_kb ~pid "VmHWM" with
  | Some kb -> float_of_int kb /. 1024.
  | None -> nan

(* ------------------------------------------------------------------ *)
(* Tracing                                                            *)
(* ------------------------------------------------------------------ *)

(* Spans go into the benchmark's own tracer; the program's default
   tracer stays off.  One op's spans share [tid] = op number; the op
   span encloses its layer spans, so a layer's self time is its
   duration minus the time its enclosed spans cover. *)
module Trace = struct
  let tracer = Gmf_obs.Tracer.create ~enabled:true ~capacity:(1 lsl 17) ()

  let span ~op name f =
    let t0 = now_ns () in
    let r = f () in
    Gmf_obs.Tracer.emit ~cat:"layer" ~tid:op tracer ~name ~begin_ns:t0
      ~end_ns:(now_ns ());
    r

  (* Per-layer (calls, self ns) over every recorded span.  Spans nest at
     most one level (an "op" span around its layer spans), so a span's
     self time is its duration minus that of the spans inside it. *)
  let self_times () =
    let by_op = Hashtbl.create 256 in
    List.iter
      (fun (s : Gmf_obs.Tracer.span) ->
        Hashtbl.replace by_op s.tid
          (s :: Option.value ~default:[] (Hashtbl.find_opt by_op s.tid)))
      (Gmf_obs.Tracer.spans tracer);
    let acc = Hashtbl.create 16 in
    Hashtbl.iter
      (fun _ spans ->
        List.iter
          (fun (s : Gmf_obs.Tracer.span) ->
            let inside (c : Gmf_obs.Tracer.span) =
              c != s && c.begin_ns >= s.begin_ns
              && c.begin_ns + c.dur_ns <= s.begin_ns + s.dur_ns
            in
            let self =
              List.fold_left
                (fun a (c : Gmf_obs.Tracer.span) ->
                  if inside c then a - c.dur_ns else a)
                s.dur_ns spans
            in
            let calls, tot =
              Option.value ~default:(0, 0) (Hashtbl.find_opt acc s.name)
            in
            Hashtbl.replace acc s.name (calls + 1, tot + max 0 self))
          spans)
      by_op;
    List.sort compare (Hashtbl.fold (fun k (c, t) l -> (k, c, t) :: l) acc [])

  let table () =
    let rows = self_times () in
    let total = List.fold_left (fun a (_, _, t) -> a + t) 0 rows in
    let b = Buffer.create 512 in
    Printf.bprintf b "%-22s %8s %12s %10s %7s\n" "layer (self time)" "calls"
      "total_ms" "mean_ms" "share";
    List.iter
      (fun (name, calls, tot) ->
        Printf.bprintf b "%-22s %8d %12.3f %10.4f %6.1f%%\n" name calls
          (ms_of_ns tot)
          (ms_of_ns tot /. float_of_int (max 1 calls))
          (100. *. float_of_int tot /. float_of_int (max 1 total)))
      rows;
    Buffer.contents b

  let write ~path =
    Gmf_obs.Export.write_file ~path
      (Gmf_obs.Export.chrome_trace (Gmf_obs.Tracer.spans tracer))
end

(* ------------------------------------------------------------------ *)
(* Results                                                            *)
(* ------------------------------------------------------------------ *)

type result = {
  attempted : int;
  failed : int;
  problems : string list;
      (** Run-level check failures (recorded digests, final state);
          any makes the run incorrect. *)
  observed : (string * string) list;
      (** The digests checked against [Expected], as this run computed
          them — what [Expected] records. *)
  e2e : (string * float * string) list;  (** name, value, unit *)
  extra : (string * string) list;  (** Human-only lines. *)
  layers : (string * float * string) list;  (** Traced runs only. *)
}
