(* Entry point: one workload, one seed, one run; human-readable lines
   first, the result object as the last line of standard output.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
               --inputs DIR --workdir DIR
     bench.exe --emit-inputs DIR
     bench.exe --record-daemon FIRST LAST

   Exits 1 when any output check failed. *)

open Common

let workloads =
  [ "analyze-m1000"; "survive-tiles-k2"; "churn-tiles"; "daemon-voip" ]


let report ~workload ~seed ~traced ~workdir (r : result) =
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) r.e2e in
  let problems =
    r.problems @ if finite then [] else [ "an end-to-end metric has no samples" ]
  in
  (* A run-level mismatch (a recorded digest, the final state) puts every
     op of the run in doubt. *)
  let failed = if problems = [] then r.failed else r.attempted in
  let correct = problems = [] && failed = 0 in
  Printf.printf "workload %s  seed %d  trace %d\n" workload seed
    (if traced then 1 else 0);
  List.iter (fun (k, v) -> Printf.printf "  %-14s %s\n" k v) r.extra;
  List.iter (fun (n, v, u) -> Printf.printf "  %-14s %.4f %s\n" n v u) r.e2e;
  Printf.printf "  %-14s %.4f (times above are wall times x this)\n" "host_factor"
    (Speed.factor ());
  Printf.printf "  %-14s %.4f (%d of %d ops)\n" "failed_frac"
    (float_of_int failed /. float_of_int (max 1 r.attempted))
    failed r.attempted;
  List.iter (fun (k, v) -> Printf.printf "  observed %s %s\n" k v) r.observed;
  List.iter (fun p -> Printf.printf "  CHECK FAILED: %s\n" p) problems;
  let metrics =
    if traced then begin
      print_string (Trace.table ());
      let path =
        Filename.concat workdir
          (Printf.sprintf "%s-seed%d.trace.json" workload seed)
      in
      Trace.write ~path;
      Printf.printf "  spans written to %s\n" path;
      List.map
        (fun (n, v, u) -> (n, (if Float.is_finite v then v else 0.), u))
        r.layers
    end
    else r.e2e
  in
  if traced then
    List.iter (fun (n, v, u) -> Printf.printf "  %-24s %.4f %s\n" n v u) metrics;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct r.attempted failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n
              (Printf.sprintf "%.17g" (if Float.is_finite v then v else 0.))
              u)
          metrics));
  correct

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. in
  let trace = ref 0 and workdir = ref "." in
  let emit = ref "" and record = ref None in
  let rec args = function
    | "--workload" :: v :: rest -> workload := v; args rest
    | "--seed" :: v :: rest -> seed := int_of_string v; args rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; args rest
    | "--trace" :: v :: rest -> trace := int_of_string v; args rest
    | "--inputs" :: v :: rest -> Inputs.dir := v; args rest
    | "--workdir" :: v :: rest -> workdir := v; args rest
    | "--emit-inputs" :: v :: rest -> emit := v; args rest
    | "--record-daemon" :: a :: b :: rest ->
        record := Some (int_of_string a, int_of_string b);
        args rest
    | [] -> ()
    | a :: _ -> failwith ("unknown argument " ^ a)
  in
  args (List.tl (Array.to_list Sys.argv));
  if !emit <> "" then Inputs.emit !emit
  else
    match !record with
    | Some (first, last) ->
        for s = first to last do
          let t, f = W_daemon.replica_digests ~seed:s in
          Printf.printf "    (%d, %S, %S);\n" s t f
        done
    | None ->
        let traced = !trace = 1 and seed = !seed and seconds = !seconds in
        let r =
          match !workload with
          | "analyze-m1000" -> W_analyze.run ~seed ~seconds ~traced
          | "survive-tiles-k2" -> W_survive.run ~seed ~seconds ~traced
          | "churn-tiles" -> W_churn.run ~seed ~seconds ~traced
          | "daemon-voip" ->
              W_daemon.run ~workdir:!workdir ~seed ~seconds ~traced
          | w ->
              failwith
                (Printf.sprintf "unknown workload %S (one of: %s)" w
                   (String.concat ", " workloads))
        in
        if not (report ~workload:!workload ~seed ~traced ~workdir:!workdir r)
        then exit 1
