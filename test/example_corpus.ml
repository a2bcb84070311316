(* The checked-in scenario corpus, found by walking up from the test
   binary until an [examples/scenarios] directory exists, so the tests
   that read it pass from any working directory. *)
let dir () =
  let rec up d =
    let candidate = Filename.concat d (Filename.concat "examples" "scenarios") in
    if Sys.file_exists candidate && Sys.is_directory candidate then candidate
    else
      let parent = Filename.dirname d in
      if parent = d then
        failwith
          ("no examples/scenarios above " ^ Filename.dirname Sys.executable_name)
      else up parent
  in
  up (Filename.dirname Sys.executable_name)

(* Every checked-in scenario: the linted examples, then the corpus of
   scenarios that fail the analysis on purpose ([test/corpus]). *)
let scenario_paths () =
  let examples = dir () in
  let corpus =
    Filename.concat
      (Filename.dirname (Filename.dirname examples))
      (Filename.concat "test" "corpus")
  in
  let files dir =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".gmfnet")
    |> List.sort compare
    |> List.map (Filename.concat dir)
  in
  files examples @ files corpus
