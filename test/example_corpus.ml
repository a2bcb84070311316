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
