(* analyze-m1000: one op is the whole batch path of [gmfnet analyze] on
   the ROADMAP's m1000 — parse, lint, precheck, holistic fixpoint, frame
   CSV — from freshly parsed text.  The seed renames every node and flow
   and shuffles the flow declarations. *)

open Common

let input ~seed =
  let canon = Inputs.read "m1000.gmfnet" in
  let prologue, blocks = Inputs.split_blocks canon in
  let names = flow_names canon in
  let ren = renaming ~seed ~nodes:(node_names canon) ~flows:names in
  let blocks = Array.of_list blocks in
  shuffle (rng_of_seed ~salt:3 seed) blocks;
  let text =
    map_tokens ren.forward
      (Inputs.lines (prologue @ List.concat (Array.to_list blocks)))
  in
  let index = Hashtbl.create 1024 in
  List.iteri (fun i n -> Hashtbl.replace index n i) names;
  (text, ren, index, List.length names)

(* The frame CSV with names mapped back and flow ids replaced by the
   canonical declaration index, rows in canonical order: equal for
   every seed. *)
let canonical_csv ren index csv =
  match String.split_on_char '\n' csv with
  | [] -> ""
  | header :: rows ->
      let rows =
        List.filter_map
          (fun row ->
            match String.split_on_char ',' row with
            | _id :: name :: prio :: frame :: rest ->
                let name =
                  Option.value ~default:name (Hashtbl.find_opt ren.inverse name)
                in
                let id =
                  Option.value ~default:(-1) (Hashtbl.find_opt index name)
                in
                Some
                  ( (id, int_of_string frame),
                    String.concat ","
                      (string_of_int id :: name :: prio :: frame :: rest) )
            | _ -> None)
          rows
      in
      String.concat "\n"
        (header :: List.map snd (List.sort compare rows))
      ^ "\n"

type op_out = {
  csv : string;
  lint_errors : int;
  decided : int;
  rounds : int;
}

let op ?trace text =
  let sp name f =
    match trace with Some op -> Trace.span ~op name f | None -> f ()
  in
  sp "op" (fun () ->
      let scenario = sp "parse" (fun () -> Inputs.parse text) in
      let lint = sp "lint" (fun () -> Gmf_lint.Lint.run scenario) in
      let pre = sp "precheck" (fun () -> Gmf_precheck.Precheck.run scenario) in
      let report = sp "fixpoint" (fun () -> Analysis.Holistic.analyze scenario) in
      let csv = sp "report" (fun () -> Analysis.Report_io.frame_csv report) in
      {
        csv;
        lint_errors = List.length (Gmf_lint.Lint.errors lint);
        decided = Gmf_precheck.Precheck.decided pre;
        rounds = report.Analysis.Holistic.rounds;
      })

let run ~seed ~seconds ~traced =
  let text, ren, index, nflows = input ~seed in
  let observe out =
    if out.lint_errors > 0 then "lint errors"
    else digest (canonical_csv ren index out.csv)
  in
  Loop.batch ~seconds ~traced ~observe ~expected:Expected.analyze_csv
    ~op:(fun ?trace () -> op ?trace text)
    ~layers:(fun out ->
      [
        ("precheck.decided_frac", float_of_int out.decided /. float_of_int nflows);
        ("holistic.rounds", float_of_int out.rounds);
      ])
    ~spans:[ "parse"; "lint"; "precheck"; "fixpoint"; "report" ]
    ~extra:[ ("input", Printf.sprintf "m1000: %d flows, 500 switches" nflows) ]
