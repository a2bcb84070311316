(* survive-tiles-k2: one op is a k=2 survivability sweep (delta engine,
   sequential executor) over 12 tile fabric links of the 18x6
   tile-local mesh — 78 failure cases over 324 flows — from freshly
   parsed text.  The seed renames every node and flow. *)

open Common

let domain_links = 12

(* Fates, matrix and shed set, as [bench -- survive] compares engines:
   everything the sweep decides, nothing engine-dependent (rounds,
   delta statistics). *)
let sweep_signature scenario (r : Gmf_faults.Survive.report) =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (c : Gmf_faults.Survive.case_result) ->
      List.iter
        (fun comp ->
          Buffer.add_string buf (Gmf_faults.Survive.component_name scenario comp);
          Buffer.add_char buf '+')
        c.Gmf_faults.Survive.case;
      Buffer.add_char buf '|';
      List.iter
        (fun ((f : Traffic.Flow.t), fate) ->
          Printf.bprintf buf "%d=%s;" f.Traffic.Flow.id
            (match fate with
            | Gmf_faults.Survive.Unaffected -> "u"
            | Gmf_faults.Survive.Rerouted _ -> "r"
            | Gmf_faults.Survive.Shed -> "s"))
        c.Gmf_faults.Survive.fates;
      Buffer.add_char buf '\n')
    r.Gmf_faults.Survive.cases;
  List.iter
    (fun ((f : Traffic.Flow.t), v) ->
      Printf.bprintf buf "%d:%s;" f.Traffic.Flow.id
        (match v with
        | Gmf_faults.Survive.Survives -> "ok"
        | Gmf_faults.Survive.Survives_with_reroute -> "rr"
        | Gmf_faults.Survive.Must_shed -> "shed"))
    r.Gmf_faults.Survive.matrix;
  List.iter
    (fun (f : Traffic.Flow.t) -> Printf.bprintf buf "!%d" f.Traffic.Flow.id)
    r.Gmf_faults.Survive.shed_set;
  Buffer.contents buf

let run ~seed ~seconds ~traced =
  let canon = Inputs.read "tiles18x6.gmfnet" in
  let tiles = Inputs.read_tiles "tiles18x6.tiles" in
  let ren =
    renaming ~seed ~nodes:(node_names canon) ~flows:(flow_names canon)
  in
  let text = map_tokens ren.forward canon in
  (* Node ids follow declaration order, which the renaming keeps, so
     the domain resolved once holds for every fresh parse. *)
  let domain =
    let topo = Traffic.Scenario.topo (Inputs.parse text) in
    List.filteri
      (fun i _ -> i < domain_links)
      (List.map
         (fun { Inputs.link = sa, sb; _ } ->
           let a = Inputs.node_id topo (Hashtbl.find ren.forward sa)
           and b = Inputs.node_id topo (Hashtbl.find ren.forward sb) in
           Gmf_faults.Survive.Link (min a b, max a b))
         tiles)
  in
  let op ?trace () =
    let sp name f =
      match trace with Some op -> Trace.span ~op name f | None -> f ()
    in
    sp "op" (fun () ->
        let scenario = sp "parse" (fun () -> Inputs.parse text) in
        let report =
          sp "survive" (fun () ->
              Gmf_faults.Survive.run ~k:2 ~domain scenario)
        in
        (scenario, report))
  in
  let observe (scenario, report) =
    digest (map_tokens ren.inverse (sweep_signature scenario report))
  in
  let layers (_, (r : Gmf_faults.Survive.report)) =
    let cases = List.length r.Gmf_faults.Survive.cases in
    let span =
      List.filter_map
        (fun (s : Gmf_obs.Tracer.span) ->
          if s.name = "survive" then Some (ms_of_ns s.dur_ns) else None)
        (Gmf_obs.Tracer.spans Trace.tracer)
    in
    let d =
      Option.value r.Gmf_faults.Survive.delta_totals
        ~default:
          {
            Gmf_faults.Survive.d_closure = 0;
            d_skipped = 0;
            d_saved = 0;
            d_fallbacks = 0;
            d_warm = 0;
          }
    in
    [
      ("survive.case_ms", median span /. float_of_int (max 1 cases));
      ("delta.closure_flows", float_of_int d.Gmf_faults.Survive.d_closure);
      ("delta.skipped_flows", float_of_int d.Gmf_faults.Survive.d_skipped);
      ("delta.rounds_saved", float_of_int d.Gmf_faults.Survive.d_saved);
      ("delta.cold_fallbacks", float_of_int d.Gmf_faults.Survive.d_fallbacks);
      ( "holistic.rounds",
        float_of_int
          (List.fold_left
             (fun a (c : Gmf_faults.Survive.case_result) ->
               a + c.Gmf_faults.Survive.rounds)
             0 r.Gmf_faults.Survive.cases) );
    ]
  in
  Loop.batch ~seconds ~traced ~observe
    ~expected:Expected.survive_signature ~op ~layers ~spans:[ "parse" ]
    ~extra:
      [
        ( "input",
          Printf.sprintf "18x6 tile mesh: %d tiles, %d flows, k=2 over %d links"
            (List.length tiles)
            (6 * List.length tiles)
            domain_links );
      ]
