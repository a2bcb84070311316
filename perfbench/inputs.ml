(* The canonical inputs.  They are committed (gzip'd) under
   perfbench/inputs/ so that every later revision of the program is
   measured on the very same scenarios; [emit] regenerates them with the
   repository's generators and documents how they were made:

   - m1000.gmfnet: [gmfnet gen -t mesh:25x20 --rate 1000000000 -n 1000]
     (generator seed 42), the ROADMAP's m1000;
   - tiles18x6.gmfnet / tiles6x6.gmfnet: the tile-local software-switch
     mesh of [bench -- survive] (6 flows inside each 2-cell tile,
     Random_gen seed 42), 18x6 and 6x6;
   - tiles*.tiles: one line per tile, "tile SA SB F0 .. F5" — the
     tile's fabric link and its flows, by canonical name. *)

let m1000_spec =
  {
    Gmf_topogen.Gen_spec.default with
    Gmf_topogen.Gen_spec.family =
      Gmf_topogen.Gen_spec.Mesh { rows = 25; cols = 20; planes = 1 };
    rate_bps = 1_000_000_000;
    flows = 1_000;
  }

let tile_profile =
  {
    Workload.Random_gen.default_profile with
    Workload.Random_gen.payload_bytes = (2_000, 6_000);
    deadline_factor = (1.5, 2.2);
    jitter = (0, 50_000);
  }

let parse text =
  match Scenario_io.Parse.scenario_of_string text with
  | Ok s -> s
  | Error e ->
      failwith (Format.asprintf "input: %a" Scenario_io.Parse.pp_error e)

(* The [bench -- survive] mesh: tiles pair horizontally adjacent cells
   (r, 2t)-(r, 2t+1); each carries six flows between its hosts. *)
let tiles ~rows ~cols =
  let built =
    Gmf_topogen.Builders.build ~rate_bps:100_000_000
      ~prop:Gmf_topogen.Gen_spec.default.Gmf_topogen.Gen_spec.prop
      ~hosts_per_switch:4
      (Gmf_topogen.Gen_spec.Mesh { rows; cols; planes = 1 })
  in
  let topo = built.Gmf_topogen.Builders.topo in
  let hosts_of = Hashtbl.create 64 in
  Array.iteri
    (fun i h ->
      let c = built.Gmf_topogen.Builders.host_region.(i) in
      Hashtbl.replace hosts_of c
        (h :: Option.value ~default:[] (Hashtbl.find_opt hosts_of c)))
    built.Gmf_topogen.Builders.hosts;
  let switch_of h = List.hd (Network.Topology.out_neighbors topo h) in
  let rng = Gmf_util.Rng.create ~seed:42 in
  let pairs = ref [] and links = ref [] in
  for r = 0 to rows - 1 do
    for t = 0 to (cols / 2) - 1 do
      let ca = (r * cols) + (2 * t) and cb = (r * cols) + (2 * t) + 1 in
      match (Hashtbl.find_opt hosts_of ca, Hashtbl.find_opt hosts_of cb) with
      | Some (a0 :: a1 :: a2 :: a3 :: _), Some (b0 :: b1 :: b2 :: b3 :: _) ->
          pairs :=
            (b0, a3) :: (a2, b3) :: (b2, a2) :: (a1, b1) :: (b1, a0)
            :: (a0, b0) :: !pairs;
          let sa = switch_of a0 and sb = switch_of b0 in
          links := (min sa sb, max sa sb) :: !links
      | _ -> failwith "tile mesh: tile missing hosts"
    done
  done;
  let flows =
    Workload.Random_gen.flows_between rng ~profile:tile_profile ~topo
      ~pairs:(List.rev !pairs) ()
  in
  let text = Scenario_io.Print.to_string (Traffic.Scenario.make ~topo ~flows ()) in
  (* The printer may rename nodes; name everything as printed.  Ids
     survive the round trip. *)
  let printed = parse text in
  let name id =
    (Network.Topology.node (Traffic.Scenario.topo printed) id).Network.Node.name
  in
  let flows = Array.of_list (Traffic.Scenario.flows printed) in
  let tile_lines =
    List.mapi
      (fun t (sa, sb) ->
        String.concat " "
          ("tile" :: name sa :: name sb
          :: List.init 6 (fun i -> flows.((6 * t) + i).Traffic.Flow.name)))
      (List.rev !links)
  in
  (text, String.concat "\n" tile_lines ^ "\n")

let emit dir =
  let write file text =
    Out_channel.with_open_text (Filename.concat dir file) (fun oc ->
        Out_channel.output_string oc text)
  in
  let m = Gmf_topogen.Topogen.generate m1000_spec in
  write "m1000.gmfnet"
    (Gmf_topogen.Topogen.to_string m.Gmf_topogen.Topogen.scenario);
  List.iter
    (fun (rows, cols) ->
      let text, tiles = tiles ~rows ~cols in
      let base = Printf.sprintf "tiles%dx%d" rows cols in
      write (base ^ ".gmfnet") text;
      write (base ^ ".tiles") tiles)
    [ (18, 6); (6, 6) ]

(* ------------------------------------------------------------------ *)
(* Loading                                                            *)
(* ------------------------------------------------------------------ *)

let dir = ref "."
let read file =
  In_channel.with_open_text (Filename.concat !dir file) In_channel.input_all

type tile = { link : string * string; members : string list }

let read_tiles file =
  List.filter_map
    (fun l ->
      match String.split_on_char ' ' l with
      | "tile" :: sa :: sb :: members -> Some { link = (sa, sb); members }
      | _ -> None)
    (String.split_on_char '\n' (read file))

(* A scenario's lines split into the prologue and its flow blocks (a
   "flow" line through its "end"). *)
let split_blocks text =
  let prologue = ref [] and blocks = ref [] and cur = ref None in
  List.iter
    (fun l ->
      match !cur with
      | Some b ->
          cur := Some (l :: b);
          if l = "end" then begin
            blocks := List.rev (l :: b) :: !blocks;
            cur := None
          end
      | None ->
          if String.starts_with ~prefix:"flow " l then cur := Some [ l ]
          else if l <> "" then prologue := l :: !prologue)
    (String.split_on_char '\n' text);
  (List.rev !prologue, List.rev !blocks)

let lines ls = String.concat "\n" ls ^ "\n"

let node_id topo name =
  match
    List.find_opt
      (fun (n : Network.Node.t) -> n.Network.Node.name = name)
      (Network.Topology.nodes topo)
  with
  | Some n -> n.Network.Node.id
  | None -> failwith ("input: unknown node " ^ name)
