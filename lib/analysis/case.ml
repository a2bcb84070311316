(* Canonical digest of an analysis case.  Every field the holistic
   analysis reads must appear here — config knobs, topology, switch
   models, flows with specs, routes, priorities and remarks — so equal
   digests imply equal reports. *)

let add_config buf (c : Config.t) =
  Buffer.add_string buf
    (Printf.sprintf "cfg|%s|%b|%d|%d|%d|%d;"
       (Config.variant_to_string c.Config.variant)
       c.Config.tight_jitter c.Config.max_busy_iters c.Config.max_q
       c.Config.horizon c.Config.max_holistic_rounds)

let add_topo buf topo =
  List.iter
    (fun (n : Network.Node.t) ->
      Buffer.add_string buf
        (Printf.sprintf "n|%d|%s|%s;" n.Network.Node.id n.Network.Node.name
           (Network.Node.kind_to_string n.Network.Node.kind)))
    (Network.Topology.nodes topo);
  List.iter
    (fun (l : Network.Link.t) ->
      Buffer.add_string buf
        (Printf.sprintf "l|%d|%d|%d|%d;" l.Network.Link.src
           l.Network.Link.dst l.Network.Link.rate_bps l.Network.Link.prop))
    (Network.Topology.links topo)

let add_switches buf scenario =
  List.iter
    (fun id ->
      let m = Traffic.Scenario.switch_model scenario id in
      Buffer.add_string buf
        (Printf.sprintf "s|%d|%d|%d|%d|%d;" id
           m.Click.Switch_model.ninterfaces m.Click.Switch_model.croute
           m.Click.Switch_model.csend m.Click.Switch_model.processors))
    (Traffic.Scenario.switch_nodes scenario)

let add_flow buf (f : Traffic.Flow.t) =
  Buffer.add_string buf
    (Printf.sprintf "f|%d|%s|%s|%d|" f.Traffic.Flow.id f.Traffic.Flow.name
       (match f.Traffic.Flow.encap with
       | Ethernet.Encap.Udp -> "udp"
       | Ethernet.Encap.Rtp_udp -> "rtp")
       f.Traffic.Flow.priority);
  List.iter
    (fun n -> Buffer.add_string buf (Printf.sprintf "%d," n))
    (Network.Route.nodes f.Traffic.Flow.route);
  Buffer.add_char buf '|';
  List.iter
    (fun ((a, b), p) ->
      Buffer.add_string buf (Printf.sprintf "%d-%d:%d," a b p))
    f.Traffic.Flow.remarks;
  Buffer.add_char buf '|';
  Array.iter
    (fun (fr : Gmf.Frame_spec.t) ->
      Buffer.add_string buf
        (Printf.sprintf "%d/%d/%d/%d," fr.Gmf.Frame_spec.period
           fr.Gmf.Frame_spec.deadline fr.Gmf.Frame_spec.jitter
           fr.Gmf.Frame_spec.payload_bits))
    (Gmf.Spec.frames f.Traffic.Flow.spec);
  Buffer.add_char buf ';'

let flow_digest (f : Traffic.Flow.t) =
  let buf = Buffer.create 128 in
  add_flow buf f;
  Buffer.contents buf

(* The digest is cached inside the scenario value, keyed by the config's
   canonical serialization: repeated memo probes (one per survive case,
   per admission-gate candidate, per sensitivity probe) stop
   re-serializing the whole scenario — hot at 1,000-flow scale. *)
let digest ~config scenario =
  let cfg = Buffer.create 64 in
  add_config cfg config;
  let cfg = Buffer.contents cfg in
  Traffic.Scenario.cached scenario ~key:("case.digest|" ^ cfg) (fun () ->
      let buf = Buffer.create 1024 in
      Buffer.add_string buf cfg;
      add_topo buf (Traffic.Scenario.topo scenario);
      add_switches buf scenario;
      List.iter (add_flow buf) (Traffic.Scenario.flows scenario);
      Digest.to_hex (Digest.string (Buffer.contents buf)))

let shared_memo : Holistic.report Gmf_exec.Memo.t = Gmf_exec.Memo.create ()

let m_memo_hits =
  Gmf_obs.Metrics.counter Gmf_obs.Metrics.default "exec.memo_hits"

(* A case that raised becomes an analysis failure, so drivers stay total. *)
let report_of_error err =
  {
    Holistic.verdict =
      Holistic.Analysis_failed
        [
          {
            Result_types.flow_id = -1;
            frame = 0;
            failed_stage = None;
            reason = "exec: " ^ Gmf_exec.error_to_string err;
          };
        ];
    rounds = 0;
    results = [];
  }

(* Looked up before the exec layer sees the case, so only a miss is
   mapped; a report of an exec error is not stored. *)
let analyze_one ~config scenario =
  let key = digest ~config scenario in
  match Gmf_exec.Memo.find shared_memo key with
  | Some r ->
      Gmf_obs.Metrics.incr m_memo_hits;
      r
  | None -> (
      match Gmf_exec.run ~f:(Holistic.analyze ~config) scenario with
      | Ok r ->
          Gmf_exec.Memo.add shared_memo key r;
          r
      | Error e -> report_of_error e)

let analyze_all ?(config = Config.default) scenarios =
  List.map (analyze_one ~config) scenarios

let analyze ?config scenario =
  match analyze_all ?config [ scenario ] with [ r ] -> r | _ -> assert false

let schedulable ?config scenario =
  Holistic.is_schedulable (analyze ?config scenario)
