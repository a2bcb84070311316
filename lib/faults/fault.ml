open Gmf_util

type link_id = Network.Node.id * Network.Node.id

type event =
  | Link_down of link_id * Timeunit.ns
  | Link_up of link_id * Timeunit.ns
  | Switch_stall of Network.Node.id * Timeunit.ns * Timeunit.ns
  | Frame_loss of float

type policy = Hold | Drop

type schedule = { events : event list; policy : policy }

let empty = { events = []; policy = Hold }
let is_empty s = s.events = []

let check_event = function
  | Link_down (_, at) | Link_up (_, at) ->
      if at < 0 then invalid_arg "Fault.make: negative event time"
  | Switch_stall (_, at, duration) ->
      if at < 0 then invalid_arg "Fault.make: negative event time";
      if duration <= 0 then
        invalid_arg "Fault.make: non-positive stall duration"
  | Frame_loss p ->
      if not (p >= 0. && p <= 1.) then
        invalid_arg "Fault.make: frame-loss probability outside [0, 1]"

let make ?(policy = Hold) events =
  List.iter check_event events;
  { events; policy }

let duplex_down ~a ~b ~at = [ Link_down ((a, b), at); Link_down ((b, a), at) ]
let duplex_up ~a ~b ~at = [ Link_up ((a, b), at); Link_up ((b, a), at) ]

let loss_probability s =
  List.fold_left
    (fun acc -> function Frame_loss p -> Float.max acc p | _ -> acc)
    0. s.events

let validate topo s =
  let check = function
    | Link_down ((src, dst), _) | Link_up ((src, dst), _) -> begin
        match Network.Topology.find_link topo ~src ~dst with
        | Some _ -> Ok ()
        | None ->
            Error (Printf.sprintf "fault names unknown link %d->%d" src dst)
      end
    | Switch_stall (node, _, _) -> begin
        match Network.Topology.node topo node with
        | n when Network.Node.is_switch n -> Ok ()
        | n ->
            Error
              (Printf.sprintf "stall of %S, which is not a switch"
                 n.Network.Node.name)
        | exception Invalid_argument _ ->
            Error (Printf.sprintf "stall of unknown node %d" node)
      end
    | Frame_loss _ -> Ok ()
  in
  List.fold_left
    (fun acc ev -> match acc with Error _ -> acc | Ok () -> check ev)
    (Ok ()) s.events

(* ------------------------------------------------------------------ *)
(* Fault windows                                                      *)
(* ------------------------------------------------------------------ *)

type component = C_link of link_id | C_switch of Network.Node.id

type window = {
  w_component : component;
  w_from : Timeunit.ns;
  w_until : Timeunit.ns option;
}

let windows s =
  (* Pair each link's downs with its ups, both in time order. *)
  let downs = Hashtbl.create 8 and ups = Hashtbl.create 8 in
  let push tbl key at =
    Hashtbl.replace tbl key (at :: Option.value ~default:[] (Hashtbl.find_opt tbl key))
  in
  let stalls = ref [] in
  List.iter
    (function
      | Link_down (l, at) -> push downs l at
      | Link_up (l, at) -> push ups l at
      | Switch_stall (node, at, duration) ->
          stalls :=
            { w_component = C_switch node; w_from = at;
              w_until = Some (at + duration) }
            :: !stalls
      | Frame_loss _ -> ())
    s.events;
  let link_windows =
    Hashtbl.fold
      (fun l down_times acc ->
        let down_times = List.sort compare down_times in
        let up_times =
          List.sort compare (Option.value ~default:[] (Hashtbl.find_opt ups l))
        in
        let rec pair downs ups acc =
          match downs with
          | [] -> acc
          | d :: drest -> (
              match List.filter (fun u -> u >= d) ups with
              | [] ->
                  { w_component = C_link l; w_from = d; w_until = None }
                  :: acc
              | u :: _ ->
                  pair drest
                    (List.filter (fun u' -> u' > u) ups)
                    ({ w_component = C_link l; w_from = d; w_until = Some u }
                    :: acc))
        in
        pair down_times up_times acc)
      downs []
  in
  List.sort compare (link_windows @ !stalls)

let window_touches route = function
  | C_link (a, b) -> Network.Route.mem route a || Network.Route.mem route b
  | C_switch n -> Network.Route.mem route n

let taints s ~route ~from ~until =
  loss_probability s > 0.
  || List.exists
       (fun w ->
         window_touches route w.w_component
         && w.w_from <= until
         &&
         match w.w_until with
         | None -> true
         | Some w_until ->
             (* Settle margin: a closed outage of length d may keep
                perturbing (burst drain) for about d after recovery. *)
             w_until + (w_until - w.w_from) >= from)
       (windows s)
