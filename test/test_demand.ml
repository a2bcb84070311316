(* Tests of the request-bound functions MXS/MX/NXS/NX (paper eqs 4-13)
   against hand-computed values and a brute-force reference. *)

let demand () =
  Gmf.Demand.make ~costs:[| 3; 1; 2 |] ~periods:[| 10; 20; 30 |]

let test_totals () =
  let d = demand () in
  Alcotest.(check int) "n" 3 (Gmf.Demand.n d);
  Alcotest.(check int) "cost_total (eq 4/5)" 6 (Gmf.Demand.cost_total d);
  Alcotest.(check int) "tsum (eq 6)" 60 (Gmf.Demand.tsum d);
  Alcotest.(check (float 1e-9)) "utilization" 0.1 (Gmf.Demand.utilization d)

let test_windows () =
  let d = demand () in
  let cost k1 len = Gmf.Demand.window_cost d ~k1 ~len in
  let span k1 len = Gmf.Demand.window_span d ~k1 ~len in
  Alcotest.(check int) "cost empty" 0 (cost 0 0);
  Alcotest.(check int) "cost single" 3 (cost 0 1);
  Alcotest.(check int) "cost pair" 4 (cost 0 2);
  Alcotest.(check int) "cost wraps" 5 (cost 2 2);
  Alcotest.(check int) "cost beyond a cycle" 9 (cost 0 4);
  Alcotest.(check int) "cost two cycles" 12 (cost 1 6);
  Alcotest.(check int) "span single" 0 (span 0 1);
  Alcotest.(check int) "span pair (eq 9 is one period short)" 10 (span 0 2);
  Alcotest.(check int) "span wraps" 30 (span 2 2);
  Alcotest.(check int) "span full cycle" 60 (span 0 4);
  Alcotest.(check int) "k1 reduced mod n" (cost 0 2) (cost 3 2)

let test_small_uncapped () =
  (* NXS, eq (12). *)
  let d = demand () in
  let nxs dt = Gmf.Demand.small d ~capped:false dt in
  Alcotest.(check int) "dt=0: best single frame" 3 (nxs 0);
  Alcotest.(check int) "dt=10: window [3;1]" 4 (nxs 10);
  Alcotest.(check int) "dt=30: window [3;1;2]" 6 (nxs 30);
  Alcotest.(check int) "dt=59: still one cycle max" 6 (nxs 59);
  Alcotest.(check int) "negative dt" 0 (nxs (-5))

let test_small_capped () =
  (* MXS, eq (10): candidates clamped to the interval length. *)
  let d = demand () in
  let mxs dt = Gmf.Demand.small d ~capped:true dt in
  Alcotest.(check int) "dt=0 clamps to 0" 0 (mxs 0);
  Alcotest.(check int) "dt=2 clamps single frame" 2 (mxs 2);
  Alcotest.(check int) "dt=3 full single frame" 3 (mxs 3);
  Alcotest.(check int) "dt=10 window [3;1]" 4 (mxs 10);
  Alcotest.(check int) "dt=30 whole cycle" 6 (mxs 30)

let test_bound () =
  let d = demand () in
  let nx dt = Gmf.Demand.bound d ~capped:false dt in
  let mx dt = Gmf.Demand.bound d ~capped:true dt in
  (* Eq (13): a closed window of one cycle can hold n+1 releases. *)
  Alcotest.(check int) "NX(TSUM)" 9 (nx 60);
  Alcotest.(check int) "NX(TSUM+10)" 10 (nx 70);
  Alcotest.(check int) "NX(2 TSUM)" 15 (nx 120);
  (* Eq (11). *)
  Alcotest.(check int) "MX(TSUM)" 6 (mx 60);
  Alcotest.(check int) "MX(TSUM+10)" 10 (mx 70);
  Alcotest.(check int) "MX(0)" 0 (mx 0)

let test_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Demand.make: empty cycle")
    (fun () -> ignore (Gmf.Demand.make ~costs:[||] ~periods:[||]));
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Demand.make: costs/periods length mismatch") (fun () ->
      ignore (Gmf.Demand.make ~costs:[| 1 |] ~periods:[| 1; 2 |]));
  Alcotest.check_raises "negative cost"
    (Invalid_argument "Demand.make: negative cost") (fun () ->
      ignore (Gmf.Demand.make ~costs:[| -1 |] ~periods:[| 1 |]));
  Alcotest.check_raises "zero cycle"
    (Invalid_argument "Demand.make: zero cycle length") (fun () ->
      ignore (Gmf.Demand.make ~costs:[| 1 |] ~periods:[| 0 |]))

(* Brute-force reference: enumerate windows directly from the arrays. *)
let brute_small ~costs ~periods ~capped dt =
  let n = Array.length costs in
  let best = ref 0 in
  for k1 = 0 to n - 1 do
    for len = 1 to n do
      let span = ref 0 and cost = ref 0 in
      for j = 0 to len - 1 do
        cost := !cost + costs.((k1 + j) mod n);
        if j < len - 1 then span := !span + periods.((k1 + j) mod n)
      done;
      if !span <= dt then begin
        let c = if capped then min dt !cost else !cost in
        if c > !best then best := c
      end
    done
  done;
  !best

let arb_cycle =
  QCheck.make
    ~print:(fun (c, p) ->
      Printf.sprintf "costs=%s periods=%s"
        (QCheck.Print.(list int) (Array.to_list c))
        (QCheck.Print.(list int) (Array.to_list p)))
    QCheck.Gen.(
      int_range 1 6 >>= fun n ->
      let* costs = array_size (return n) (int_range 0 50) in
      let* periods = array_size (return n) (int_range 0 40) in
      (* ensure a positive cycle *)
      let periods =
        if Array.fold_left ( + ) 0 periods = 0 then (
          periods.(0) <- 1;
          periods)
        else periods
      in
      return (costs, periods))

(* Wider cycles for the oracle comparison: up to 12 frames (the MPEG GOP)
   and mostly zero periods, so that many windows share a span and the
   staircase must break ties by cost. *)
let gen_wide_cycle =
  QCheck.Gen.(
    int_range 1 12 >>= fun n ->
    let* costs = array_size (return n) (int_range 0 50) in
    let* periods =
      array_size (return n) (frequency [ (3, return 0); (2, int_range 1 40) ])
    in
    if Array.fold_left ( + ) 0 periods = 0 then periods.(n - 1) <- 1;
    return (costs, periods))

(* dt from -1 to 3 * TSUM, i.e. across whole cycles. *)
let arb_wide_cycle_dt =
  QCheck.make
    ~print:(fun ((c, p), dt) ->
      Printf.sprintf "costs=%s periods=%s dt=%d"
        (QCheck.Print.(list int) (Array.to_list c))
        (QCheck.Print.(list int) (Array.to_list p))
        dt)
    QCheck.Gen.(
      let* ((_, periods) as cycle) = gen_wide_cycle in
      let tsum = Array.fold_left ( + ) 0 periods in
      let* dt = int_range (-1) (3 * tsum) in
      return (cycle, dt))

let prop_small_matches_bruteforce =
  QCheck.Test.make ~name:"small matches brute force" ~count:1000
    arb_wide_cycle_dt
    (fun ((costs, periods), dt) ->
      let d = Gmf.Demand.make ~costs ~periods in
      let tsum = Gmf.Demand.tsum d and csum = Gmf.Demand.cost_total d in
      (* Eqs (11)/(13) spelled out with the brute-force window maximum. *)
      let expected ~capped =
        if dt < 0 then 0
        else
          (dt / tsum * csum)
          + brute_small ~costs ~periods ~capped (dt mod tsum)
      in
      List.for_all
        (fun capped ->
          Gmf.Demand.small d ~capped dt
          = brute_small ~costs ~periods ~capped dt
          && Gmf.Demand.bound d ~capped dt = expected ~capped)
        [ false; true ])

(* Near max_int the whole-cycle term of eq (11)/(13) would wrap negative;
   the bound must saturate and stay monotone instead. *)
let test_bound_saturates () =
  (* 3 units per 2 ns: the bound at dt/2 fits an int, the one at dt not. *)
  let d = Gmf.Demand.make ~costs:[| 2; 1 |] ~periods:[| 1; 1 |] in
  let dt = max_int - 5 in
  List.iter
    (fun capped ->
      let far = Gmf.Demand.bound d ~capped dt
      and half = Gmf.Demand.bound d ~capped (dt / 2) in
      Alcotest.(check bool) "half-range bound is positive" true (half > 0);
      Alcotest.(check bool) "bound near max_int >= bound at dt/2" true
        (far >= half))
    [ false; true ]

(* The tables a scenario caches per (flow, link) are exactly the ones a
   fresh build from the same costs and periods yields. *)
let test_link_params_tables () =
  let scenario = Workload.Scenarios.fig1_videoconf () in
  let checked = ref 0 in
  List.iter
    (fun (flow : Traffic.Flow.t) ->
      let periods = Gmf.Spec.periods flow.Traffic.Flow.spec in
      List.iter
        (fun (src, dst) ->
          let p = Traffic.Scenario.params scenario flow ~src ~dst in
          incr checked;
          Alcotest.(check bool) "time table" true
            (p.Traffic.Link_params.time_demand
            = Gmf.Demand.make ~costs:p.Traffic.Link_params.c ~periods);
          Alcotest.(check bool) "count table" true
            (p.Traffic.Link_params.count_demand
            = Gmf.Demand.make ~costs:p.Traffic.Link_params.eth_frames
                ~periods))
        (Network.Route.hops flow.Traffic.Flow.route))
    (Traffic.Scenario.flows scenario);
  Alcotest.(check bool) "some links checked" true (!checked > 0)

let prop_bound_monotone =
  QCheck.Test.make ~name:"bound monotone in dt" ~count:500
    QCheck.(triple arb_cycle (int_range 0 500) (int_range 0 100))
    (fun ((costs, periods), dt, extra) ->
      let d = Gmf.Demand.make ~costs ~periods in
      Gmf.Demand.bound d ~capped:false dt
      <= Gmf.Demand.bound d ~capped:false (dt + extra)
      && Gmf.Demand.bound d ~capped:true dt
         <= Gmf.Demand.bound d ~capped:true (dt + extra))

let prop_bound_floor =
  QCheck.Test.make ~name:"bound >= whole-cycle demand" ~count:500
    QCheck.(pair arb_cycle (int_range 0 1_000))
    (fun ((costs, periods), dt) ->
      let d = Gmf.Demand.make ~costs ~periods in
      let floor_cycles = dt / Gmf.Demand.tsum d * Gmf.Demand.cost_total d in
      Gmf.Demand.bound d ~capped:false dt >= floor_cycles
      && Gmf.Demand.bound d ~capped:true dt >= floor_cycles)

let prop_window_additive =
  QCheck.Test.make ~name:"window_cost splits additively" ~count:500
    QCheck.(triple arb_cycle (int_range 0 5) (pair (int_range 0 8) (int_range 0 8)))
    (fun ((costs, periods), k1, (l1, l2)) ->
      let d = Gmf.Demand.make ~costs ~periods in
      Gmf.Demand.window_cost d ~k1 ~len:(l1 + l2)
      = Gmf.Demand.window_cost d ~k1 ~len:l1
        + Gmf.Demand.window_cost d ~k1:(k1 + l1) ~len:l2)

let prop_capped_below_uncapped =
  QCheck.Test.make ~name:"MXS <= NXS-style window cost and <= dt" ~count:500
    QCheck.(pair arb_cycle (int_range 0 300))
    (fun ((costs, periods), dt) ->
      let d = Gmf.Demand.make ~costs ~periods in
      let capped = Gmf.Demand.small d ~capped:true dt in
      capped <= Gmf.Demand.small d ~capped:false dt && capped <= dt)

(* Ground truth: explicitly enumerate the densest release sequence (every
   frame exactly its period after the predecessor) from every cyclic start,
   and check that the demand of every closed release-to-release window is
   covered by the uncapped bound - and that the bound is achieved by some
   window (it is a max over exactly these windows). *)
let prop_bound_covers_dense_releases =
  QCheck.Test.make ~name:"NX covers every dense release window" ~count:200
    arb_cycle
    (fun (costs, periods) ->
      let d = Gmf.Demand.make ~costs ~periods in
      let n = Array.length costs in
      let cycles = 3 in
      let ok = ref true in
      for k1 = 0 to n - 1 do
        (* releases.(i) = arrival instant of the i-th job of the sequence
           starting at frame k1. *)
        let total = cycles * n in
        let release = Array.make total 0 in
        for i = 1 to total - 1 do
          release.(i) <- release.(i - 1) + periods.((k1 + i - 1) mod n)
        done;
        for i = 0 to total - 1 do
          for j = i to total - 1 do
            let window = release.(j) - release.(i) in
            let demand = ref 0 in
            for m = i to j do
              demand := !demand + costs.((k1 + m) mod n)
            done;
            if !demand > Gmf.Demand.bound d ~capped:false window then
              ok := false
          done
        done
      done;
      !ok)

let prop_small_achieved_by_some_window =
  QCheck.Test.make ~name:"NXS value is achieved by a dense window" ~count:200
    QCheck.(pair arb_cycle (int_range 0 100))
    (fun ((costs, periods), dt) ->
      let d = Gmf.Demand.make ~costs ~periods in
      let dt = dt mod max 1 (Gmf.Demand.tsum d) in
      let target = Gmf.Demand.small d ~capped:false dt in
      (* Search the window space directly. *)
      let n = Array.length costs in
      let found = ref (target = 0) in
      for k1 = 0 to n - 1 do
        for len = 1 to n do
          let span = ref 0 and cost = ref 0 in
          for j = 0 to len - 1 do
            cost := !cost + costs.((k1 + j) mod n);
            if j < len - 1 then span := !span + periods.((k1 + j) mod n)
          done;
          if !span <= dt && !cost = target then found := true
        done
      done;
      !found)

let tests =
  [
    Alcotest.test_case "totals" `Quick test_totals;
    Alcotest.test_case "windows (eqs 7-9)" `Quick test_windows;
    Alcotest.test_case "NXS (eq 12)" `Quick test_small_uncapped;
    Alcotest.test_case "MXS (eq 10)" `Quick test_small_capped;
    Alcotest.test_case "MX/NX (eqs 11/13)" `Quick test_bound;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "bound saturates near max_int" `Quick
      test_bound_saturates;
    Alcotest.test_case "Link_params tables = fresh make" `Quick
      test_link_params_tables;
    QCheck_alcotest.to_alcotest prop_small_matches_bruteforce;
    QCheck_alcotest.to_alcotest prop_bound_monotone;
    QCheck_alcotest.to_alcotest prop_bound_floor;
    QCheck_alcotest.to_alcotest prop_window_additive;
    QCheck_alcotest.to_alcotest prop_capped_below_uncapped;
    QCheck_alcotest.to_alcotest prop_bound_covers_dense_releases;
    QCheck_alcotest.to_alcotest prop_small_achieved_by_some_window;
  ]
