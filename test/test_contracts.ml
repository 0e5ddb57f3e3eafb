(* The experiment contracts behind the CI smoke gates: Ablations'
   coord and law checks, Frontier.check, Soak.check and Sharded.check.
   For each contract, the values recorded in the BENCH_pr*.json files
   (or printed by the experiment) pass, and synthetic rows that break
   exactly one tripwire report exactly that tripwire's name. No test
   here runs a simulation. *)

let check_names = Alcotest.(check (list string))

(* --- A7 / A8 fleet rows --------------------------------------------------- *)

let herd ?(law = Inband.Control_law.Shift_worst)
    ?(coord = Cluster.Coordination.Uncoordinated) ?(p95 = 274.431)
    ?(converged = 4200.0) ?(violations = 0) ~n_lbs actions =
  {
    Cluster.Ablations.n_lbs;
    coord;
    law;
    p95_before_us = p95;
    p95_after_us = p95;
    total_actions = actions;
    per_lb_actions = [ actions ];
    victim_flips = 0;
    victim_weight_mean = 0.010;
    converged_ms = converged;
    msgs = 0;
    suppressed = 0;
    imposed = 0;
    pcc_checked = 100_000;
    pcc_violations = violations;
  }

(* Replace the row of (law, coord, n_lbs) with [f row]. *)
let edit rows ~law ~coord ~n_lbs f =
  List.map
    (fun (r : Cluster.Ablations.herd_row) ->
      if r.law = law && r.coord = coord && r.n_lbs = n_lbs then f r else r)
    rows

(* The A7 table `lbsim herd` prints at the default arguments: (policy,
   LBs, fleet-total actions), PCC clean throughout. *)
let coord_rows =
  List.map
    (fun (coord, n_lbs, actions) -> herd ~coord ~n_lbs actions)
    Cluster.Coordination.
      [
        (Uncoordinated, 1, 2141);
        (Uncoordinated, 2, 3734);
        (Uncoordinated, 4, 7398);
        (Gossip_average, 1, 239);
        (Gossip_average, 2, 388);
        (Gossip_average, 4, 698);
        (Leader, 1, 2141);
        (Leader, 2, 1963);
        (Leader, 4, 2416);
      ]

let coord_contract () =
  let check = Cluster.Ablations.coord_check in
  check_names "recorded table passes" [] (check coord_rows);
  let leader_4 actions =
    edit coord_rows ~law:Inband.Control_law.Shift_worst
      ~coord:Cluster.Coordination.Leader ~n_lbs:4 (fun r ->
        { r with total_actions = actions })
  in
  check_names "exactly half of none's actions passes" []
    (check (leader_4 3699));
  check_names "more than half fails churn" [ "churn" ] (check (leader_4 3700));
  check_names "a violation fails pcc" [ "pcc" ]
    (check
       (edit coord_rows ~law:Inband.Control_law.Shift_worst
          ~coord:Cluster.Coordination.Gossip_average ~n_lbs:2 (fun r ->
            { r with pcc_violations = 1 })));
  (* Churn is judged only when the sweep ran [none] beside a
     coordinated policy. *)
  let only coord =
    List.filter
      (fun (r : Cluster.Ablations.herd_row) -> r.coord = coord)
      (leader_4 7398)
  in
  check_names "none alone" [] (check (only Cluster.Coordination.Uncoordinated));
  check_names "leader alone" [] (check (only Cluster.Coordination.Leader))

(* BENCH_pr6.json's per-law fields: (law, coord, LBs, converged ms,
   post-injection p95 us, actions). *)
let law_rows =
  List.map
    (fun (law, coord, n_lbs, converged, p95, actions) ->
      herd ~law ~coord ~p95 ~converged ~n_lbs actions)
    Inband.Control_law.
      [
        (Shift_worst, Cluster.Coordination.Uncoordinated, 1, 4200.0, 274.431, 2141);
        (Shift_worst, Cluster.Coordination.Uncoordinated, 2, 4150.0, 274.431, 3734);
        (Shift_worst, Cluster.Coordination.Uncoordinated, 4, 4200.0, 274.431, 7398);
        (Knapsack, Cluster.Coordination.Uncoordinated, 1, 4250.0, 274.431, 246);
        (Knapsack, Cluster.Coordination.Uncoordinated, 2, 4300.0, 274.431, 467);
        (Knapsack, Cluster.Coordination.Uncoordinated, 4, 4500.0, 274.431, 1141);
        (Gradient, Cluster.Coordination.Uncoordinated, 1, 4450.0, 274.431, 318);
        (Gradient, Cluster.Coordination.Uncoordinated, 2, 4550.0, 274.431, 1002);
        (Gradient, Cluster.Coordination.Uncoordinated, 4, 4600.0, 274.431, 1519);
        (Gradient, Cluster.Coordination.Gossip_average, 1, 5900.0, 282.623, 197);
        (Gradient, Cluster.Coordination.Gossip_average, 2, 5650.0, 274.431, 350);
        (Gradient, Cluster.Coordination.Gossip_average, 4, 5900.0, 274.431, 637);
      ]

let law_contract () =
  let check = Cluster.Ablations.law_check in
  check_names "BENCH_pr6.json passes" [] (check law_rows);
  let baseline converged =
    edit law_rows ~law:Inband.Control_law.Shift_worst
      ~coord:Cluster.Coordination.Uncoordinated ~n_lbs:1 (fun r ->
        { r with converged_ms = converged })
  in
  let bound = 1.25 *. Cluster.Ablations.law_baseline_converged_ms in
  check_names "converging at the bound passes" [] (check (baseline bound));
  check_names "slower than the bound fails convergence" [ "convergence" ]
    (check (baseline (bound +. 1.0)));
  check_names "never converging fails convergence" [ "convergence" ]
    (check (baseline nan));
  check_names "a violation fails pcc" [ "pcc" ]
    (check
       (edit law_rows ~law:Inband.Control_law.Knapsack
          ~coord:Cluster.Coordination.Uncoordinated ~n_lbs:4 (fun r ->
            { r with pcc_violations = 1 })));
  check_names "gradient p95 above 1.1x shift-worst's fails p95" [ "p95" ]
    (check
       (edit law_rows ~law:Inband.Control_law.Gradient
          ~coord:Cluster.Coordination.Uncoordinated ~n_lbs:2 (fun r ->
            { r with p95_after_us = (1.1 *. 274.431) +. 0.01 })));
  let gossip n_lbs actions =
    edit law_rows ~law:Inband.Control_law.Gradient
      ~coord:Cluster.Coordination.Gossip_average ~n_lbs (fun r ->
        { r with total_actions = actions })
  in
  check_names "gossip no cheaper than gradient fails churn" [ "churn" ]
    (check (gossip 2 1002));
  check_names "churn is not judged at 1 LB" [] (check (gossip 1 10_000))

(* --- A12 frontier --------------------------------------------------------- *)

let cell remap intensity ~violations ~rate_ppm ~post_p95_us ~recovery_ms =
  {
    Cluster.Frontier.remap;
    intensity;
    slow_factor = 0.0;
    checked = 0;
    violations;
    violation_rate = rate_ppm /. 1e6;
    in_fault = 0;
    remapped = violations;
    actions = 0;
    responses = 0;
    pre_p95_us = 0.0;
    post_p95_us;
    post_p99_us = post_p95_us;
    recovery_ms;
  }

(* BENCH_pr10.json's cells: violations, rate (ppm), during-fault p95
   and recovery time. *)
let frontier_cells =
  let ttl = Inband.Remap.Ttl (Des.Time.us 300) in
  List.map
    (fun (remap, intensity, violations, rate_ppm, post_p95_us, recovery_ms) ->
      cell remap intensity ~violations ~rate_ppm ~post_p95_us
        ~recovery_ms:(Some recovery_ms))
    Inband.Remap.
      [
        (Preserve, "light", 0, 0.0, 1753.087, 3950.0);
        (Preserve, "medium", 0, 0.0, 3375.103, 4000.0);
        (Preserve, "heavy", 0, 0.0, 6619.135, 4000.0);
        (ttl, "light", 26, 26.606, 942.079, 0.0);
        (ttl, "medium", 27, 28.231, 1294.335, 0.0);
        (ttl, "heavy", 28, 32.075, 1392.639, 350.0);
        (Hot_k 8, "light", 47, 94.811, 1851.391, 0.0);
        (Hot_k 8, "medium", 33, 57.066, 1654.783, 0.0);
        (Hot_k 8, "heavy", 37, 66.137, 3178.495, 4000.0);
        (Immediate, "light", 34, 48.833, 1687.551, 0.0);
        (Immediate, "medium", 34, 48.826, 1687.551, 0.0);
        (Immediate, "heavy", 50, 92.003, 1753.087, 0.0);
      ]

let frontier_contract () =
  let check cells =
    Cluster.Frontier.check
      {
        Cluster.Frontier.duration = Des.Time.sec 10;
        fault_at = Des.Time.sec 2;
        fault_dur = Des.Time.sec 4;
        cells;
      }
  in
  let edit pred intensity f =
    List.map
      (fun (c : Cluster.Frontier.cell) ->
        if pred c.remap && c.intensity = intensity then f c else c)
      frontier_cells
  in
  let is_ttl = function Inband.Remap.Ttl _ -> true | _ -> false in
  let is r = ( = ) r in
  check_names "BENCH_pr10.json passes" [] (check frontier_cells);
  check_names "a preserve violation fails preserve-pcc" [ "preserve-pcc" ]
    (check
       (edit (is Inband.Remap.Preserve) "light" (fun c ->
            { c with violations = 1 })));
  check_names "a missing heavy cell fails grid" [ "grid" ]
    (check
       (List.filter
          (fun (c : Cluster.Frontier.cell) ->
            not (is_ttl c.remap && c.intensity = "heavy"))
          frontier_cells));
  check_names "ttl as sticky-breaking as immediate fails rate-monotone"
    [ "rate-monotone" ]
    (check
       (edit is_ttl "heavy" (fun c -> { c with violation_rate = 92.003e-6 })));
  check_names "ttl never recovering fails recovery-monotone"
    [ "recovery-monotone" ]
    (check (edit is_ttl "heavy" (fun c -> { c with recovery_ms = None })));
  check_names "immediate no faster than preserve fails recovery-p95"
    [ "recovery-p95" ]
    (check
       (edit (is Inband.Remap.Immediate) "heavy" (fun c ->
            { c with post_p95_us = 6619.135 })))

(* --- Soak ----------------------------------------------------------------- *)

let flat_verdict =
  {
    Cluster.Soak.metric = "soak.live_words";
    means = [| 1.0; 1.0 |];
    growth = 0.0;
    monotonic = false;
    bound = None;
    flat = true;
  }

(* The counts `lbsim soak --minutes 3 --warmup 30 --windows 4` prints. *)
let soak_result =
  {
    Cluster.Soak.duration = Des.Time.sec 180;
    sim_minutes = 3.0;
    verdicts = [ flat_verdict ];
    stuck_flows = 0;
    stuck_conns = 0;
    stuck_states = [];
    estimator_ok = true;
    pcc_checked = 9_351_864;
    pcc_violations = 0;
    reasm_drops = 167_072;
    send_drops = 0;
    fault_intervals = 27;
    pathology_conns = 14_388;
    gap_segments = 179_978;
    rsts_sent = 180_000;
    responses = 8_111_086;
    p95_us = 479.2;
    events_fired = 75_372_362;
    coord_msgs = 0;
    coord_suppressed = 0;
    coord_imposed = 0;
    coord_stale = 0;
    rows = [];
  }

let soak_contract () =
  let config = Cluster.Soak.default_config in
  let check = Cluster.Soak.check config in
  check_names "recorded soak passes" [] (check soak_result);
  check_names "a growing gauge fails flatness" [ "flatness" ]
    (check
       {
         soak_result with
         verdicts = [ flat_verdict; { flat_verdict with flat = false } ];
       });
  check_names "a stuck connection fails stuck" [ "stuck" ]
    (check { soak_result with stuck_conns = 1 });
  check_names "a diverged estimate fails estimator" [ "estimator" ]
    (check { soak_result with estimator_ok = false });
  check_names "a violation fails pcc" [ "pcc" ]
    (check { soak_result with pcc_violations = 1 });
  (* The default battery attacks with a gap flood, so it must hit the
     reassembly cap; a battery without one need not. *)
  let no_drops = { soak_result with reasm_drops = 0 } in
  check_names "no cap hit under a gap flood fails reasm-cap" [ "reasm-cap" ]
    (check no_drops);
  Alcotest.(check bool) "not ok" false (Cluster.Soak.ok config no_drops);
  let no_flood =
    {
      config with
      Cluster.Soak.pathologies =
        List.filter
          (function Workload.Pathology.Gap_flood _, _ -> false | _ -> true)
          config.Cluster.Soak.pathologies;
    }
  in
  Alcotest.(check bool)
    "ok without a gap flood" true
    (Cluster.Soak.ok no_flood no_drops)

(* --- Flows ---------------------------------------------------------------- *)

let flows_csv = "client_ip,sends,responses\ntotal,786432,688128\n"

let flows ~shards ~events_per_sec ~words_per_flow ~drain_windows =
  {
    Cluster.Sharded.n = 65_536;
    shards;
    events = 0;
    responses = 0;
    active_peak = 0;
    wall_s = 0.0;
    events_per_sec;
    words_per_flow;
    full_major_s = 0.0;
    csv = flows_csv;
    drain_windows;
    stats =
      {
        Des.Shard.shards;
        windows = 0;
        skipped_windows = 0;
        remote_posts = 0;
        inbox_peak_bytes = 0;
        events_fired = [||];
        stall_seconds = [||];
      };
  }

(* BENCH_pr4.json's single-engine rate, and BENCH_pr9.json's 4-shard
   rate on one core with its fixed-width drain count. Both carry the
   words per flow BENCH_pr23.json recorded at 1 and 2 shards once the
   flow table kept its keys inline; their own (51.8 and 19.9, with boxed
   keys) exceed today's budget. *)
let one =
  flows ~shards:1 ~events_per_sec:1_759_680.808 ~words_per_flow:13.232
    ~drain_windows:0

let four =
  flows ~shards:4 ~events_per_sec:1_933_119.358 ~words_per_flow:13.535
    ~drain_windows:13

let four_fixed = { four with drain_windows = 40_000 }

let flows_contract () =
  let base = Cluster.Sharded.baseline_events_per_sec in
  check_names "BENCH_pr4.json's rate passes" []
    (Cluster.Sharded.check ~cores:1 one);
  check_names "BENCH_pr9.json's rate passes" []
    (Cluster.Sharded.check ~cores:1 ~one_shard:one ~fixed:four_fixed four);
  let check ?(cores = 4) ?(one_shard = one) ?(fixed = four_fixed) r =
    Cluster.Sharded.check ~cores ~one_shard ~fixed r
  in
  (* With a core per shard, the aggregate rate is judged. *)
  check_names "1.9M events/s on 4 cores fails parallel-rate"
    [ "parallel-rate" ] (check four);
  let four = { four with events_per_sec = 2.0 *. base } in
  check_names "2x the baseline passes" [] (check four);
  check_names "below 2x fails parallel-rate" [ "parallel-rate" ]
    (check { four with events_per_sec = (2.0 *. base) -. 1.0 });
  check_names "a slow 1-shard rerun fails rate" [ "rate" ]
    (check ~one_shard:{ one with events_per_sec = (0.5 *. base) -. 1.0 } four);
  check_names "a slow unsharded run fails rate" [ "rate" ]
    (Cluster.Sharded.check ~cores:1
       { one with events_per_sec = (0.5 *. base) -. 1.0 });
  check_names "the boxed keys' 29.7 words a flow fail words" [ "words" ]
    (Cluster.Sharded.check ~cores:1 { one with words_per_flow = 29.732 });
  check_names "too many words fails words" [ "words" ]
    (check
       {
         four with
         words_per_flow =
           (1.5 *. Cluster.Sharded.baseline_words_per_flow) +. 0.1;
       });
  check_names "a 1-shard CSV mismatch fails determinism" [ "determinism" ]
    (check ~one_shard:{ one with csv = flows_csv ^ "x" } four);
  check_names "a fixed-width CSV mismatch fails adaptive-determinism"
    [ "adaptive-determinism" ]
    (check ~fixed:{ four_fixed with csv = "" } four);
  check_names "fixed-width at 3x the drain windows passes" []
    (check ~fixed:{ four_fixed with drain_windows = 39 } four);
  check_names "fixed-width below 3x fails adaptive-windows"
    [ "adaptive-windows" ]
    (check ~fixed:{ four_fixed with drain_windows = 38 } four)

let () =
  Alcotest.run "contracts"
    [
      ( "contracts",
        [
          Alcotest.test_case "coord (A7)" `Quick coord_contract;
          Alcotest.test_case "law (A8)" `Quick law_contract;
          Alcotest.test_case "frontier (A12)" `Quick frontier_contract;
          Alcotest.test_case "soak" `Quick soak_contract;
          Alcotest.test_case "flows" `Quick flows_contract;
        ] );
    ]
