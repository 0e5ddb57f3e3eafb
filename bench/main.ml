(* Benchmark and figure-regeneration harness.

   With no arguments, regenerates every figure of the paper's evaluation
   (Fig 2a, Fig 2b, Fig 3), runs the ablation benches from DESIGN.md and
   finishes with the Bechamel microbenchmarks of the datapath.

   Targets (as arguments): fig2a fig2b fig3 [--full]
   ablation-delta ablation-alpha ablation-epoch ablation-timing
   ablation-policy ablation-far ablation-herd [--check]
   ablation-law [--check] ablation-dependency ablation-estimator
   ablation-source micro e2e [--check] flows [-n N] [--shards K]
   [--check] soak [--minutes N] [--check] frontier [--check] history
   all

   [-j N] runs the independent simulations inside each target on N
   domains (Cluster.Parallel); N = 0 picks the runtime's recommended
   domain count. Results are byte-identical at any N. *)

let fig2_result = ref None

let fig2 () =
  match !fig2_result with
  | Some r -> r
  | None ->
      let r = Cluster.Fig2.run () in
      fig2_result := Some r;
      r

let run_fig2a () = Cluster.Fig2.print (fig2 ())

let run_fig3 ~full ~jobs () =
  let result =
    if full then
      (* The paper's timeline: injection at t = 100 s of a ~200 s run. *)
      Cluster.Fig3.run ~jobs ~duration:(Des.Time.sec 200)
        ~inject_at:(Des.Time.sec 100) ()
    else
      Cluster.Fig3.run ~jobs ~duration:(Des.Time.sec 30)
        ~inject_at:(Des.Time.sec 10) ()
  in
  Cluster.Fig3.print result

let run_ablation_alpha ~jobs () =
  Cluster.Ablations.print_alpha (Cluster.Ablations.alpha_sweep ~jobs ())

let run_ablation_epoch ~jobs () =
  Cluster.Ablations.print_epoch (Cluster.Ablations.epoch_sweep ~jobs ())

let run_ablation_timing ~jobs () =
  Cluster.Ablations.print_timing (Cluster.Ablations.timing_sweep ~jobs ())

let run_ablation_policy ~jobs () =
  Cluster.Fig3.print (Cluster.Ablations.policy_comparison ~jobs ())

let run_ablation_far ~jobs () =
  Cluster.Ablations.print_far (Cluster.Ablations.far_clients ~jobs ())

(* The extended A7: every (coordination policy, LB count) pair. Under
   [--check] it doubles as the coord-smoke CI gate: every run must be
   PCC-clean, and at the largest fleet each coordination policy must cut
   fleet-total control actions at least 2x vs uncoordinated. *)
let run_ablation_herd ~jobs ~check () =
  let rows = Cluster.Ablations.coord_sweep ~jobs () in
  Cluster.Ablations.print_coord rows;
  if check then begin
    let violations =
      List.fold_left
        (fun acc r -> acc + r.Cluster.Ablations.pcc_violations)
        0 rows
    in
    if violations > 0 then begin
      Fmt.epr "coord-smoke FAILED (tripwire: pcc): %d violations@." violations;
      exit 1
    end;
    let max_lbs =
      List.fold_left (fun m r -> Stdlib.max m r.Cluster.Ablations.n_lbs) 0 rows
    in
    let actions_at policy =
      List.find_map
        (fun r ->
          if r.Cluster.Ablations.coord = policy && r.Cluster.Ablations.n_lbs = max_lbs
          then Some r.Cluster.Ablations.total_actions
          else None)
        rows
    in
    match actions_at Cluster.Coordination.Uncoordinated with
    | None -> ()
    | Some base ->
        List.iter
          (fun policy ->
            match actions_at policy with
            | Some a when 2 * a > base ->
                Fmt.epr
                  "coord-smoke FAILED (tripwire: churn): %s at %d LBs took %d \
                   actions, more than half the uncoordinated %d@."
                  (Cluster.Coordination.policy_to_string policy)
                  max_lbs a base;
                exit 1
            | Some _ | None -> ())
          Cluster.Coordination.[ Gossip_average; Leader ];
        Fmt.pr "coord-smoke: ok (pcc clean; >=2x churn reduction at %d LBs)@."
          max_lbs
  end

let run_ablation_dependency ~jobs () =
  Cluster.Dependency.print (Cluster.Dependency.run_cases ~jobs ())

let run_ablation_estimator ~jobs () =
  Cluster.Ablations.print_estimator
    (Cluster.Ablations.estimator_comparison ~jobs ())

let run_ablation_source ~jobs () =
  Cluster.Ablations.print_source (Cluster.Ablations.source_comparison ~jobs ())

(* --- End-to-end datapath throughput (events/sec) ----------------------- *)

(* The Fig. 3 workload, stripped of figure bookkeeping: memtier clients
   through the latency-aware balancer into memcached servers, with the
   +1 ms path injection a third of the way in. Wall-clock per simulated
   DES event is the repo's end-to-end perf number; the best of
   [iterations] runs is recorded in BENCH_pr3.json so the trajectory is
   tracked across PRs. *)

let e2e_duration = Des.Time.sec 10
let e2e_iterations = 3

type e2e_measurement = {
  events_per_sec : float;
  wall_s : float;
  events : int;
  responses : int;
}

let e2e_once () =
  let scenario =
    {
      Cluster.Scenario.default_config with
      Cluster.Scenario.policy = Inband.Policy.Latency_aware;
      lb =
        { Inband.Config.default with Inband.Config.relative_threshold = 1.3 };
    }
  in
  let s = Cluster.Scenario.build scenario in
  Cluster.Scenario.inject_server_delay s ~server:1 ~at:(Des.Time.sec 3)
    ~delay:(Des.Time.ms 1);
  let t0 = Unix.gettimeofday () in
  Cluster.Scenario.run s ~until:e2e_duration;
  let wall_s = Unix.gettimeofday () -. t0 in
  let events = Des.Engine.events_fired (Cluster.Scenario.engine s) in
  let responses =
    match
      Telemetry.Registry.value (Cluster.Scenario.telemetry s)
        "client.responses"
    with
    | Some v -> int_of_float v
    | None -> 0
  in
  { events_per_sec = float_of_int events /. wall_s; wall_s; events; responses }

(* BENCH_pr*.json handling lives in Cluster.Bench_store (shared with the
   unit tests); each bench finds its baseline in the newest numbered
   file carrying its key. Under [--check], every failure names the
   tripwire that fired — [rate], [words] or [baseline-discovery] — so a
   red CI job says what regressed without reading the harness. *)
let bench_json_read = Cluster.Bench_store.read
let bench_json_write = Cluster.Bench_store.write

(* A bench's baseline file, plus whether discovery actually found one.
   Self-recording a fresh baseline is fine interactively but makes a
   [--check] vacuous, so the checkers treat it as a tripwire. *)
let bench_json_locate ~key ~fallback =
  match Cluster.Bench_store.locate_opt ~key () with
  | Some path -> (path, true)
  | None -> (fallback, false)

let tripwire_fail ~smoke ~tripwire fmt =
  Fmt.kstr
    (fun msg ->
      Fmt.epr "%s FAILED (tripwire: %s): %s@." smoke tripwire msg;
      exit 1)
    fmt

(* Under --check a bench must be comparing against a recorded baseline,
   not one it just invented. *)
let require_discovered ~smoke ~key ~check discovered =
  if check && not discovered then
    tripwire_fail ~smoke ~tripwire:"baseline-discovery"
      "no BENCH_pr*.json carries %S (searched: %s); a recorded baseline is \
       required under --check"
      key
      (match Cluster.Bench_store.files () with
      | [] -> "none found"
      | fs -> String.concat ", " fs)

(* A8: the control-law zoo under the herd injection. Under [--check] it
   is the law-smoke CI gate. Tripwires: every law must stay PCC-clean;
   the baseline law (shift-worst, 1 LB, uncoordinated) must converge,
   and no slower than the recorded BENCH_pr6.json baseline (25%
   tolerance); the gradient law's post-injection p95 must stay within
   10% of shift-worst's at every fleet size; and gradient+gossip must
   cut fleet-total actions vs uncoordinated gradient at every multi-LB
   fleet size. Results are recorded via Cluster.Bench_store so the
   newest-baseline discovery picks them up. *)
let run_ablation_law ~jobs ~check () =
  let rows = Cluster.Ablations.law_sweep ~jobs () in
  Cluster.Ablations.print_laws rows;
  let find law coord n_lbs =
    List.find_opt
      (fun r ->
        r.Cluster.Ablations.law = law
        && r.Cluster.Ablations.coord = coord
        && r.Cluster.Ablations.n_lbs = n_lbs)
      rows
  in
  let lb_counts =
    List.sort_uniq compare (List.map (fun r -> r.Cluster.Ablations.n_lbs) rows)
  in
  let finite v = if Float.is_nan v then -1.0 else v in
  let fields =
    List.concat_map
      (fun r ->
        let prefix =
          Fmt.str "law_%s_%s_%dlb"
            (Inband.Control_law.to_string r.Cluster.Ablations.law)
            (Cluster.Coordination.policy_to_string r.Cluster.Ablations.coord)
            r.Cluster.Ablations.n_lbs
        in
        [
          (prefix ^ "_converged_ms", finite r.Cluster.Ablations.converged_ms);
          (prefix ^ "_p95_after_us", finite r.Cluster.Ablations.p95_after_us);
          (prefix ^ "_actions", float_of_int r.Cluster.Ablations.total_actions);
        ])
      rows
  in
  let baseline_key = "law_baseline_converged_ms" in
  let bench_json_path, discovered =
    bench_json_locate ~key:baseline_key ~fallback:"BENCH_pr6.json"
  in
  require_discovered ~smoke:"law-smoke" ~key:baseline_key ~check discovered;
  let measured_baseline =
    match
      find Inband.Control_law.Shift_worst Cluster.Coordination.Uncoordinated 1
    with
    | Some r -> r.Cluster.Ablations.converged_ms
    | None -> nan
  in
  let recorded_baseline =
    (* First ever run records itself as the baseline; later runs keep
       the recorded value and update only the per-law fields. *)
    match List.assoc_opt baseline_key (bench_json_read bench_json_path) with
    | Some v when v > 0.0 -> v
    | Some _ | None -> finite measured_baseline
  in
  bench_json_write bench_json_path ~bench:"ablation-law"
    ((baseline_key, recorded_baseline) :: fields);
  Fmt.pr "wrote %s@." bench_json_path;
  if check then begin
    let violations =
      List.fold_left
        (fun acc r -> acc + r.Cluster.Ablations.pcc_violations)
        0 rows
    in
    if violations > 0 then
      tripwire_fail ~smoke:"law-smoke" ~tripwire:"pcc" "%d violations"
        violations;
    (if Float.is_nan measured_baseline then
       tripwire_fail ~smoke:"law-smoke" ~tripwire:"convergence"
         "the baseline law (shift-worst, 1 LB) never converged"
     else if
       recorded_baseline > 0.0
       && measured_baseline > 1.25 *. recorded_baseline
     then
       tripwire_fail ~smoke:"law-smoke" ~tripwire:"convergence"
         "shift-worst at 1 LB converged in %.0fms, slower than 1.25x the \
          recorded %.0fms"
         measured_baseline recorded_baseline);
    List.iter
      (fun n_lbs ->
        match
          ( find Inband.Control_law.Shift_worst
              Cluster.Coordination.Uncoordinated n_lbs,
            find Inband.Control_law.Gradient Cluster.Coordination.Uncoordinated
              n_lbs,
            find Inband.Control_law.Gradient Cluster.Coordination.Gossip_average
              n_lbs )
        with
        | Some base, Some grad, gossip ->
            if
              grad.Cluster.Ablations.p95_after_us
              > 1.10 *. base.Cluster.Ablations.p95_after_us
            then
              tripwire_fail ~smoke:"law-smoke" ~tripwire:"p95"
                "gradient post-injection p95 at %d LBs is %.1fus, above 1.1x \
                 shift-worst's %.1fus"
                n_lbs grad.Cluster.Ablations.p95_after_us
                base.Cluster.Ablations.p95_after_us;
            (match gossip with
            | Some g
              when n_lbs > 1
                   && g.Cluster.Ablations.total_actions
                      >= grad.Cluster.Ablations.total_actions ->
                tripwire_fail ~smoke:"law-smoke" ~tripwire:"churn"
                  "gradient+gossip at %d LBs took %d actions, no fewer than \
                   uncoordinated gradient's %d"
                  n_lbs g.Cluster.Ablations.total_actions
                  grad.Cluster.Ablations.total_actions
            | Some _ | None -> ())
        | _ -> ())
      lb_counts;
    Fmt.pr
      "law-smoke: ok (pcc clean; baseline converged in %.0fms; gradient p95 \
       within 1.1x; gossip cuts gradient churn)@."
      measured_baseline
  end

let measurement_fields prefix m =
  [
    (prefix ^ "_events_per_sec", m.events_per_sec);
    (prefix ^ "_wall_s", m.wall_s);
    (prefix ^ "_events", float_of_int m.events);
    (prefix ^ "_responses", float_of_int m.responses);
  ]

let run_e2e ~check () =
  print_endline
    (Cluster.Report.section
       (Fmt.str "End-to-end datapath throughput (Fig. 3 workload, %.0fs sim)"
          (Des.Time.to_float_s e2e_duration)));
  let best = ref None in
  for i = 1 to e2e_iterations do
    let m = e2e_once () in
    Fmt.pr "run %d/%d: %d events in %.2fs wall = %.0f events/s (%d responses)@."
      i e2e_iterations m.events m.wall_s m.events_per_sec m.responses;
    match !best with
    | Some b when b.events_per_sec >= m.events_per_sec -> ()
    | Some _ | None -> best := Some m
  done;
  let m = match !best with Some m -> m | None -> assert false in
  let bench_json_path, discovered =
    bench_json_locate ~key:"before_events_per_sec" ~fallback:"BENCH_pr3.json"
  in
  require_discovered ~smoke:"perf-smoke" ~key:"before_events_per_sec" ~check
    discovered;
  let prior = bench_json_read bench_json_path in
  let before =
    (* First ever run records itself as the baseline; later runs keep the
       recorded baseline and update only the "after" side. *)
    List.filter (fun (k, _) -> String.length k > 7 && String.sub k 0 7 = "before_") prior
  in
  let before = if before = [] then measurement_fields "before" m else before in
  bench_json_write bench_json_path ~bench:"fig3-e2e"
    (before @ measurement_fields "after" m);
  Fmt.pr "best: %.0f events/s; wrote %s@." m.events_per_sec bench_json_path;
  (match List.assoc_opt "before_events_per_sec" before with
  | Some b when b > 0.0 ->
      Fmt.pr "recorded baseline: %.0f events/s (%.2fx)@." b
        (m.events_per_sec /. b);
      if check && m.events_per_sec < 0.5 *. b then
        tripwire_fail ~smoke:"perf-smoke" ~tripwire:"rate"
          "%.0f events/s is below half the recorded baseline (%.0f events/s)"
          m.events_per_sec b
  | Some _ | None -> ())


(* --- Remap frontier (bench frontier) ----------------------------------- *)

(* The PCC / recovery-latency frontier (Cluster.Frontier): one cell per
   (remap policy x slow-backend fault intensity), recorded in
   BENCH_pr10.json. Under [--check] it is the frontier-smoke CI gate,
   with intrinsic tripwires — no recorded baseline needed, the shape of
   the frontier itself is the contract: preserve must count exactly
   zero violations at every intensity; down the heavy-fault column the
   violation rate must strictly increase preserve -> ttl -> immediate
   while the p95 recovery time strictly decreases; and immediate must
   beat preserve's during-fault p95. *)
let run_frontier ~jobs ~check () =
  let result = Cluster.Frontier.run ~jobs () in
  Cluster.Frontier.print result;
  let tag (remap : Inband.Remap.t) =
    String.map
      (fun c -> if c = ':' then '_' else c)
      (Inband.Remap.to_string remap)
  in
  let opt_val = function None -> -1.0 | Some ms -> ms in
  let fields =
    List.concat_map
      (fun (c : Cluster.Frontier.cell) ->
        let prefix = Fmt.str "frontier_%s_%s" (tag c.remap) c.intensity in
        [
          (prefix ^ "_violations", float_of_int c.violations);
          (* Rates are ~1e-5; the store keeps 3 decimals, so record ppm. *)
          (prefix ^ "_rate_ppm", 1e6 *. c.violation_rate);
          (prefix ^ "_in_fault", float_of_int c.in_fault);
          (prefix ^ "_remapped", float_of_int c.remapped);
          (prefix ^ "_post_p95_us", c.post_p95_us);
          (prefix ^ "_post_p99_us", c.post_p99_us);
          (prefix ^ "_recovery_ms", opt_val c.recovery_ms);
        ])
      result.Cluster.Frontier.cells
  in
  bench_json_write "BENCH_pr10.json" ~bench:"frontier" fields;
  Fmt.pr "wrote BENCH_pr10.json@.";
  if check then begin
    let cell pred intensity =
      List.find_opt
        (fun (c : Cluster.Frontier.cell) ->
          pred c.Cluster.Frontier.remap && c.Cluster.Frontier.intensity = intensity)
        result.Cluster.Frontier.cells
    in
    let require pred intensity what =
      match cell pred intensity with
      | Some c -> c
      | None ->
          tripwire_fail ~smoke:"frontier-smoke" ~tripwire:"grid"
            "no %s cell at the %s intensity" what intensity
    in
    let is_preserve = function Inband.Remap.Preserve -> true | _ -> false in
    let is_ttl = function Inband.Remap.Ttl _ -> true | _ -> false in
    let is_immediate = function Inband.Remap.Immediate -> true | _ -> false in
    (* Preserve is the paper's contract: zero violations, everywhere. *)
    List.iter
      (fun (c : Cluster.Frontier.cell) ->
        if is_preserve c.remap && c.violations > 0 then
          tripwire_fail ~smoke:"frontier-smoke" ~tripwire:"preserve-pcc"
            "preserve counted %d violations at the %s intensity" c.violations
            c.intensity)
      result.Cluster.Frontier.cells;
    let pre = require is_preserve "heavy" "preserve" in
    let ttl = require is_ttl "heavy" "ttl" in
    let imm = require is_immediate "heavy" "immediate" in
    (* The frontier must slope the right way: each step of remap
       aggression buys recovery time and costs stickiness. *)
    if
      not
        (pre.violation_rate < ttl.violation_rate
        && ttl.violation_rate < imm.violation_rate)
    then
      tripwire_fail ~smoke:"frontier-smoke" ~tripwire:"rate-monotone"
        "heavy-column violation rates are not strictly increasing: preserve \
         %.6f, ttl %.6f, immediate %.6f"
        pre.violation_rate ttl.violation_rate imm.violation_rate;
    let rec_ms (c : Cluster.Frontier.cell) =
      match c.recovery_ms with Some ms -> ms | None -> infinity
    in
    if not (rec_ms pre > rec_ms ttl && rec_ms ttl > rec_ms imm) then
      tripwire_fail ~smoke:"frontier-smoke" ~tripwire:"recovery-monotone"
        "heavy-column recovery times are not strictly decreasing: preserve \
         %.0fms, ttl %.0fms, immediate %.0fms"
        (rec_ms pre) (rec_ms ttl) (rec_ms imm);
    if imm.post_p95_us >= pre.post_p95_us then
      tripwire_fail ~smoke:"frontier-smoke" ~tripwire:"recovery-p95"
        "immediate's during-fault p95 (%.0fus) does not beat preserve's \
         (%.0fus) under the heavy fault"
        imm.post_p95_us pre.post_p95_us;
    Fmt.pr
      "frontier-smoke: ok (preserve clean; heavy column monotone: rates \
       %.6f < %.6f < %.6f, recovery %.0fms > %.0fms > %.0fms; immediate \
       during-fault p95 %.0fus < preserve %.0fus)@."
      pre.violation_rate ttl.violation_rate imm.violation_rate (rec_ms pre)
      (rec_ms ttl) (rec_ms imm) imm.post_p95_us pre.post_p95_us
  end

(* --- Soak battery (bench soak) ---------------------------------------- *)

(* Hours-scale churn + repeating faults + pathological clients, judged
   on flatness of memory telemetry rather than throughput (Cluster.Soak).
   Under [--check] it is the soak-smoke CI gate: ~3 simulated minutes
   with the full adversarial battery, tripwires on flatness, stuck
   flows, estimator health, PCC, and the reassembly cap actually
   engaging (the gap flood must be refused, not buffered). [--minutes N]
   overrides the simulated length; the full default is 30 minutes. *)
let run_soak ~minutes ~check () =
  let config =
    let base = Cluster.Soak.default_config in
    if minutes > 0 then
      let duration = Des.Time.sec (minutes * 60) in
      {
        base with
        Cluster.Soak.duration;
        warmup = Stdlib.min base.Cluster.Soak.warmup (duration / 4);
      }
    else if check then
      {
        base with
        Cluster.Soak.duration = Des.Time.sec (3 * 60);
        warmup = Des.Time.sec 30;
        windows = 4;
      }
    else base
  in
  print_endline
    (Cluster.Report.section
       (Fmt.str "Soak battery (%.0f simulated minutes)"
          (Des.Time.to_float_s config.Cluster.Soak.duration /. 60.0)));
  let t0 = Unix.gettimeofday () in
  let result = Cluster.Soak.run ~config () in
  let wall_s = Unix.gettimeofday () -. t0 in
  Cluster.Soak.print ~config result;
  Fmt.pr "wall: %.1fs (%.1fx real time)@." wall_s
    (Des.Time.to_float_s config.Cluster.Soak.duration /. wall_s);
  let metric_field (v : Cluster.Soak.verdict) =
    ( "soak_growth_"
      ^ String.map (fun c -> if c = '.' then '_' else c) v.Cluster.Soak.metric,
      v.Cluster.Soak.growth )
  in
  bench_json_write "BENCH_pr7.json" ~bench:"soak"
    ([
       ("soak_sim_minutes", result.Cluster.Soak.sim_minutes);
       ("soak_wall_s", wall_s);
       ("soak_events", float_of_int result.Cluster.Soak.events_fired);
       ("soak_responses", float_of_int result.Cluster.Soak.responses);
       ("soak_p95_us", result.Cluster.Soak.p95_us);
       ("soak_fault_intervals", float_of_int result.Cluster.Soak.fault_intervals);
       ("soak_pcc_checked", float_of_int result.Cluster.Soak.pcc_checked);
       ("soak_reasm_drops", float_of_int result.Cluster.Soak.reasm_drops);
       ("soak_send_drops", float_of_int result.Cluster.Soak.send_drops);
       ("soak_stuck_flows", float_of_int result.Cluster.Soak.stuck_flows);
       ("soak_stuck_conns", float_of_int result.Cluster.Soak.stuck_conns);
     ]
    @ List.map metric_field result.Cluster.Soak.verdicts);
  Fmt.pr "wrote BENCH_pr7.json@.";
  if check then begin
    List.iter
      (fun (v : Cluster.Soak.verdict) ->
        if not v.Cluster.Soak.flat then
          tripwire_fail ~smoke:"soak-smoke" ~tripwire:"flatness"
            "%s grew %+.0f%% across windows%s" v.Cluster.Soak.metric
            (100.0 *. v.Cluster.Soak.growth)
            (if v.Cluster.Soak.monotonic then " (strictly monotonic)" else ""))
      result.Cluster.Soak.verdicts;
    if result.Cluster.Soak.stuck_flows > 0 || result.Cluster.Soak.stuck_conns > 0
    then
      tripwire_fail ~smoke:"soak-smoke" ~tripwire:"stuck-flows"
        "%d LB flows and %d server connections survived the drain"
        result.Cluster.Soak.stuck_flows result.Cluster.Soak.stuck_conns;
    if not result.Cluster.Soak.estimator_ok then
      tripwire_fail ~smoke:"soak-smoke" ~tripwire:"estimator"
        "a post-warmup latency estimate went NaN or infinite";
    if result.Cluster.Soak.pcc_violations > 0 then
      tripwire_fail ~smoke:"soak-smoke" ~tripwire:"pcc" "%d violations"
        result.Cluster.Soak.pcc_violations;
    if result.Cluster.Soak.reasm_drops = 0 then
      tripwire_fail ~smoke:"soak-smoke" ~tripwire:"reasm-cap"
        "the gap flood never hit the reassembly cap: either the flood is \
         broken or out-of-order memory is unbounded";
    Fmt.pr
      "soak-smoke: ok (%.1f sim minutes flat; %d reasm drops; pcc clean)@."
      result.Cluster.Soak.sim_minutes result.Cluster.Soak.reasm_drops
  end

(* --- Flow-scale churn benchmark (bench flows) ------------------------- *)

(* N concurrent flows doing request/response churn through the balancer
   datapath alone (no TCP endpoints), now running on [Cluster.Sharded]:
   the hosts are partitioned across --shards engine shards (one domain
   each, synchronized windows; DESIGN.md §14), with shards=1 reproducing
   the historical single-engine run exactly. A pacer event sends one
   packet per flow round-robin, the balancer routes it over a fabric
   link, and the server replies straight back to the client (DSR). Every
   8th packet of a flow carries FIN and the flow reincarnates under a
   fresh source port, exercising slab slot recycling, tombstone deletion
   in the flow table, and wheel-timer idle expiry at full scale. Metrics
   recorded: aggregate events/s over the whole run, steady-state live
   words per flow (measured under a forced full major at peak
   concurrency), major GC counters, and the parallel engine's window /
   barrier-stall health. *)

let flows_clients = Cluster.Sharded.clients
let flows_rounds = Cluster.Sharded.rounds

(* [flows] rewrites only its own [flows_*] fields of this file and keeps
   the rest, such as the historical [fig3_shards_*] record. *)
let bench_pr9 = "BENCH_pr9.json"

let bench_pr9_merge fields =
  let kept =
    List.filter
      (fun (k, _) -> not (String.starts_with ~prefix:"flows_" k))
      (bench_json_read bench_pr9)
  in
  bench_json_write bench_pr9 ~bench:"adaptive-shards" (kept @ fields)

let run_flows ~n ~shards ~check () =
  let shards = Cluster.Sharded.resolve_shards shards in
  print_endline
    (Cluster.Report.section
       (Fmt.str "Flow-scale churn (%d concurrent flows, %d sends, %d shards)"
          n (flows_rounds * n) shards));
  let r = Cluster.Sharded.flows ~shards ~n () in
  let stall =
    Array.fold_left Stdlib.max 0.0 r.Cluster.Sharded.stats.Des.Shard.stall_seconds
  in
  Fmt.pr
    "%d events in %.2fs wall = %.0f events/s aggregate; %d responses@.\
     peak %d tracked flows, %.1f live words/flow (full major: %.3fs)@.\
     major GC: %d collections, %.0f words promoted@.\
     %d windows (%d adaptively skipped, %d in drain), %d cross-shard posts, \
     inbox peak %d bytes, max barrier stall %.3fs@."
    r.Cluster.Sharded.events r.wall_s r.events_per_sec r.responses
    r.active_peak r.words_per_flow r.full_major_s r.major_collections
    r.major_words r.stats.Des.Shard.windows
    r.stats.Des.Shard.skipped_windows r.drain_windows
    r.stats.Des.Shard.remote_posts r.stats.Des.Shard.inbox_peak_bytes stall;
  (* Adaptive vs fixed-width window accounting (shards >= 2 only: one
     shard runs without barriers). The idle-expiry drain phase is where
     event-horizon widening pays — fixed-width covers the 200 ms drain
     in span/lookahead windows, adaptive in a handful of jumps — so
     both totals and the drain-phase counts are recorded, and the CI
     tripwire below compares the drain phase. The dense send phase
     gains little by design: its events sit ~1 µs apart, so a widened
     window is barely larger than a fixed one. *)
  let fixed =
    if shards >= 2 then begin
      let f = Cluster.Sharded.flows ~shards ~adaptive:false ~n () in
      Fmt.pr
        "fixed-width windows: %d total, %d in drain (adaptive: %d / %d)@."
        f.Cluster.Sharded.stats.Des.Shard.windows f.drain_windows
        r.stats.Des.Shard.windows r.drain_windows;
      Some f
    end
    else None
  in
  let path, discovered =
    bench_json_locate ~key:"flows_baseline_events_per_sec"
      ~fallback:"BENCH_pr4.json"
  in
  require_discovered ~smoke:"flow-smoke" ~key:"flows_baseline_events_per_sec"
    ~check discovered;
  let prior = bench_json_read path in
  let baseline =
    (* First ever run records itself as the baseline; later runs keep it
       and update only the current measurement. *)
    match
      ( List.assoc_opt "flows_baseline_events_per_sec" prior,
        List.assoc_opt "flows_baseline_words_per_flow" prior )
    with
    | Some eps, Some words -> [ ("flows_baseline_events_per_sec", eps);
                                ("flows_baseline_words_per_flow", words) ]
    | _ ->
        [ ("flows_baseline_events_per_sec", r.events_per_sec);
          ("flows_baseline_words_per_flow", r.words_per_flow) ]
  in
  let window_fields =
    match fixed with
    | None -> []
    | Some f ->
        [
          ( "flows_windows_adaptive",
            float_of_int r.Cluster.Sharded.stats.Des.Shard.windows );
          ( "flows_windows_fixed",
            float_of_int f.Cluster.Sharded.stats.Des.Shard.windows );
          ("flows_drain_windows_adaptive", float_of_int r.drain_windows);
          ("flows_drain_windows_fixed", float_of_int f.drain_windows);
        ]
  in
  (* Results land in this PR's file; the baseline fields carried forward
     from the newest file that had them keep discovery working. *)
  let out = bench_pr9 in
  bench_pr9_merge
    (baseline
    @ [
        ("flows_n", float_of_int r.n);
        ("flows_shards", float_of_int shards);
        ("flows_cores", float_of_int (Domain.recommended_domain_count ()));
        ("flows_events_per_sec", r.events_per_sec);
        ("flows_wall_s", r.wall_s);
        ("flows_events", float_of_int r.events);
        ("flows_responses", float_of_int r.responses);
        ("flows_live_words_per_flow", r.words_per_flow);
        ("flows_active_peak", float_of_int r.active_peak);
        ("flows_major_collections", float_of_int r.major_collections);
        ("flows_major_words", r.major_words);
        ("flows_full_major_s", r.full_major_s);
        ("flows_windows", float_of_int r.stats.Des.Shard.windows);
        ( "flows_skipped_windows",
          float_of_int r.stats.Des.Shard.skipped_windows );
        ("flows_drain_windows", float_of_int r.drain_windows);
        ( "flows_remote_posts",
          float_of_int r.stats.Des.Shard.remote_posts );
        ( "flows_inbox_peak_bytes",
          float_of_int r.stats.Des.Shard.inbox_peak_bytes );
        ("flows_barrier_stall_s", stall);
      ]
    @ window_fields);
  Fmt.pr "wrote %s (baseline from %s)@." out path;
  if check then begin
    let base_eps = List.assoc "flows_baseline_events_per_sec" baseline in
    let base_words = List.assoc "flows_baseline_words_per_flow" baseline in
    Fmt.pr "recorded baseline: %.0f events/s, %.1f words/flow@." base_eps
      base_words;
    (* With >= 2 shards, --check re-runs the scenario on one shard for
       the byte-equality tripwire below; the sequential rate floor is
       judged against that run — a sharded run on too few cores
       time-slices and its aggregate rate says nothing about the
       single-engine datapath the baseline measures. *)
    let r1 =
      if shards >= 2 then Some (Cluster.Sharded.flows ~shards:1 ~n ())
      else None
    in
    let seq_eps =
      match r1 with
      | Some r1 -> r1.Cluster.Sharded.events_per_sec
      | None -> r.events_per_sec
    in
    if seq_eps < 0.5 *. base_eps then
      tripwire_fail ~smoke:"flow-smoke" ~tripwire:"rate"
        "%.0f events/s is below half the recorded baseline (%.0f events/s)"
        seq_eps base_eps;
    if r.words_per_flow > 1.5 *. base_words then
      tripwire_fail ~smoke:"flow-smoke" ~tripwire:"words"
        "%.1f live words/flow exceeds the recorded budget (%.1f words/flow) \
         x1.5"
        r.words_per_flow base_words;
    match r1 with
    | None -> ()
    | Some r1 ->
      (* Parallel-specific tripwires. Byte-equality: the K-invariant CSV
         from a 1-shard run of the same scenario must match the sharded
         run exactly — the determinism contract, checked end to end.
         Scaling: with >= 2 real shards the aggregate rate must clear 2x
         the recorded single-core baseline, the floor that catches a
         serialization regression in the window protocol. Both are
         skipped when only one shard resolved (nothing parallel ran). *)
      if not (String.equal r1.Cluster.Sharded.csv r.Cluster.Sharded.csv) then
        tripwire_fail ~smoke:"shard-smoke" ~tripwire:"determinism"
          "shards=%d CSV differs from shards=1 CSV at n=%d" shards n;
      Fmt.pr "determinism: shards=%d CSV byte-identical to shards=1@." shards;
      (match fixed with
      | None -> ()
      | Some f ->
          if not (String.equal f.Cluster.Sharded.csv r.Cluster.Sharded.csv)
          then
            tripwire_fail ~smoke:"shard-smoke" ~tripwire:"determinism"
              "adaptive CSV differs from fixed-width CSV at shards=%d n=%d"
              shards n;
          Fmt.pr
            "determinism: adaptive CSV byte-identical to fixed-width@.";
          (* The event-horizon optimisation must collapse the idle-heavy
             drain phase by at least 3x; the dense send phase is exempt
             (its windows are event-bound either way). *)
          if 3 * r.drain_windows > f.drain_windows then
            tripwire_fail ~smoke:"shard-smoke" ~tripwire:"adaptive-windows"
              "adaptive drain took %d windows, not >= 3x fewer than \
               fixed-width's %d"
              r.drain_windows f.drain_windows;
          Fmt.pr
            "adaptive drain: %d windows vs fixed-width %d (%.0fx fewer)@."
            r.drain_windows f.drain_windows
            (float_of_int f.drain_windows
            /. float_of_int (Stdlib.max 1 r.drain_windows)));
      (* The scaling floor only means something when every shard got a
         core: oversubscribed (more shards than cores) the domains
         time-slice and barrier stall dominates by construction. *)
      if Domain.recommended_domain_count () >= shards then begin
        if r.events_per_sec < 2.0 *. base_eps then
          tripwire_fail ~smoke:"shard-smoke" ~tripwire:"parallel-rate"
            "aggregate %.0f events/s with %d shards is below 2x the recorded \
             single-core baseline (%.0f events/s)"
            r.events_per_sec shards base_eps
      end
      else
        Fmt.pr
          "parallel-rate tripwire skipped: %d shards on %d cores \
           (oversubscribed)@."
          shards
          (Domain.recommended_domain_count ())
  end

(* --- bench history: the cross-PR perf trajectory ----------------------- *)

(* One row per BENCH_pr*.json, oldest first, each column read from the
   first key of its list that the file carries; "-" where a file
   predates (or never measured) a metric. *)
let run_history () =
  print_endline
    (Cluster.Report.section "Benchmark history (BENCH_pr*.json, oldest first)");
  match Cluster.Bench_store.files () with
  | [] -> print_endline "no BENCH_pr*.json files found"
  | files ->
      let cell fields keys render =
        match List.find_map (fun k -> List.assoc_opt k fields) keys with
        | Some v -> render v
        | None -> "-"
      in
      let headers =
        [
          "file";
          "events/s";
          "words/flow";
          "windows";
          "skipped";
          "stall s";
          "p95 us";
          "converged ms";
        ]
      in
      let rows =
        (* files () is newest-first; the trajectory reads oldest-first. *)
        List.rev_map
          (fun file ->
            let fields = bench_json_read file in
            [
              file;
              cell fields
                [ "flows_events_per_sec"; "after_events_per_sec" ]
                (Fmt.str "%.0f");
              cell fields [ "flows_live_words_per_flow" ] (Fmt.str "%.1f");
              cell fields [ "flows_windows" ] (Fmt.str "%.0f");
              cell fields [ "flows_skipped_windows" ] (Fmt.str "%.0f");
              cell fields [ "flows_barrier_stall_s" ] (Fmt.str "%.3f");
              cell fields [ "soak_p95_us" ] (Fmt.str "%.1f");
              cell fields [ "law_baseline_converged_ms" ] (Fmt.str "%.0f");
            ])
          files
      in
      print_endline (Cluster.Report.table ~headers rows)

(* --- Bechamel microbenchmarks: the per-packet datapath costs --------- *)

let micro_tests () =
  let open Bechamel in
  let names n = Array.init n (fun i -> Fmt.str "server-%d" i) in
  let build_table n =
    Test.make
      ~name:(Fmt.str "maglev populate n=%d m=4099" n)
      (Staged.stage (fun () ->
           Maglev.Table.populate ~size:4099
             ~backends:(Array.map (fun s -> (s, 1.0)) (names n))
             ()))
  in
  let pool = Maglev.Pool.create ~names:(names 16) () in
  let lookup =
    let h = ref 17 in
    Test.make ~name:"maglev lookup"
      (Staged.stage (fun () ->
           h := (!h * 1103515245) + 12345;
           Maglev.Pool.lookup pool (!h land max_int)))
  in
  let flow_hash =
    let key =
      Netsim.Flow_key.v
        ~src:(Netsim.Addr.v 100 10001)
        ~dst:(Netsim.Addr.v 1 11211)
    in
    Test.make ~name:"flow_key hash"
      (Staged.stage (fun () -> Netsim.Flow_key.hash key))
  in
  let fixed =
    let ft = Inband.Fixed_timeout.create ~delta:(Des.Time.us 64) ~now:0 in
    let now = ref 0 in
    Test.make ~name:"fixed_timeout per packet"
      (Staged.stage (fun () ->
           now := !now + 10_000;
           Inband.Fixed_timeout.on_packet ft ~now:!now))
  in
  let ensemble =
    let e = Inband.Ensemble.create ~config:Inband.Config.default in
    let f = Inband.Ensemble.create_flow e ~now:0 in
    let now = ref 0 in
    Test.make ~name:"ensemble (k=7) per packet"
      (Staged.stage (fun () ->
           now := !now + 10_000;
           Inband.Ensemble.on_packet e f ~now:!now))
  in
  let controller =
    let pool2 = Maglev.Pool.create ~table_size:4099 ~names:(names 2) () in
    let c =
      Inband.Controller.create
        ~config:
          {
            Inband.Config.default with
            Inband.Config.control_interval = 0;
            ewma_alpha = 1.0;
          }
        ~pool:pool2 ()
    in
    ignore (Inband.Controller.on_sample c ~now:0 ~server:1 (Des.Time.us 200));
    (* Each call gives the other server a strictly worse sample than any
       before, so every call shifts weight and rebuilds the table. *)
    let i = ref 0 in
    Test.make ~name:"controller on_sample (incl rebuild m=4099)"
      (Staged.stage (fun () ->
           incr i;
           Inband.Controller.on_sample c ~now:!i ~server:(!i land 1)
             (Des.Time.us 200 + !i)))
  in
  let histogram =
    let h = Stats.Histogram.create () in
    let v = ref 1 in
    Test.make ~name:"histogram record"
      (Staged.stage (fun () ->
           v := (!v * 7) mod 10_000_000;
           Stats.Histogram.record h !v))
  in
  Test.make_grouped ~name:"micro"
    [
      build_table 2;
      build_table 16;
      lookup;
      flow_hash;
      fixed;
      ensemble;
      controller;
      histogram;
    ]

let run_micro () =
  let open Bechamel in
  let open Toolkit in
  (* The figure experiments leave a large live heap behind (notably the
     cached Fig 2 sample lists), which makes Bechamel's per-sample GC
     stabilization dominate the measurements: drop the cache and compact
     first. *)
  fig2_result := None;
  Gc.compact ();
  print_endline (Cluster.Report.section "Microbenchmarks (Bechamel, ns/op)");
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] (micro_tests ()) in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let est =
        match Analyze.OLS.estimates ols with
        | Some [ e ] -> Fmt.str "%.1f" e
        | Some _ | None -> "-"
      in
      let r2 =
        match Analyze.OLS.r_square ols with
        | Some r -> Fmt.str "%.4f" r
        | None -> "-"
      in
      rows := [ name; est; r2 ] :: !rows)
    results;
  let sorted = List.sort compare !rows in
  print_endline
    (Cluster.Report.table ~headers:[ "benchmark"; "ns/op"; "r^2" ] sorted)

(* --- driver ----------------------------------------------------------- *)

let targets =
  [
    ("fig2a", fun ~jobs:_ ~check:_ () -> run_fig2a ());
    ("fig2b", fun ~jobs:_ ~check:_ () -> run_fig2a ());
    ("fig3", fun ~jobs ~check:_ () -> run_fig3 ~full:false ~jobs ());
    ("ablation-delta", fun ~jobs:_ ~check:_ () -> run_fig2a ());
    ("ablation-alpha", fun ~jobs ~check:_ () -> run_ablation_alpha ~jobs ());
    ("ablation-epoch", fun ~jobs ~check:_ () -> run_ablation_epoch ~jobs ());
    ("ablation-timing", fun ~jobs ~check:_ () -> run_ablation_timing ~jobs ());
    ("ablation-policy", fun ~jobs ~check:_ () -> run_ablation_policy ~jobs ());
    ("ablation-far", fun ~jobs ~check:_ () -> run_ablation_far ~jobs ());
    ("ablation-herd", fun ~jobs ~check () -> run_ablation_herd ~jobs ~check ());
    ("ablation-law", fun ~jobs ~check () -> run_ablation_law ~jobs ~check ());
    ( "ablation-dependency",
      fun ~jobs ~check:_ () -> run_ablation_dependency ~jobs () );
    ( "ablation-estimator",
      fun ~jobs ~check:_ () -> run_ablation_estimator ~jobs () );
    ("ablation-source", fun ~jobs ~check:_ () -> run_ablation_source ~jobs ());
    ("micro", fun ~jobs:_ ~check:_ () -> run_micro ());
    ("e2e", fun ~jobs:_ ~check () -> run_e2e ~check ());
    ("frontier", fun ~jobs ~check () -> run_frontier ~jobs ~check ());
    ("history", fun ~jobs:_ ~check:_ () -> run_history ());
  ]
(* [flows] is dispatched separately: it is the only target taking -n. *)

let run_all ~full ~jobs () =
  run_fig2a ();
  run_fig3 ~full ~jobs ();
  run_ablation_alpha ~jobs ();
  run_ablation_epoch ~jobs ();
  run_ablation_timing ~jobs ();
  run_ablation_policy ~jobs ();
  run_ablation_far ~jobs ();
  run_ablation_herd ~jobs ~check:false ();
  run_ablation_law ~jobs ~check:false ();
  run_ablation_dependency ~jobs ();
  run_ablation_estimator ~jobs ();
  run_ablation_source ~jobs ();
  run_frontier ~jobs ~check:false ();
  run_micro ()

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let full = List.mem "--full" args in
  let check = List.mem "--check" args in
  let args = List.filter (fun a -> a <> "--full" && a <> "--check") args in
  (* -j N (two tokens): domain count for the parallel sweeps; 0 = auto.
     -n N: concurrent flow count for the [flows] target. *)
  let extract_int_opt ~flag ~default ~min args =
    let rec extract acc = function
      | f :: n :: rest when f = flag -> begin
          match int_of_string_opt n with
          | Some v when v >= min -> (v, List.rev_append acc rest)
          | Some _ | None ->
              Fmt.epr "%s expects an integer >= %d, got %S@." flag min n;
              exit 1
        end
      | [ f ] when f = flag ->
          Fmt.epr "%s expects an argument@." flag;
          exit 1
      | a :: rest -> extract (a :: acc) rest
      | [] -> (default, List.rev acc)
    in
    extract [] args
  in
  let jobs, args = extract_int_opt ~flag:"-j" ~default:1 ~min:0 args in
  let flows_n, args =
    extract_int_opt ~flag:"-n" ~default:(1 lsl 20) ~min:flows_clients args
  in
  (* --minutes N: simulated length of the [soak] target (0 = default). *)
  let soak_minutes, args =
    extract_int_opt ~flag:"--minutes" ~default:0 ~min:0 args
  in
  (* --shards N: engine shards for the [flows] target; 0 = one per core. *)
  let flows_shards, args =
    extract_int_opt ~flag:"--shards" ~default:1 ~min:0 args
  in
  match args with
  | [] | [ "all" ] -> run_all ~full ~jobs ()
  | names ->
      List.iter
        (fun name ->
          match List.assoc_opt name targets with
          | Some f ->
              if name = "fig3" then run_fig3 ~full ~jobs ()
              else f ~jobs ~check ()
          | None ->
              if name = "flows" then
                run_flows ~n:flows_n ~shards:flows_shards ~check ()
              else if name = "soak" then
                run_soak ~minutes:soak_minutes ~check ()
              else begin
                Fmt.epr "unknown target %S; available: %s, flows, soak, all@."
                  name
                  (String.concat ", " (List.map fst targets));
                exit 1
              end)
        names
