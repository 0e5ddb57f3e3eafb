(* Integration tests: the paper's experiments end to end (shortened). *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Samples helpers -------------------------------------------------------- *)

let samples_helpers () =
  let mk at value = { Cluster.Bulk_flow.at; value } in
  let samples = [ mk 10 5; mk 20 7; mk 30 9; mk 40 11 ] in
  Alcotest.(check (list int)) "window" [ 7; 9 ]
    (Cluster.Samples.in_window samples ~lo:15 ~hi:35);
  Alcotest.(check (float 1e-9)) "median" 9.0 (Cluster.Samples.median [ 9; 5; 11 ]);
  Alcotest.(check (float 1e-9)) "p100" 11.0
    (Cluster.Samples.percentile [ 9; 5; 11 ] ~q:1.0);
  check_bool "empty is nan" true
    (Float.is_nan (Cluster.Samples.median []));
  Alcotest.(check (float 1e-9)) "relative error" 0.1
    (Cluster.Samples.median_relative_error ~estimates:[ 110 ] ~truth:100.0)

let report_table () =
  let out =
    Cluster.Report.table ~headers:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333" ] ]
  in
  check_bool "contains rule" true (String.length out > 0);
  (* Rows shorter than headers are padded, so the table renders without
     raising. *)
  check_bool "pads short rows" true
    (String.split_on_char '\n' out |> List.length >= 4)

(* --- Fig 2 (shortened) ------------------------------------------------------- *)

let fig2_config =
  {
    Cluster.Bulk_flow.default_config with
    Cluster.Bulk_flow.duration = Des.Time.sec 3;
    rtt_step_at = Des.Time.us 1_500_000;
  }

let fig2 = lazy (Cluster.Fig2.run ~config:fig2_config ())

let fig2_ensemble_tracks_truth () =
  let r = Lazy.force fig2 in
  check_bool
    (Fmt.str "pre-step error %.1f%% < 50%%" (100.0 *. r.Cluster.Fig2.err_before))
    true
    (r.Cluster.Fig2.err_before < 0.5);
  check_bool
    (Fmt.str "post-step error %.1f%% < 25%%" (100.0 *. r.Cluster.Fig2.err_after))
    true
    (r.Cluster.Fig2.err_after < 0.25)

let fig2_low_delta_oversamples () =
  let r = Lazy.force fig2 in
  (* delta = 64us produces more samples than the moderate deltas: the
     spurious intra-batch splits of Fig 2(a). *)
  let d0, low = r.Cluster.Fig2.raw.Cluster.Bulk_flow.fixed.(0) in
  let _, mid = r.Cluster.Fig2.raw.Cluster.Bulk_flow.fixed.(2) in
  check_int "first delta is 64us" (Des.Time.us 64) d0;
  check_bool "low delta over-samples vs 256us" true
    (List.length low > List.length mid)

let fig2_high_delta_starves () =
  let r = Lazy.force fig2 in
  (* The largest timeout (4096us) must produce no samples before the
     step: the flow never pauses that long. *)
  let _, samples = r.Cluster.Fig2.raw.Cluster.Bulk_flow.fixed.(6) in
  let before =
    Cluster.Samples.in_window samples ~lo:0 ~hi:(Des.Time.sec 1)
  in
  check_int "4096us starves" 0 (List.length before)

let fig2_chosen_delta_adapts () =
  let r = Lazy.force fig2 in
  (* After the +1ms step the chosen delta must exceed its pre-step value
     at least once (the cliff moved right). *)
  let before, after =
    List.partition
      (fun (at, _) -> at < fig2_config.Cluster.Bulk_flow.rtt_step_at)
      r.Cluster.Fig2.chosen_timeline
  in
  let max_delta l = List.fold_left (fun acc (_, d) -> Stdlib.max acc d) 0 l in
  check_bool "chosen delta grew after step" true
    (after <> [] && max_delta after > max_delta before)

(* --- Fig 3 (shortened) ------------------------------------------------------- *)

let fig3 =
  lazy
    (Cluster.Fig3.run
       ~duration:(Des.Time.sec 8)
       ~inject_at:(Des.Time.sec 3) ())

let fig3_maglev_suffers_latency_aware_recovers () =
  let r = Lazy.force fig3 in
  match r.Cluster.Fig3.runs with
  | [ maglev; aware ] ->
      check_bool "maglev run is maglev" true
        (maglev.Cluster.Fig3.policy = Inband.Policy.Static_maglev);
      (* Maglev's post-injection p95 inflates several-fold. *)
      check_bool
        (Fmt.str "maglev inflates: %.0f -> %.0f us" maglev.Cluster.Fig3.p95_before_us
           maglev.Cluster.Fig3.p95_after_us)
        true
        (maglev.Cluster.Fig3.p95_after_us
        > 3.0 *. maglev.Cluster.Fig3.p95_before_us);
      (* The latency-aware LB keeps p95 near its baseline. *)
      check_bool
        (Fmt.str "aware holds: %.0f -> %.0f us" aware.Cluster.Fig3.p95_before_us
           aware.Cluster.Fig3.p95_after_us)
        true
        (aware.Cluster.Fig3.p95_after_us
        < 1.5 *. aware.Cluster.Fig3.p95_before_us);
      (* And beats maglev outright after injection. *)
      check_bool "aware beats maglev post-injection" true
        (aware.Cluster.Fig3.p95_after_us
        < maglev.Cluster.Fig3.p95_after_us /. 2.0)
  | runs -> Alcotest.failf "expected 2 runs, got %d" (List.length runs)

let fig3_reaction_in_milliseconds () =
  let r = Lazy.force fig3 in
  match r.Cluster.Fig3.runs with
  | [ _; aware ] -> begin
      (match aware.Cluster.Fig3.reaction_ms with
      | Some ms ->
          (* Sub-second at worst; the default 30s timeline reacts in
             single-digit milliseconds (see EXPERIMENTS.md). *)
          check_bool (Fmt.str "reaction %.1fms < 1s" ms) true (ms < 1000.0)
      | None -> Alcotest.fail "no control action after injection");
      match aware.Cluster.Fig3.recovery_ms with
      | Some ms ->
          check_bool (Fmt.str "recovery %.0fms <= 2s" ms) true (ms <= 2000.0)
      | None -> Alcotest.fail "p95 never recovered"
    end
  | _ -> Alcotest.fail "expected 2 runs"

let fig3_weights_shift_away_from_victim () =
  let r = Lazy.force fig3 in
  match r.Cluster.Fig3.runs with
  | [ _; aware ] -> begin
      match aware.Cluster.Fig3.weights_final with
      | Some w ->
          check_bool
            (Fmt.str "victim weight %.2f small" w.(1))
            true (w.(1) < 0.2);
          check_bool "actions happened" true (aware.Cluster.Fig3.actions > 0)
      | None -> Alcotest.fail "no weights"
    end
  | _ -> Alcotest.fail "expected 2 runs"

let fig3_victim_share_drops () =
  let r = Lazy.force fig3 in
  match r.Cluster.Fig3.runs with
  | [ maglev; aware ] ->
      (* Static maglev keeps routing ~half of new flows to the victim. *)
      check_bool "maglev share stays" true
        (maglev.Cluster.Fig3.victim_share_after > 0.35);
      check_bool "aware share collapses" true
        (aware.Cluster.Fig3.victim_share_after < 0.15)
  | _ -> Alcotest.fail "expected 2 runs"

(* --- Multi-LB / far clients / CSV ----------------------------------------------- *)

let multi_lb_builds_and_converges () =
  let t = Cluster.Scenario.build Cluster.Ablations.fleet_scenario in
  Cluster.Scenario.inject_server_delay t ~server:1 ~at:(Des.Time.sec 2)
    ~delay:(Des.Time.ms 1);
  Cluster.Scenario.run t ~until:(Des.Time.sec 5);
  check_int "two balancers" 2 (Array.length (Cluster.Scenario.balancers t));
  check_bool "traffic flowed" true
    (Workload.Latency_log.count (Cluster.Scenario.log t) > 10_000);
  Array.iter
    (fun balancer ->
      match Inband.Balancer.controller balancer with
      | Some c ->
          check_bool "each LB starves the victim" true
            ((Inband.Controller.weights c).(1) < 0.2);
          (* The injection registered its instant with every LB. *)
          check_bool "each LB reacts to the injection" true
            (match
               Inband.Controller.first_action_after c (Des.Time.sec 2)
             with
            | Some at -> at >= Des.Time.sec 2
            | None -> false)
      | None -> Alcotest.fail "expected a controller")
    (Cluster.Scenario.balancers t)

let herd_actions_scale_with_fleet () =
  let rows =
    Cluster.Ablations.coord_sweep
      ~policies:[ Cluster.Coordination.Uncoordinated ]
      ~lb_counts:[ 1; 2 ] ~duration:(Des.Time.sec 6)
      ~inject_at:(Des.Time.sec 2) ()
  in
  match rows with
  | [ one; two ] ->
      check_bool "2 LBs do more control work" true
        (two.Cluster.Ablations.total_actions
        > one.Cluster.Ablations.total_actions);
      check_bool "both fleets starve the victim" true
        (one.Cluster.Ablations.victim_weight_mean < 0.1
        && two.Cluster.Ablations.victim_weight_mean < 0.1)
  | _ -> Alcotest.fail "expected two rows"

let far_client_contaminates_estimates () =
  match Cluster.Ablations.far_clients ~duration:(Des.Time.sec 4) () with
  | [ near; far ] ->
      check_bool "far client inflates the server estimates" true
        (far.Cluster.Ablations.est_s0_us
         > 2.0 *. near.Cluster.Ablations.est_s1_us
        || far.Cluster.Ablations.est_s1_us
           > 2.0 *. near.Cluster.Ablations.est_s1_us)
  | _ -> Alcotest.fail "expected two rows"

let scenario_far_client_sees_higher_latency () =
  let config =
    {
      Cluster.Scenario.default_config with
      Cluster.Scenario.client_delay_overrides = [ (0, Des.Time.ms 1) ];
    }
  in
  let s = Cluster.Scenario.build config in
  Cluster.Scenario.run s ~until:(Des.Time.sec 1);
  let hist =
    Workload.Latency_log.hist (Cluster.Scenario.log s) Workload.Latency_log.Get
  in
  (* 1 ms out + 1 ms back dominates: every GET is above 2 ms. *)
  check_bool "latency floor reflects the far path" true
    (Stats.Histogram.min_value hist > Des.Time.ms 2)

let csv_renders () =
  let r2 = Lazy.force fig2 in
  let csv2 = Cluster.Csv.fig2_samples r2 in
  check_bool "fig2 header" true
    (String.length csv2 > 20 && String.sub csv2 0 16 = "t_s,series,value");
  check_bool "fig2 has truth rows" true
    (String.length csv2 > 1000);
  let r3 = Lazy.force fig3 in
  let csv3 = Cluster.Csv.fig3_series r3 in
  check_bool "fig3 header" true (String.sub csv3 0 10 = "policy,t_s");
  let lines = String.split_on_char '\n' csv3 in
  check_bool "one row per bucket per policy" true (List.length lines > 20)

let dependency_attribution () =
  match
    Cluster.Dependency.run_cases ~duration:(Des.Time.sec 8)
      ~inject_at:(Des.Time.sec 3) ()
  with
  | [ private_be; shared_be ] ->
      (* Private backend: shifting avoids the fault. *)
      check_bool "private case recovers" true
        (private_be.Cluster.Dependency.p95_after_us
        < 2.5 *. private_be.Cluster.Dependency.p95_before_us);
      check_bool "private case starves frontend 1" true
        (private_be.Cluster.Dependency.victim_weight < 0.1);
      (* Shared backend: no shift can help; latency stays inflated and
         the per-frontend estimates are indistinguishable. *)
      check_bool "shared case stays slow" true
        (shared_be.Cluster.Dependency.p95_after_us
        > 3.0 *. shared_be.Cluster.Dependency.p95_before_us);
      let e0 = shared_be.Cluster.Dependency.est_us.(0) in
      let e1 = shared_be.Cluster.Dependency.est_us.(1) in
      check_bool "shared case estimates indistinguishable" true
        (Float.abs (e0 -. e1) < 0.3 *. Float.max e0 e1)
  | _ -> Alcotest.fail "expected two rows"

let estimator_comparison_improves () =
  match
    Cluster.Ablations.estimator_comparison ~duration:(Des.Time.sec 10) ()
  with
  | [ paper; _median; stabilized ] ->
      (* Whole-run p95 is the robust signal; instantaneous final weights
         fluctuate too much to assert on beyond basic sanity. *)
      check_bool
        (Fmt.str "robust config beats paper p95: %.0f vs %.0f us"
           stabilized.Cluster.Ablations.p95_get_us
           paper.Cluster.Ablations.p95_get_us)
        true
        (stabilized.Cluster.Ablations.p95_get_us
        < 0.75 *. paper.Cluster.Ablations.p95_get_us);
      check_bool "victim mostly starved" true
        (stabilized.Cluster.Ablations.weights.(2) < 0.35);
      Alcotest.(check (float 1e-6))
        "weights remain a simplex" 1.0
        (Array.fold_left ( +. ) 0.0 stabilized.Cluster.Ablations.weights)
  | _ -> Alcotest.fail "expected three rows"

let source_comparison_blindspots () =
  match Cluster.Ablations.source_comparison ~duration:(Des.Time.sec 5) () with
  | [ path; service; stalls ] ->
      check_bool "both see a path fault" true
        (path.Cluster.Ablations.ens_ratio > 2.0
        && path.Cluster.Ablations.syn_ratio > 2.0);
      check_bool "only the ensemble sees slow service" true
        (service.Cluster.Ablations.ens_ratio > 2.0
        && service.Cluster.Ablations.syn_ratio < 1.5);
      (* Fast stalls inflate whole-batch RTTs, which the ensemble
         samples continuously; the handshake-only source still misses
         them because established connections never re-handshake. (The
         pre-PR-2 estimator appeared blind here too, but only because
         the idle-epoch reset bug dragged the victim's chosen δ back to
         64 µs and biased its samples low.) *)
      check_bool "ensemble sees fast stalls, handshake-only does not" true
        (stalls.Cluster.Ablations.ens_ratio > 2.0
        && stalls.Cluster.Ablations.syn_ratio < 1.5);
      check_bool "ensemble samples continuously, syn only on reconnect" true
        (path.Cluster.Ablations.ens_samples
        > 10 * path.Cluster.Ablations.syn_samples)
  | _ -> Alcotest.fail "expected three rows"

(* --- Faults -------------------------------------------------------------------- *)

let timeline_matches_direct_injection () =
  (* The acceptance bar for the fault layer: replaying Fig. 3's delay
     step through a timeline must be event-for-event identical to
     scheduling the link change by hand. Same seed, same series — not
     just close. *)
  let at = Des.Time.sec 2 and delay = Des.Time.ms 1 in
  let run inject =
    let s =
      Cluster.Scenario.build
        {
          Cluster.Fig3.default_scenario with
          Cluster.Scenario.policy = Inband.Policy.Latency_aware;
        }
    in
    inject s;
    Cluster.Scenario.run s ~until:(Des.Time.sec 4);
    let log = Cluster.Scenario.log s in
    let weights =
      Option.map Inband.Controller.weights
        (Inband.Balancer.controller (Cluster.Scenario.balancer s))
    in
    let r =
      ( Workload.Latency_log.series log ~op:Workload.Latency_log.Get ~q:0.95,
        Workload.Latency_log.count log,
        weights )
    in
    Cluster.Scenario.shutdown s;
    r
  in
  let t_series, t_responses, t_weights =
    run (fun s ->
        ignore
          (Cluster.Scenario.install_faults s
             [
               Faults.Timeline.event ~at
                 ~target:(Faults.Timeline.Link "lb->s1")
                 ~fault:(Faults.Timeline.Delay delay) ();
             ]))
  in
  let d_series, d_responses, d_weights =
    run (fun s -> Cluster.Scenario.inject_server_delay s ~server:1 ~at ~delay)
  in
  check_bool "identical p95 series" true (t_series = d_series);
  check_int "identical response counts" t_responses d_responses;
  check_bool "identical final weights" true (t_weights = d_weights);
  check_bool "the controller ran" true (t_weights <> None)

let churn_reports_detection_and_recovery () =
  (* One short delay fault: the report must carry ground truth for the
     interval and a detection latency; recovery gets the rest of the
     run to show up. *)
  let timeline =
    [
      Faults.Timeline.event ~at:(Des.Time.sec 2)
        ~target:(Faults.Timeline.Link "lb->s1")
        ~fault:(Faults.Timeline.Delay (Des.Time.ms 1))
        ~duration:(Des.Time.sec 2) ();
    ]
  in
  let r = Cluster.Churn.run ~duration:(Des.Time.sec 8) ~timeline () in
  match r.Cluster.Churn.reports with
  | [ rep ] ->
      let interval = rep.Cluster.Churn.interval in
      check_int "applied on schedule" (Des.Time.sec 2)
        interval.Faults.Injector.applied_at;
      Alcotest.(check (option int)) "cleared on schedule" (Some (Des.Time.sec 4))
        interval.Faults.Injector.reverted_at;
      (match rep.Cluster.Churn.detection_ms with
      | Some ms ->
          check_bool (Fmt.str "detected in %.1fms" ms) true
            (ms >= 0.0 && ms < 2000.0)
      | None -> Alcotest.fail "fault never detected");
      check_bool "victim weight healed" true rep.Cluster.Churn.recovered;
      check_bool "run produced traffic" true (r.Cluster.Churn.responses > 1000)
  | l -> Alcotest.failf "expected one report, got %d" (List.length l)

(* A backend drain is fleet-wide: every LB's controller pins the
   backend for the interval and releases it afterwards, the way a link
   fault on "lb->sN" delays every LB's link. *)
let fleet_drain_reaches_every_lb () =
  let s =
    Cluster.Scenario.build
      { Cluster.Churn.default_scenario with Cluster.Scenario.n_lbs = 2 }
  in
  let timeline =
    match Faults.Timeline.parse "100ms backend:1 drain for 1s" with
    | Ok t -> t
    | Error msg -> Alcotest.fail msg
  in
  ignore (Cluster.Scenario.install_faults s timeline);
  let drained () =
    Array.to_list (Cluster.Scenario.balancers s)
    |> List.map (fun b ->
           match Inband.Balancer.controller b with
           | Some c -> Inband.Controller.is_drained c 1
           | None -> Alcotest.fail "churn scenario has no controller")
  in
  Cluster.Scenario.run s ~until:(Des.Time.ms 500);
  Alcotest.(check (list bool)) "both LBs drained" [ true; true ] (drained ());
  Cluster.Scenario.run s ~until:(Des.Time.ms 1500);
  Alcotest.(check (list bool)) "both restored" [ false; false ] (drained ());
  (* Installing the timeline registered the fault's instant with every
     LB: asking for the reaction to it does not raise. *)
  Array.iter
    (fun b ->
      Option.iter
        (fun c ->
          ignore (Inband.Controller.first_action_after c (Des.Time.ms 100)))
        (Inband.Balancer.controller b))
    (Cluster.Scenario.balancers s);
  Cluster.Scenario.shutdown s

(* "cN->lb" names client N's request link on any scenario: a fault on
   it touches that link alone and reverts when its interval ends. *)
let client_link_fault_reverts () =
  let s =
    Cluster.Scenario.build
      { Cluster.Churn.default_scenario with Cluster.Scenario.n_clients = 2 }
  in
  let timeline =
    match
      Faults.Timeline.parse
        "100ms link:c0->lb delay+1ms for 200ms\n\
         100ms link:c0->lb loss=0.25 for 200ms"
    with
    | Ok t -> t
    | Error msg -> Alcotest.fail msg
  in
  ignore (Cluster.Scenario.install_faults s timeline);
  let state j =
    let link = Cluster.Scenario.client_lb_link s j in
    (Netsim.Link.extra_delay link, Netsim.Link.loss_prob link)
  in
  let check label j expected =
    Alcotest.(check (pair int (float 0.0))) label expected (state j)
  in
  Cluster.Scenario.run s ~until:(Des.Time.ms 200);
  check "client 0 faulted" 0 (Des.Time.ms 1, 0.25);
  check "client 1 untouched" 1 (0, 0.0);
  Cluster.Scenario.run s ~until:(Des.Time.ms 400);
  check "client 0 reverted" 0 (0, 0.0);
  check "client 1 still untouched" 1 (0, 0.0);
  Cluster.Scenario.shutdown s

(* --- Determinism --------------------------------------------------------------- *)

let simulation_deterministic () =
  let run () =
    let s = Cluster.Scenario.build Cluster.Scenario.default_config in
    Cluster.Scenario.run s ~until:(Des.Time.ms 500);
    ( Workload.Latency_log.count (Cluster.Scenario.log s),
      Des.Engine.events_fired (Cluster.Scenario.engine s) )
  in
  let a = run () and b = run () in
  check_bool "identical runs" true (a = b)

let seed_changes_run () =
  let run seed =
    let s =
      Cluster.Scenario.build { Cluster.Scenario.default_config with seed }
    in
    Cluster.Scenario.run s ~until:(Des.Time.ms 500);
    Des.Engine.events_fired (Cluster.Scenario.engine s)
  in
  check_bool "different seeds diverge" true (run 1 <> run 2)

let parallel_map_order_and_errors () =
  let doubled = Cluster.Parallel.map ~jobs:4 (fun x -> 2 * x) [ 5; 1; 9; 3; 7 ] in
  Alcotest.(check (list int)) "input order kept" [ 10; 2; 18; 6; 14 ] doubled;
  Alcotest.(check (list int)) "jobs=0 means auto" [ 2; 4 ]
    (Cluster.Parallel.map ~jobs:0 (fun x -> 2 * x) [ 1; 2 ]);
  match
    Cluster.Parallel.map ~jobs:3
      (fun x -> if x mod 2 = 0 then failwith (string_of_int x) else x)
      [ 1; 4; 3; 6 ]
  with
  | _ -> Alcotest.fail "expected an exception"
  | exception Failure msg ->
      Alcotest.(check string) "earliest failing item wins" "4" msg

let parallel_map_aborts_after_failure () =
  (* Item 0 fails immediately; item 1 is in flight on the second domain
     and runs to completion; items 2.. must never start — the pool
     drains the queue after the first failure instead of grinding
     through it. Item 1's sleep gives the failing worker far more time
     than it needs to flip the abort flag. *)
  let started = Atomic.make 0 in
  (match
     Cluster.Parallel.map ~jobs:2
       (fun x ->
         Atomic.incr started;
         if x = 0 then failwith "first item"
         else begin
           Unix.sleepf 0.05;
           x
         end)
       [ 0; 1; 2; 3; 4; 5; 6; 7 ]
   with
  | _ -> Alcotest.fail "expected the item-0 failure"
  | exception Failure msg ->
      Alcotest.(check string) "item 0's exception" "first item" msg);
  Alcotest.(check bool)
    (Fmt.str "only in-flight items ran (%d started)" (Atomic.get started))
    true
    (Atomic.get started <= 2)

let jobs_do_not_change_figures () =
  (* The parallel-runner contract: the rendered Fig. 3 CSV — every
     latency bucket of every policy — is byte-identical whether the
     per-policy simulations ran on one domain or four. *)
  let run jobs =
    Cluster.Fig3.run ~jobs ~duration:(Des.Time.sec 6)
      ~inject_at:(Des.Time.sec 2) ()
  in
  let sequential = Cluster.Csv.fig3_series (run 1) in
  let parallel = Cluster.Csv.fig3_series (run 4) in
  check_bool "non-trivial output" true (String.length sequential > 100);
  Alcotest.(check string) "fig3 CSV identical at -j 1 and -j 4" sequential
    parallel

(* --- Soak -------------------------------------------------------------------- *)

let soak_row at value = { Telemetry.Snapshot.at; metric = "m"; index = None; value }

let judge ?bound rows =
  Cluster.Soak.flatness ?bound rows ~metric:"m" ~from_:0
    ~until:(Des.Time.sec 100) ~windows:4 ~growth_tolerance:0.35
    ~monotonic_tolerance:0.10

let soak_flatness_flags_growth () =
  (* A linear leak: 100 → 290 over the span. Growth over the window means
     is ~66% of the mean — far past the 35% tolerance. *)
  let rows =
    List.init 20 (fun i ->
        soak_row (Des.Time.sec (5 * i)) (100.0 +. (10.0 *. float_of_int i)))
  in
  let v = judge rows in
  check_bool "growth detected" true (v.Cluster.Soak.growth > 0.35);
  check_bool "monotonic" true v.Cluster.Soak.monotonic;
  check_bool "not flat" false v.Cluster.Soak.flat

let soak_flatness_catches_slow_monotonic_leak () =
  (* +15% over the run: under the 35% growth tolerance, but strictly
     monotonic window means past the 10% monotonic floor — a slow leak
     never oscillates, so it must still fail. *)
  let rows =
    List.init 20 (fun i ->
        soak_row (Des.Time.sec (5 * i)) (1000.0 +. (8.0 *. float_of_int i)))
  in
  let v = judge rows in
  check_bool "below growth tolerance" true (v.Cluster.Soak.growth < 0.35);
  check_bool "monotonic" true v.Cluster.Soak.monotonic;
  check_bool "still fails" false v.Cluster.Soak.flat

let soak_flatness_accepts_flat_and_bounded_sawtooth () =
  let flat_rows =
    List.init 20 (fun i ->
        soak_row (Des.Time.sec (5 * i)) (if i mod 2 = 0 then 99.0 else 101.0))
  in
  check_bool "flat passes" true (judge flat_rows).Cluster.Soak.flat;
  (* A sawtooth that happens to end high would trip a growth check; under
     an absolute bound it is judged only on its ceiling. *)
  let saw =
    List.init 20 (fun i ->
        soak_row (Des.Time.sec (5 * i)) (float_of_int (i mod 5) *. 20.0))
  in
  check_bool "bounded sawtooth passes" true
    (judge ~bound:100.0 saw).Cluster.Soak.flat;
  check_bool "bound violation fails" false
    (judge ~bound:50.0 saw).Cluster.Soak.flat

let soak_repeat_timeline_tiles_and_clips () =
  let event =
    Faults.Timeline.event ~at:(Des.Time.sec 2)
      ~target:(Faults.Timeline.Server 0)
      ~fault:(Faults.Timeline.Slow 2.0)
      ~duration:(Des.Time.sec 3) ()
  in
  let tiled =
    Cluster.Soak.repeat_timeline [ event ] ~period:(Des.Time.sec 10)
      ~until:(Des.Time.sec 35)
  in
  (* Copies start at 2 s, 12 s, 22 s; the 32 s copy would revert at 35 s,
     which is not strictly before the end, so it is clipped. *)
  check_int "three copies" 3 (List.length tiled);
  Alcotest.(check (list int))
    "shifted starts"
    [ Des.Time.sec 2; Des.Time.sec 12; Des.Time.sec 22 ]
    (List.map (fun (e : Faults.Timeline.event) -> e.at) tiled)

let soak_short_run_is_clean () =
  (* A compressed end-to-end soak: one sim-minute of churn with two of
     the pathologies attached. Asserts the full verdict — flat memory,
     no stuck state after drain, healthy estimator, zero PCC
     violations. *)
  let config =
    {
      Cluster.Soak.default_config with
      Cluster.Soak.duration = Des.Time.sec 60;
      warmup = Des.Time.sec 15;
      drain = Des.Time.sec 15;
      windows = 3;
      pathologies =
        [
          (Workload.Pathology.Slowloris { drip = Des.Time.ms 10 }, 4);
          (Workload.Pathology.Rst_flood { rate = Des.Time.ms 20 }, 4);
        ];
    }
  in
  let r = Cluster.Soak.run ~config () in
  check_bool "soak ok" true (Cluster.Soak.ok config r);
  check_int "no stuck flows" 0 r.Cluster.Soak.stuck_flows;
  check_int "no stuck conns" 0 r.Cluster.Soak.stuck_conns;
  check_int "pcc clean" 0 r.Cluster.Soak.pcc_violations;
  check_bool "served traffic" true (r.Cluster.Soak.responses > 10_000)

(* One harness soaks fleets too: the churn cluster as a 2-LB gossip
   fleet for one sim-minute, its fault timeline hitting every LB's
   links. *)
let soak_fleet_is_clean () =
  let base = Cluster.Soak.default_config in
  let config =
    {
      base with
      Cluster.Soak.duration = Des.Time.sec 60;
      warmup = Des.Time.sec 15;
      drain = Des.Time.sec 15;
      windows = 3;
      scenario =
        {
          base.Cluster.Soak.scenario with
          Cluster.Scenario.n_lbs = 2;
          n_clients = 4;
          coord =
            {
              Cluster.Coordination.default_config with
              Cluster.Coordination.policy = Cluster.Coordination.Gossip_average;
            };
        };
      pathologies =
        [
          (Workload.Pathology.Slowloris { drip = Des.Time.ms 10 }, 2);
          (Workload.Pathology.Rst_flood { rate = Des.Time.ms 20 }, 2);
        ];
    }
  in
  let r = Cluster.Soak.run ~config () in
  check_bool "fleet soak ok" true (Cluster.Soak.ok config r);
  check_bool "control plane ran" true (r.Cluster.Soak.coord_msgs > 0);
  check_int "pcc clean" 0 r.Cluster.Soak.pcc_violations;
  check_bool "served traffic" true (r.Cluster.Soak.responses > 10_000)

(* Allocation is deterministic for a given build, where wall time is
   not: a tripwire on minor words per fired event catches a per-request
   allocator that creeps back into the Fig. 3 stack. The bound is the
   value measured when it was set plus 10%. *)
let measured_words_per_event = 23.6

let fig3_minor_words_per_event () =
  let s =
    Cluster.Scenario.build
      {
        Cluster.Fig3.default_scenario with
        Cluster.Scenario.policy = Inband.Policy.Latency_aware;
      }
  in
  Cluster.Scenario.inject_server_delay s ~server:1 ~at:(Des.Time.sec 1)
    ~delay:(Des.Time.ms 1);
  let e0 = Cluster.Scenario.events_fired s and w0 = Gc.minor_words () in
  Cluster.Scenario.run s ~until:(Des.Time.sec 2);
  let words = Gc.minor_words () -. w0 in
  let per = words /. float_of_int (Cluster.Scenario.events_fired s - e0) in
  if per > 1.1 *. measured_words_per_event then
    Alcotest.failf "fig3 allocated %.2f minor words per event (bound %.2f)"
      per (1.1 *. measured_words_per_event)

let () =
  Alcotest.run "cluster"
    [
      ( "helpers",
        [
          Alcotest.test_case "samples" `Quick samples_helpers;
          Alcotest.test_case "report table" `Quick report_table;
        ] );
      ( "fig2",
        [
          Alcotest.test_case "ensemble tracks truth" `Slow fig2_ensemble_tracks_truth;
          Alcotest.test_case "low delta oversamples" `Slow fig2_low_delta_oversamples;
          Alcotest.test_case "high delta starves" `Slow fig2_high_delta_starves;
          Alcotest.test_case "chosen delta adapts" `Slow fig2_chosen_delta_adapts;
        ] );
      ( "fig3",
        [
          Alcotest.test_case "maglev suffers, aware recovers" `Slow
            fig3_maglev_suffers_latency_aware_recovers;
          Alcotest.test_case "reaction in ms" `Slow fig3_reaction_in_milliseconds;
          Alcotest.test_case "weights shift" `Slow fig3_weights_shift_away_from_victim;
          Alcotest.test_case "victim share drops" `Slow fig3_victim_share_drops;
        ] );
      ( "extensions",
        [
          Alcotest.test_case "multi-lb converges" `Slow multi_lb_builds_and_converges;
          Alcotest.test_case "herd actions scale" `Slow herd_actions_scale_with_fleet;
          Alcotest.test_case "far client contaminates" `Slow
            far_client_contaminates_estimates;
          Alcotest.test_case "far client latency floor" `Quick
            scenario_far_client_sees_higher_latency;
          Alcotest.test_case "csv renders" `Slow csv_renders;
          Alcotest.test_case "dependency attribution" `Slow dependency_attribution;
          Alcotest.test_case "robust estimator" `Slow estimator_comparison_improves;
          Alcotest.test_case "measurement-source blind spots" `Slow
            source_comparison_blindspots;
        ] );
      ( "faults",
        [
          Alcotest.test_case "timeline matches direct injection" `Slow
            timeline_matches_direct_injection;
          Alcotest.test_case "churn reports detection and recovery" `Slow
            churn_reports_detection_and_recovery;
          Alcotest.test_case "fleet drain reaches every LB" `Quick
            fleet_drain_reaches_every_lb;
          Alcotest.test_case "client link fault reverts" `Quick
            client_link_fault_reverts;
        ] );
      ( "soak",
        [
          Alcotest.test_case "flatness flags growth" `Quick soak_flatness_flags_growth;
          Alcotest.test_case "flatness catches slow monotonic leak" `Quick
            soak_flatness_catches_slow_monotonic_leak;
          Alcotest.test_case "flatness accepts flat and bounded sawtooth" `Quick
            soak_flatness_accepts_flat_and_bounded_sawtooth;
          Alcotest.test_case "repeat timeline tiles and clips" `Quick
            soak_repeat_timeline_tiles_and_clips;
          Alcotest.test_case "short soak is clean" `Slow soak_short_run_is_clean;
          Alcotest.test_case "fleet soak is clean" `Slow soak_fleet_is_clean;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "fig3 minor words per event" `Slow
            fig3_minor_words_per_event;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "identical runs" `Quick simulation_deterministic;
          Alcotest.test_case "seed matters" `Quick seed_changes_run;
          Alcotest.test_case "parallel map order and errors" `Quick
            parallel_map_order_and_errors;
          Alcotest.test_case "parallel map aborts after failure" `Quick
            parallel_map_aborts_after_failure;
          Alcotest.test_case "figures identical at any -j" `Slow
            jobs_do_not_change_figures;
        ] );
    ]
