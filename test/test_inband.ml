(* Tests for the paper's core: Algorithms 1 and 2, server stats, the
   feedback controller and the balancer datapath. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let us = Des.Time.us
let ms = Des.Time.ms

(* --- Config ------------------------------------------------------------- *)

let config_default_valid () =
  check_bool "default validates" true
    (Inband.Config.validate Inband.Config.default = Ok ())

let config_paper_constants () =
  let c = Inband.Config.default in
  check_int "k = 7" 7 (Array.length c.Inband.Config.timeouts);
  check_int "delta_1 = 64us" (us 64) c.Inband.Config.timeouts.(0);
  check_int "delta_7 = 4096us" (us 4096) c.Inband.Config.timeouts.(6);
  check_int "E = 64ms" (ms 64) c.Inband.Config.epoch;
  Alcotest.(check (float 1e-9)) "alpha = 10%" 0.10 c.Inband.Config.alpha

let config_rejects_bad () =
  let bad f = Inband.Config.validate f <> Ok () in
  let d = Inband.Config.default in
  check_bool "one timeout" true
    (bad { d with Inband.Config.timeouts = [| us 64 |] });
  check_bool "descending" true
    (bad { d with Inband.Config.timeouts = [| us 128; us 64 |] });
  check_bool "alpha 0" true (bad { d with Inband.Config.alpha = 0.0 });
  check_bool "alpha 1" true (bad { d with Inband.Config.alpha = 1.0 });
  check_bool "min_weight 0.5" true (bad { d with Inband.Config.min_weight = 0.5 });
  check_bool "threshold < 1" true
    (bad { d with Inband.Config.relative_threshold = 0.9 });
  check_bool "initial index out of range" true
    (bad { d with Inband.Config.initial_timeout_index = 7 })

(* --- Algorithm 1: FIXEDTIMEOUT ------------------------------------------- *)

(* Hand-computed transcript. delta = 100us. Flow starts at t=0.
   Packets (us):   0   10   20   250   260   600   610   615
   Gaps     :          10   10   230    10   340    10     5
   New batch at 250 (gap 230 > 100): sample = 250 - 0   = 250us.
   New batch at 600 (gap 340 > 100): sample = 600 - 250 = 350us. *)
let fixed_timeout_transcript () =
  let ft = Inband.Fixed_timeout.create ~delta:(us 100) ~now:0 in
  let expect = [
    (us 10, None); (us 20, None);
    (us 250, Some (us 250)); (us 260, None);
    (us 600, Some (us 350)); (us 610, None); (us 615, None);
  ] in
  List.iter
    (fun (now, expected) ->
      let got = Inband.Fixed_timeout.on_packet ft ~now in
      Alcotest.(check (option int))
        (Fmt.str "packet at %a" Des.Time.pp now)
        expected got)
    expect;
  check_int "two samples total" 2 (Inband.Fixed_timeout.samples_produced ft)

let fixed_timeout_gap_exactly_delta_is_same_batch () =
  (* Algorithm 1 line 2 uses a strict inequality. *)
  let ft = Inband.Fixed_timeout.create ~delta:(us 100) ~now:0 in
  Alcotest.(check (option int)) "gap = delta stays in batch" None
    (Inband.Fixed_timeout.on_packet ft ~now:(us 100));
  Alcotest.(check (option int)) "gap just over delta splits"
    (Some (us 201))
    (Inband.Fixed_timeout.on_packet ft ~now:(us 201))

let fixed_timeout_first_packet_no_sample () =
  let ft = Inband.Fixed_timeout.create ~delta:(us 50) ~now:(ms 5) in
  Alcotest.(check (option int)) "packet at creation time" None
    (Inband.Fixed_timeout.on_packet ft ~now:(ms 5))

let fixed_timeout_rejects_bad_delta () =
  Alcotest.check_raises "delta 0" (Invalid_argument "Fixed_timeout.create: delta")
    (fun () -> ignore (Inband.Fixed_timeout.create ~delta:0 ~now:0))

(* A batchy synthetic flow: batches of [batch] packets [intra] apart,
   batch heads [rtt] apart, for [n] batches. *)
let batchy ~rtt ~intra ~batch ~n =
  List.concat
    (List.init n (fun b -> List.init batch (fun p -> (b * rtt) + (p * intra))))

let fixed_timeout_counts_on_batchy_flow () =
  let rtt = us 500 and intra = us 10 in
  let timeline = batchy ~rtt ~intra ~batch:4 ~n:100 in
  let run delta =
    let ft = Inband.Fixed_timeout.create ~delta ~now:0 in
    List.fold_left
      (fun acc now ->
        match Inband.Fixed_timeout.on_packet ft ~now with
        | Some _ -> acc + 1
        | None -> acc)
      0 (List.tl timeline)
  in
  (* Correct delta: one sample per batch boundary (99). *)
  check_int "good delta counts batches" 99 (run (us 100));
  (* Too-low delta: every 10us gap splits (3 per batch + boundaries). *)
  check_int "low delta over-samples" (99 + 300) (run (us 5));
  (* Too-high delta: no gap exceeds it, no samples at all. *)
  check_int "high delta starves" 0 (run (ms 2))

(* --- Sample cliff / Algorithm 2 ------------------------------------------- *)

let cliff_pick_basic () =
  check_int "clean cliff" 1 (Inband.Ensemble.cliff_pick [| 500; 490; 2; 0; 0 |]);
  check_int "all equal picks last nonzero edge" 4
    (Inband.Ensemble.cliff_pick [| 10; 10; 10; 10; 10; 0; 0 |]);
  check_int "zeros everywhere picks 0" 0
    (Inband.Ensemble.cliff_pick [| 0; 0; 0; 0 |]);
  (* i only ranges to k-2, so with flat counts the tie goes to index 0
     and the largest timeout is never selectable. *)
  check_int "flat counts tie to index 0" 0
    (Inband.Ensemble.cliff_pick [| 5; 5; 5 |])

let cliff_pick_min_fraction_guards_noise () =
  (* Trailing noise: a handful of junk samples then zero would win the
     raw argmax; the qualification floor must reject it. *)
  let counts = [| 1042; 284; 71; 70; 0; 0; 0 |] in
  check_int "raw rule falls for the noise cliff" 3
    (Inband.Ensemble.cliff_pick counts);
  check_int "guarded rule picks the real cliff" 1
    (Inband.Ensemble.cliff_pick ~min_fraction:0.1 counts)

let cliff_pick_edge_cases () =
  (* A single nonzero lane: its falling edge dominates every ratio. *)
  check_int "single nonzero picks its edge" 2
    (Inband.Ensemble.cliff_pick [| 0; 0; 7; 0; 0 |]);
  (* ...unless it sits in the last lane, which i <= k-2 makes
     unselectable; the flat zero prefix then ties to index 0. *)
  check_int "single nonzero in last lane falls back to 0" 0
    (Inband.Ensemble.cliff_pick [| 0; 0; 0; 9 |]);
  (* All-equal nonzero counts at the minimum legal width. *)
  check_int "all equal, k = 2" 0 (Inband.Ensemble.cliff_pick [| 3; 3 |])

let cliff_pick_min_fraction_floor_boundary () =
  (* floor = ceil(0.25 * 100) = 25: a lane holding exactly the floor
     still qualifies, and its cliff onto zero wins. *)
  check_int "count equal to floor qualifies" 1
    (Inband.Ensemble.cliff_pick ~min_fraction:0.25 [| 100; 25; 0; 0 |]);
  (* One sample below the floor is excluded even though its raw ratio
     (25/1) would dominate; the argmax falls back to lane 0. *)
  check_int "count one below floor is excluded" 0
    (Inband.Ensemble.cliff_pick ~min_fraction:0.25 [| 100; 24; 0; 0 |]);
  (* A fractional floor rounds up: ceil(0.25 * 101) = 26 bars 25. *)
  check_int "fractional floor rounds up" 0
    (Inband.Ensemble.cliff_pick ~min_fraction:0.25 [| 101; 25; 0; 0 |])

(* --- Slab recycling ------------------------------------------------------- *)

let slab_recycles_slots_with_fresh_state () =
  let config =
    {
      Inband.Config.default with
      Inband.Config.cliff_scope = Inband.Config.Per_flow;
    }
  in
  let e = Inband.Ensemble.create ~config in
  let a = Inband.Ensemble.create_flow e ~now:0 in
  let _b = Inband.Ensemble.create_flow e ~now:0 in
  check_int "two live flows" 2 (Inband.Ensemble.live_flows e);
  (* Drive [a] so every lane holds history: a 10ms gap samples in all k
     instances, and the epoch rollover at 70ms re-picks its chosen
     index off the initial one (flat counts tie to index 0). *)
  ignore (Inband.Ensemble.on_packet e a ~now:(ms 10));
  ignore (Inband.Ensemble.on_packet e a ~now:(ms 70));
  check_bool "flow diverged from initial index" true
    (Inband.Ensemble.chosen_index e a
    <> config.Inband.Config.initial_timeout_index);
  Inband.Ensemble.release_flow e a;
  check_int "release decrements live" 1 (Inband.Ensemble.live_flows e);
  let cap = Inband.Ensemble.slab_capacity e in
  let c = Inband.Ensemble.create_flow e ~now:(ms 100) in
  check_int "released slot is recycled" a c;
  check_int "recycling does not grow the slab" cap
    (Inband.Ensemble.slab_capacity e);
  check_int "recycled slot re-seeds chosen index"
    config.Inband.Config.initial_timeout_index
    (Inband.Ensemble.chosen_index e c);
  (* Batch clocks are re-seeded to creation time: a packet 1us later
     sees a 1us gap (below every delta), not the 30ms gap the previous
     occupant's stale clock would report. *)
  (match Inband.Ensemble.on_packet e c ~now:(ms 100 + us 1) with
  | None -> ()
  | Some s -> Alcotest.failf "stale slab state produced sample %d" s);
  (* And samples are measured from the recycled slot's own batch head,
     not the old occupant's. *)
  match Inband.Ensemble.on_packet e c ~now:(ms 105 + us 1) with
  | Some s -> check_int "sample measured from re-seeded head" (ms 5 + us 1) s
  | None -> Alcotest.fail "expected a sample after a 5ms gap"

let ensemble_converges_on_batchy_flow () =
  let config = Inband.Config.default in
  let e = Inband.Ensemble.create ~config in
  let flow = Inband.Ensemble.create_flow e ~now:0 in
  let timeline = batchy ~rtt:(us 500) ~intra:(us 10) ~batch:4 ~n:400 in
  let samples =
    List.filter_map
      (fun now -> Inband.Ensemble.on_packet e flow ~now)
      (List.tl timeline)
  in
  (* Intra gap 10us < chosen delta < inter gap 470us: only 64, 128 or
     256us qualify. *)
  let chosen = Inband.Ensemble.chosen_timeout e flow in
  check_bool
    (Fmt.str "chosen %a in (10us, 470us)" Des.Time.pp chosen)
    true
    (chosen > us 10 && chosen < us 470);
  check_bool "epochs completed" true (Inband.Ensemble.epochs_completed e > 1);
  (* Post-convergence samples equal the true RTT. *)
  (match List.rev samples with
  | last :: _ -> check_int "last sample = true RTT" (us 500) last
  | [] -> Alcotest.fail "no samples");
  (* The first epoch reports under the initial (too large) delta and
     yields nothing; afterwards roughly one sample per batch. *)
  check_bool "produced roughly one sample per batch" true
    (List.length samples > 250)

let ensemble_adapts_to_rtt_change () =
  let config = Inband.Config.default in
  let e = Inband.Ensemble.create ~config in
  let flow = Inband.Ensemble.create_flow e ~now:0 in
  (* Phase 1: RTT 300us for 300 batches; phase 2: RTT 2ms for 200. *)
  let t1 = batchy ~rtt:(us 300) ~intra:(us 10) ~batch:4 ~n:300 in
  let offset = 300 * us 300 in
  let t2 =
    List.map (fun t -> t + offset)
      (batchy ~rtt:(ms 2) ~intra:(us 10) ~batch:4 ~n:200)
  in
  let samples = ref [] in
  List.iter
    (fun now ->
      match Inband.Ensemble.on_packet e flow ~now with
      | Some s -> samples := (now, s) :: !samples
      | None -> ())
    (List.tl (t1 @ t2));
  let late =
    List.filter_map
      (fun (at, s) -> if at > offset + ms 100 then Some s else None)
      !samples
  in
  check_bool "samples after the change" true (List.length late > 20);
  let median =
    let sorted = List.sort compare late in
    List.nth sorted (List.length sorted / 2)
  in
  check_int "tracks the new RTT" (ms 2) median

let ensemble_per_flow_scope () =
  let config =
    { Inband.Config.default with Inband.Config.cliff_scope = Inband.Config.Per_flow }
  in
  let e = Inband.Ensemble.create ~config in
  (* Two flows with very different RTTs each converge to their own delta. *)
  let fast = Inband.Ensemble.create_flow e ~now:0 in
  let slow = Inband.Ensemble.create_flow e ~now:0 in
  let fast_t = batchy ~rtt:(us 400) ~intra:(us 5) ~batch:3 ~n:600 in
  let slow_t = batchy ~rtt:(ms 3) ~intra:(us 5) ~batch:3 ~n:80 in
  List.iter (fun now -> ignore (Inband.Ensemble.on_packet e fast ~now)) (List.tl fast_t);
  List.iter (fun now -> ignore (Inband.Ensemble.on_packet e slow ~now)) (List.tl slow_t);
  let cf = Inband.Ensemble.chosen_timeout e fast in
  let cs = Inband.Ensemble.chosen_timeout e slow in
  check_bool "fast flow delta below its idle gap" true (cf < us 400);
  check_bool "slow flow delta larger" true (cs > cf)

let ensemble_counter_reset_on_epoch () =
  let e = Inband.Ensemble.create ~config:Inband.Config.default in
  let flow = Inband.Ensemble.create_flow e ~now:0 in
  List.iter
    (fun now -> ignore (Inband.Ensemble.on_packet e flow ~now))
    (List.tl (batchy ~rtt:(us 500) ~intra:(us 10) ~batch:4 ~n:100));
  (* 100 batches * 500us = 50ms < one epoch: counters nonzero. *)
  check_bool "counters accumulate" true
    (Array.exists (fun c -> c > 0) (Inband.Ensemble.current_counts e));
  (* Crossing the epoch boundary resets them. *)
  ignore (Inband.Ensemble.on_packet e flow ~now:(ms 65));
  let counts = Inband.Ensemble.current_counts e in
  check_bool "reset after rollover" true
    (Array.for_all (fun c -> c <= 1) counts)

let ensemble_boundary_samples_land_in_new_epoch () =
  let e = Inband.Ensemble.create ~config:Inband.Config.default in
  let flow = Inband.Ensemble.create_flow e ~now:0 in
  List.iter
    (fun now -> ignore (Inband.Ensemble.on_packet e flow ~now))
    (List.tl (batchy ~rtt:(us 500) ~intra:(us 10) ~batch:4 ~n:100));
  (* Last packet ~49.5ms; the next at 65ms crosses the 64ms epoch
     boundary with a gap every sub-detector samples on. The rollover
     must close the old epoch *before* counting, so each counter reads
     exactly one — attributing to the dying epoch would zero them. *)
  ignore (Inband.Ensemble.on_packet e flow ~now:(ms 65));
  Alcotest.(check (array int)) "one sample each, in the new epoch"
    [| 1; 1; 1; 1; 1; 1; 1 |]
    (Inband.Ensemble.current_counts e)

let ensemble_idle_epoch_retains_chosen () =
  let e = Inband.Ensemble.create ~config:Inband.Config.default in
  let flow = Inband.Ensemble.create_flow e ~now:0 in
  (* Epoch 0: batch gaps of 470us sample deltas 64/128/256us only, so
     the cliff sits at index 2. *)
  List.iter
    (fun now -> ignore (Inband.Ensemble.on_packet e flow ~now))
    (List.tl (batchy ~rtt:(us 500) ~intra:(us 10) ~batch:4 ~n:120));
  (* Two packets 30us apart straddling the boundary: the second rolls
     the epoch over but its gap is below every delta, so epoch 1 ends
     with all-zero counts. *)
  ignore (Inband.Ensemble.on_packet e flow ~now:(us 63_990));
  ignore (Inband.Ensemble.on_packet e flow ~now:(us 64_020));
  check_int "cliff picked 256us at rollover" (us 256)
    (Inband.Ensemble.chosen_timeout e flow);
  (* The packet at 250ms closes that sample-free epoch. The all-zero
     argmax must not silently reset the choice to delta_1. *)
  ignore (Inband.Ensemble.on_packet e flow ~now:(ms 250));
  check_int "idle epoch keeps the chosen timeout" (us 256)
    (Inband.Ensemble.chosen_timeout e flow)

(* --- Syn_rtt ------------------------------------------------------------- *)

let syn_rtt_measures_handshake () =
  let t = Inband.Syn_rtt.create () in
  Alcotest.(check (option int)) "syn itself yields nothing" None
    (Inband.Syn_rtt.on_packet t ~now:(us 100) ~syn:true);
  Alcotest.(check (option int)) "handshake ack yields the gap"
    (Some (us 250))
    (Inband.Syn_rtt.on_packet t ~now:(us 350) ~syn:false);
  check_bool "sampled" true (Inband.Syn_rtt.sampled t);
  Alcotest.(check (option int)) "at most one sample" None
    (Inband.Syn_rtt.on_packet t ~now:(us 999) ~syn:false)

let syn_rtt_retransmitted_syn_rearms () =
  let t = Inband.Syn_rtt.create () in
  ignore (Inband.Syn_rtt.on_packet t ~now:0 ~syn:true);
  ignore (Inband.Syn_rtt.on_packet t ~now:(ms 1) ~syn:true);
  Alcotest.(check (option int)) "measured from the latest SYN"
    (Some (us 200))
    (Inband.Syn_rtt.on_packet t ~now:(ms 1 + us 200) ~syn:false)

let syn_rtt_data_before_syn_ignored () =
  let t = Inband.Syn_rtt.create () in
  Alcotest.(check (option int)) "mid-flow pickup yields nothing" None
    (Inband.Syn_rtt.on_packet t ~now:(us 10) ~syn:false);
  check_bool "not sampled" false (Inband.Syn_rtt.sampled t)

let fixed_timeout_conservation =
  QCheck.Test.make ~count:200
    ~name:"fixed timeout: samples sum to the span between batch heads"
    QCheck.(pair (int_range 1 5000) (list_of_size Gen.(int_range 1 200) (int_range 1 2000)))
    (fun (delta_us, gaps_us) ->
      (* Build an arrival timeline from positive gaps; every sample is a
         gap between successive batch heads, so the samples must sum to
         (last batch head - first packet time). *)
      let delta = us delta_us in
      let times =
        List.fold_left
          (fun acc gap -> (List.hd acc + us gap) :: acc)
          [ 0 ] gaps_us
        |> List.rev
      in
      let ft = Inband.Fixed_timeout.create ~delta ~now:0 in
      let total, last_head =
        List.fold_left
          (fun (total, last_head) now ->
            match Inband.Fixed_timeout.on_packet ft ~now with
            | Some s -> (total + s, now)
            | None -> (total, last_head))
          (0, 0) (List.tl times)
      in
      total = last_head)

let ensemble_scope_equivalence =
  QCheck.Test.make ~count:50
    ~name:"single flow: Global and Per_flow scopes report identically"
    QCheck.(pair (int_range 100 900) (int_range 50 400))
    (fun (rtt_us, n_batches) ->
      let timeline = batchy ~rtt:(us rtt_us) ~intra:(us 7) ~batch:3 ~n:n_batches in
      let run scope =
        let config = { Inband.Config.default with Inband.Config.cliff_scope = scope } in
        let e = Inband.Ensemble.create ~config in
        let flow = Inband.Ensemble.create_flow e ~now:0 in
        List.filter_map
          (fun now -> Inband.Ensemble.on_packet e flow ~now)
          (List.tl timeline)
      in
      run Inband.Config.Global = run Inband.Config.Per_flow)

(* --- Server_stats ----------------------------------------------------------- *)

let server_stats_basic () =
  let s = Inband.Server_stats.create ~n:3 ~ewma_alpha:0.5 () in
  check_bool "no estimate yet" true (Inband.Server_stats.estimate s 0 = None);
  Inband.Server_stats.record s ~server:0 ~sample:(us 100) ~at:(ms 1);
  Inband.Server_stats.record s ~server:2 ~sample:(us 500) ~at:(ms 2);
  Alcotest.(check (float 1.0)) "first sample is the estimate" 500_000.0
    (Option.get (Inband.Server_stats.estimate s 2));
  check_bool "unsampled server has none" true
    (Inband.Server_stats.estimate s 1 = None);
  check_int "count" 1 (Inband.Server_stats.sample_count s 0);
  check_int "no samples" 0 (Inband.Server_stats.sample_count s 1);
  check_bool "last at" true (Inband.Server_stats.last_sample_at s 2 = Some (ms 2));
  check_bool "never sampled" true
    (Inband.Server_stats.last_sample_at s 1 = None)

let server_stats_ewma_smooths () =
  let s = Inband.Server_stats.create ~n:1 ~ewma_alpha:0.5 () in
  Inband.Server_stats.record s ~server:0 ~sample:(us 100) ~at:0;
  Inband.Server_stats.record s ~server:0 ~sample:(us 300) ~at:0;
  Alcotest.(check (float 1.0)) "ewma" 200_000.0
    (Option.get (Inband.Server_stats.estimate s 0))

let server_stats_windowed_median_robust () =
  let s = Inband.Server_stats.create ~n:1 ~ewma_alpha:0.5 ~window:5 () in
  (* Four normal samples and one monster tail: the median shrugs it
     off where the EWMA would jump. *)
  List.iter
    (fun v -> Inband.Server_stats.record s ~server:0 ~sample:v ~at:0)
    [ us 100; us 110; us 90; Des.Time.ms 50; us 105 ];
  Alcotest.(check (float 1.0)) "median ignores the tail" 105_000.0
    (Option.get (Inband.Server_stats.estimate s 0));
  (* The ring is circular: five more slow samples flip the estimate. *)
  for _ = 1 to 5 do
    Inband.Server_stats.record s ~server:0 ~sample:(Des.Time.ms 2) ~at:0
  done;
  Alcotest.(check (float 1.0)) "sustained shift moves the median" 2_000_000.0
    (Option.get (Inband.Server_stats.estimate s 0))

let server_stats_partial_window () =
  let s = Inband.Server_stats.create ~n:1 ~ewma_alpha:0.5 ~window:8 () in
  Inband.Server_stats.record s ~server:0 ~sample:(us 70) ~at:0;
  Alcotest.(check (float 1.0)) "median of one" 70_000.0
    (Option.get (Inband.Server_stats.estimate s 0))

(* --- Controller --------------------------------------------------------------- *)

let mk_controller ?(config = Inband.Config.default) ?(n = 2) () =
  let names = Array.init n (fun i -> Fmt.str "s%d" i) in
  let pool = Maglev.Pool.create ~table_size:1021 ~names () in
  (Inband.Controller.create ~config ~pool (), pool)

let controller_shift_arithmetic () =
  let config =
    { Inband.Config.default with Inband.Config.control_interval = 0 }
  in
  let c, _pool = mk_controller ~config ~n:3 () in
  (* Server 2 slow, others fast: one sample each to populate, then the
     shift targets server 2. *)
  ignore (Inband.Controller.on_sample c ~now:(ms 1) ~server:0 (us 100));
  (match Inband.Controller.on_sample c ~now:(ms 2) ~server:2 (us 900) with
  | Some action ->
      check_int "victim" 2 action.Inband.Controller.victim;
      Alcotest.(check (float 1e-9)) "shift = alpha" 0.10
        action.Inband.Controller.shifted;
      let w = action.Inband.Controller.weights_after in
      Alcotest.(check (float 1e-6)) "victim loses alpha" ((1.0 /. 3.0) -. 0.10) w.(2);
      Alcotest.(check (float 1e-6)) "others gain alpha/2" ((1.0 /. 3.0) +. 0.05) w.(0);
      Alcotest.(check (float 1e-6)) "weights sum to 1" 1.0
        (Array.fold_left ( +. ) 0.0 w)
  | None -> Alcotest.fail "expected an action")

let controller_needs_two_servers_with_samples () =
  let config = { Inband.Config.default with Inband.Config.control_interval = 0 } in
  let c, _ = mk_controller ~config ()
  in
  check_bool "single-server samples do not act" true
    (Inband.Controller.on_sample c ~now:(ms 1) ~server:0 (us 900) = None);
  check_bool "still nothing" true
    (Inband.Controller.on_sample c ~now:(ms 2) ~server:0 (us 950) = None)

let controller_respects_min_weight () =
  let config =
    {
      Inband.Config.default with
      Inband.Config.control_interval = 0;
      min_weight = 0.05;
    }
  in
  let c, _ = mk_controller ~config () in
  ignore (Inband.Controller.on_sample c ~now:(ms 1) ~server:0 (us 100));
  for i = 2 to 40 do
    ignore (Inband.Controller.on_sample c ~now:(ms i) ~server:1 (us 900))
  done;
  let w = Inband.Controller.weights c in
  check_bool "victim floored" true (w.(1) >= 0.049);
  check_bool "acted repeatedly then stopped at floor" true
    (Inband.Controller.action_count c >= 4);
  Alcotest.(check (float 1e-6)) "sum 1" 1.0 (Array.fold_left ( +. ) 0.0 w)

let controller_interval_spacing () =
  let config =
    { Inband.Config.default with Inband.Config.control_interval = ms 10 }
  in
  let c, _ = mk_controller ~config () in
  ignore (Inband.Controller.on_sample c ~now:(us 100) ~server:0 (us 100));
  let a1 = Inband.Controller.on_sample c ~now:(us 200) ~server:1 (us 900) in
  check_bool "first action allowed" true (a1 <> None);
  let a2 = Inband.Controller.on_sample c ~now:(us 300) ~server:1 (us 900) in
  check_bool "second action suppressed inside interval" true (a2 = None);
  let a3 = Inband.Controller.on_sample c ~now:(ms 11) ~server:1 (us 900) in
  check_bool "allowed after interval" true (a3 <> None)

let controller_relative_threshold () =
  let config =
    {
      Inband.Config.default with
      Inband.Config.control_interval = 0;
      relative_threshold = 2.0;
    }
  in
  let c, _ = mk_controller ~config () in
  ignore (Inband.Controller.on_sample c ~now:(ms 1) ~server:0 (us 100));
  check_bool "1.5x gap below threshold: no action" true
    (Inband.Controller.on_sample c ~now:(ms 2) ~server:1 (us 150) = None);
  check_bool "3x gap acts" true
    (Inband.Controller.on_sample c ~now:(ms 3) ~server:1 (us 900) <> None)

let controller_recovery_pulls_to_uniform () =
  let config =
    {
      Inband.Config.default with
      Inband.Config.control_interval = 0;
      recovery_rate = 0.5 (* per second towards uniform *);
      relative_threshold = 5.0;
    }
  in
  let c, _ = mk_controller ~config () in
  (* Build a skew: 10x gap exceeds the 5x threshold. *)
  ignore (Inband.Controller.on_sample c ~now:(ms 1) ~server:0 (us 100));
  ignore (Inband.Controller.on_sample c ~now:(ms 2) ~server:1 (us 1000));
  (* Feed low samples until server 1's EWMA decays below the threshold;
     a couple of early ones may still shift. *)
  for i = 3 to 6 do
    ignore (Inband.Controller.on_sample c ~now:(ms i) ~server:1 (us 100))
  done;
  let skewed = (Inband.Controller.weights c).(1) in
  check_bool "skewed below uniform" true (skewed < 0.5);
  (* A second later, still below threshold: only recovery acts, pulling
     halfway back to uniform. *)
  ignore
    (Inband.Controller.on_sample c ~now:(Des.Time.sec 1 + ms 6) ~server:1
       (us 100));
  let after = (Inband.Controller.weights c).(1) in
  check_bool
    (Fmt.str "recovered towards uniform: %.3f -> %.3f" skewed after)
    true
    (after > skewed +. 0.05)

let controller_weight_simplex_qcheck =
  QCheck.Test.make ~count:50
    ~name:"weights remain a simplex under arbitrary sample sequences"
    QCheck.(list_of_size Gen.(int_range 10 100) (pair (int_bound 2) (int_range 50 5000)))
    (fun events ->
      let config =
        { Inband.Config.default with Inband.Config.control_interval = 0 }
      in
      let names = [| "a"; "b"; "c" |] in
      let pool = Maglev.Pool.create ~table_size:1021 ~names () in
      let c = Inband.Controller.create ~config ~pool () in
      List.iteri
        (fun i (server, lat_us) ->
          ignore
            (Inband.Controller.on_sample c ~now:(ms (i + 1)) ~server
               (us lat_us)))
        events;
      let w = Inband.Controller.weights c in
      let sum = Array.fold_left ( +. ) 0.0 w in
      Float.abs (sum -. 1.0) < 1e-6
      && Array.for_all (fun v -> v >= 0.0 && v <= 1.0) w)

let controller_first_action_after () =
  let config = { Inband.Config.default with Inband.Config.control_interval = 0 } in
  let c, _ = mk_controller ~config () in
  List.iter (Inband.Controller.register_instant c) [ ms 60; 0; ms 10 ];
  ignore (Inband.Controller.on_sample c ~now:(ms 1) ~server:0 (us 100));
  ignore (Inband.Controller.on_sample c ~now:(ms 2) ~server:1 (us 900));
  ignore (Inband.Controller.on_sample c ~now:(ms 50) ~server:1 (us 900));
  check_bool "before any" true
    (Inband.Controller.first_action_after c 0 = Some (ms 2));
  check_bool "between" true
    (Inband.Controller.first_action_after c (ms 10) = Some (ms 50));
  check_bool "after all" true
    (Inband.Controller.first_action_after c (ms 60) = None);
  Alcotest.check_raises "unregistered"
    (Invalid_argument "Controller.first_action_after: instant not registered")
    (fun () -> ignore (Inband.Controller.first_action_after c (ms 20)));
  Alcotest.check_raises "registered too late"
    (Invalid_argument
       "Controller.register_instant: an action at or after it was taken")
    (fun () -> Inband.Controller.register_instant c (ms 40));
  (* Registering an instant again is a no-op, answered or not. *)
  List.iter (Inband.Controller.register_instant c) [ 0; ms 10; ms 60 ];
  check_bool "re-registered" true
    (List.map (Inband.Controller.first_action_after c) [ 0; ms 10; ms 60 ]
    = [ Some (ms 2); Some (ms 50); None ])

let controller_reaction_past_history_cap () =
  (* Far more shifts than the capped history keeps (4096, trimmed at
     8192), with the slow server flipping every 6 us. The first action
     at or after a registered instant is recorded when it is taken, so
     the reaction equals an unbounded log's, although the history has
     long dropped it (a scan of it would answer with its oldest entry). *)
  let config =
    {
      Inband.Config.default with
      Inband.Config.control_interval = 0;
      ewma_alpha = 1.0;
    }
  in
  let c, _ = mk_controller ~config () in
  let early = 500 and late = us 12_000 + 500 in
  List.iter (Inband.Controller.register_instant c) [ early; late ];
  let log = ref [] in
  let sample ~now ~server latency =
    match Inband.Controller.on_sample c ~now ~server latency with
    | Some a -> log := a.Inband.Controller.at :: !log
    | None -> ()
  in
  for i = 1 to 30_000 do
    let slow = i / 6 mod 2 in
    sample ~now:(us i) ~server:(1 - slow) (us 100);
    sample ~now:(us i) ~server:slow (us 900)
  done;
  let all = List.rev !log in
  let before at = List.length (List.filter (fun a -> a < at) all) in
  check_bool "more actions before the late instant than the cap" true
    (before late > 2 * 4096);
  let reaction at first =
    Option.map (fun a -> Des.Time.to_float_ms (a - at)) first
  in
  List.iter
    (fun at ->
      let unbounded = List.find_opt (fun a -> a >= at) all in
      (match (Inband.Controller.actions c, unbounded) with
      | oldest :: _, Some first ->
          check_bool "the history dropped it" true
            (oldest.Inband.Controller.at > first)
      | _ -> Alcotest.fail "no action");
      Alcotest.(check (option (float 0.0)))
        "reaction in ms" (reaction at unbounded)
        (reaction at (Inband.Controller.first_action_after c at)))
    [ early; late ]

let controller_recovery_dt_clamp () =
  let config =
    {
      Inband.Config.default with
      Inband.Config.control_interval = 0;
      recovery_rate = 0.5;
      relative_threshold = 5.0;
    }
  in
  let c, _ = mk_controller ~config () in
  (* Skew the weights, then let the estimates settle below threshold. *)
  ignore (Inband.Controller.on_sample c ~now:(ms 1) ~server:0 (us 100));
  ignore (Inband.Controller.on_sample c ~now:(ms 2) ~server:1 (us 1000));
  for i = 3 to 6 do
    ignore (Inband.Controller.on_sample c ~now:(ms i) ~server:1 (us 100))
  done;
  let skewed = (Inband.Controller.weights c).(1) in
  check_bool "skewed below uniform" true (skewed < 0.5);
  (* 100 seconds of silence: an unclamped dt would overshoot uniform by
     49x. The clamp caps the pull at one interval's worth, so exactly
     rate * (uniform - w) moves. *)
  ignore
    (Inband.Controller.on_sample c ~now:(Des.Time.sec 100 + ms 6) ~server:1
       (us 100));
  Alcotest.(check (float 1e-6)) "pull capped at rate * 1s"
    (skewed +. (0.5 *. (0.5 -. skewed)))
    (Inband.Controller.weights c).(1)

let controller_no_rebuild_when_unmoved () =
  let config =
    {
      Inband.Config.default with
      Inband.Config.control_interval = 0;
      recovery_rate = 1e-6;
      relative_threshold = 5.0;
    }
  in
  let c, pool = mk_controller ~config () in
  (* The recovery pull runs only after a first commit: make one, of the
     uniform weights, and let a read build its table. *)
  Inband.Controller.impose_weights c ~now:0 [| 0.5; 0.5 |];
  ignore (Maglev.Pool.lookup pool 0);
  let builds = Maglev.Pool.rebuilds pool in
  (* Weights are already uniform and the samples sit below the
     threshold: the recovery pull computes a step far under the motion
     epsilon, so nothing may be committed. A commit builds no table
     until a read, so each sample is followed by a lookup, which would
     build the table of any commit. *)
  List.iter
    (fun (now, server, latency) ->
      ignore (Inband.Controller.on_sample c ~now ~server latency);
      ignore (Maglev.Pool.lookup pool 0))
    [ (ms 1, 0, us 100); (ms 2, 1, us 110); (Des.Time.sec 1, 1, us 110) ];
  check_int "no table rebuilds for a vanishing pull" builds
    (Maglev.Pool.rebuilds pool)

let controller_builds_at_first_read () =
  let config =
    { Inband.Config.default with Inband.Config.control_interval = 0 }
  in
  let c, pool = mk_controller ~config ~n:3 () in
  let builds = Maglev.Pool.rebuilds pool in
  (* Odd samples report a fast server, even ones a slow server, a
     different one each time, so many of the slow samples act. *)
  let acted = ref 0 in
  for i = 1 to 40 do
    let slow = i / 2 mod 3 in
    let fast = (slow + 1) mod 3 in
    let server, latency =
      if i land 1 = 0 then (slow, us 900) else (fast, us 100)
    in
    match Inband.Controller.on_sample c ~now:(ms i) ~server latency with
    | Some _ -> incr acted
    | None -> ()
  done;
  check_bool "acted many times" true (!acted >= 10);
  check_int "every action counted" !acted (Inband.Controller.action_count c);
  check_int "no table built without a read" builds (Maglev.Pool.rebuilds pool);
  ignore (Maglev.Pool.lookup pool 12345);
  check_int "the first read builds once" (builds + 1)
    (Maglev.Pool.rebuilds pool);
  ignore (Maglev.Pool.lookup pool 54321);
  check_int "later reads build nothing" (builds + 1)
    (Maglev.Pool.rebuilds pool);
  let w = Inband.Controller.weights c in
  let expected =
    Maglev.Table.populate ~size:1021
      ~backends:(Array.init 3 (fun i -> (Fmt.str "s%d" i, w.(i))))
      ()
  in
  check_bool "the table of the last commit" true
    (Maglev.Pool.current_table pool = expected)

(* --- Balancer ------------------------------------------------------------------ *)

type bal_rig = {
  engine : Des.Engine.t;
  fabric : Netsim.Fabric.t;
  balancer : Inband.Balancer.t;
  arrivals : (int * Netsim.Packet.t) list ref; (* (server_ip, pkt) *)
}

let vip = Netsim.Addr.v 1 11211

let make_bal_rig ?(policy = Inband.Policy.Static_maglev) ?config ?(n = 3) () =
  let engine = Des.Engine.create () in
  let fabric = Netsim.Fabric.create engine in
  let server_ips = Array.init n (fun i -> 10 + i) in
  let balancer =
    Inband.Balancer.create fabric ~vip ~server_ips ?policy:(Some policy)
      ?config ~table_size:1021 ()
  in
  let arrivals = ref [] in
  Array.iter
    (fun ip ->
      Netsim.Fabric.register fabric ~ip (fun pkt ->
          arrivals := (ip, pkt) :: !arrivals);
      Netsim.Fabric.add_link fabric ~src:1 ~dst:ip
        (Netsim.Link.create engine ~delay:(us 10) ()))
    server_ips;
  Netsim.Fabric.register fabric ~ip:100 (fun _ -> ());
  Netsim.Fabric.add_link fabric ~src:100 ~dst:1
    (Netsim.Link.create engine ~delay:(us 10) ());
  { engine; fabric; balancer; arrivals }

let send_from_client rig ~port ?(flags = Netsim.Packet.flag_ack) ?(payload = "p")
    () =
  Netsim.Fabric.send rig.fabric ~from:100
    (Netsim.Packet.make ~src:(Netsim.Addr.v 100 port) ~dst:vip ~seq:0 ~ack:0
       ~flags ~payload)

let balancer_forwards_and_pins () =
  let rig = make_bal_rig () in
  for _ = 1 to 5 do
    send_from_client rig ~port:7777 ()
  done;
  Des.Engine.run ~until:(Des.Time.sec 1) rig.engine;
  let servers = List.map fst !(rig.arrivals) in
  check_int "all five forwarded" 5 (List.length servers);
  (match servers with
  | first :: rest ->
      check_bool "per-connection affinity" true
        (List.for_all (fun s -> s = first) rest)
  | [] -> Alcotest.fail "no arrivals");
  check_int "one tracked flow" 1 (Inband.Balancer.active_flows rig.balancer);
  check_int "packets counted" 5 (Inband.Balancer.packets_forwarded rig.balancer)

let balancer_affinity_survives_weight_change () =
  let rig = make_bal_rig ~policy:Inband.Policy.Latency_aware () in
  send_from_client rig ~port:4242 ();
  Des.Engine.run ~until:(Des.Time.sec 1) rig.engine;
  let before = List.map fst !(rig.arrivals) in
  (* Force a dramatic weight change behind the flow's back. *)
  let pool = Inband.Balancer.pool rig.balancer in
  Maglev.Pool.set_weights pool [| 0.98; 0.01; 0.01 |];
  Maglev.Pool.rebuild pool;
  send_from_client rig ~port:4242 ();
  Des.Engine.run ~until:(Des.Time.sec 1) rig.engine;
  let after = List.map fst !(rig.arrivals) in
  check_bool "same server before and after rebuild" true
    (List.hd before = List.hd after)

let balancer_round_robin_cycles () =
  let rig = make_bal_rig ~policy:Inband.Policy.Round_robin () in
  for port = 1 to 6 do
    send_from_client rig ~port ()
  done;
  Des.Engine.run ~until:(Des.Time.sec 1) rig.engine;
  let counts = Array.make 3 0 in
  List.iter
    (fun (ip, _) -> counts.(ip - 10) <- counts.(ip - 10) + 1)
    !(rig.arrivals);
  Alcotest.(check (array int)) "two flows each" [| 2; 2; 2 |] counts

let balancer_least_conn_prefers_idle () =
  let rig = make_bal_rig ~policy:Inband.Policy.Least_conn () in
  (* Three live flows land on three distinct servers. *)
  for port = 1 to 3 do
    send_from_client rig ~port ()
  done;
  Des.Engine.run ~until:(Des.Time.sec 1) rig.engine;
  Alcotest.(check (array int)) "spread one each" [| 1; 1; 1 |]
    (Inband.Balancer.active_conns rig.balancer)

let balancer_fin_releases_conn_gauge () =
  let rig = make_bal_rig ~policy:Inband.Policy.Least_conn () in
  send_from_client rig ~port:1 ();
  Des.Engine.run ~until:(Des.Time.sec 1) rig.engine;
  check_int "one live" 1
    (Array.fold_left ( + ) 0 (Inband.Balancer.active_conns rig.balancer));
  send_from_client rig ~port:1 ~flags:Netsim.Packet.flag_fin_ack ();
  Des.Engine.run ~until:(Des.Time.sec 2) rig.engine;
  check_int "fin releases" 0
    (Array.fold_left ( + ) 0 (Inband.Balancer.active_conns rig.balancer))

let balancer_sweep_evicts_idle_flows () =
  let config =
    {
      Inband.Config.default with
      Inband.Config.flow_idle_timeout = ms 100;
      sweep_interval = ms 50;
    }
  in
  let rig = make_bal_rig ~config () in
  send_from_client rig ~port:9 ();
  Des.Engine.run ~until:(ms 30) rig.engine;
  check_int "tracked while fresh" 1 (Inband.Balancer.active_flows rig.balancer);
  Des.Engine.run ~until:(Des.Time.sec 1) rig.engine;
  check_int "evicted when idle" 0 (Inband.Balancer.active_flows rig.balancer)

(* Idle expiry walks a bucket most recently filed first and re-files a
   survivor on the front of its new bucket's chain. Released slots go
   on the ensemble's free stack, so the order in which it hands them
   back out is the reverse of the sweep's. A, B, C, D open at t = 0
   (slots 0-3); B and C send again at 40 ms. The sweep at 50 ms walks
   D, C, B, A: it frees D and A and re-files C, then B, so B heads the
   chain. The sweep at 100 ms frees B, then C, and walking and freeing
   that chain allocates nothing: no key is built and no flow looked
   up. *)
let balancer_sweep_order () =
  let config =
    {
      Inband.Config.default with
      Inband.Config.flow_idle_timeout = ms 30;
      sweep_interval = ms 50;
    }
  in
  let rig = make_bal_rig ~config () in
  let ports = [ 1; 2; 3; 4 ] in
  List.iter (fun port -> send_from_client rig ~port ()) ports;
  Des.Engine.run ~until:(ms 40) rig.engine;
  List.iter (fun port -> send_from_client rig ~port ()) [ 2; 3 ];
  Des.Engine.run ~until:(ms 60) rig.engine;
  let ensemble = Inband.Balancer.ensemble rig.balancer in
  let hand_out n =
    List.init n (fun _ -> Inband.Ensemble.create_flow ensemble ~now:0)
  in
  check_int "B and C survive the first sweep" 2
    (Inband.Balancer.active_flows rig.balancer);
  Alcotest.(check (list int)) "first sweep freed D, then A" [ 0; 3 ] (hand_out 2);
  (* Words a run allocates, less what measuring an empty run costs. *)
  let words_to until =
    let w0 = Gc.minor_words () in
    Des.Engine.run ~until rig.engine;
    Gc.minor_words () -. w0
  in
  let idle = words_to (ms 70) in
  let sweep = words_to (ms 110) in
  check_int "second sweep expires the re-filed pair" 0
    (Inband.Balancer.active_flows rig.balancer);
  Alcotest.(check (list int)) "re-filed B heads the chain" [ 2; 1 ] (hand_out 2);
  Alcotest.(check (float 0.0)) "the sweep allocates nothing" idle sweep

(* Opening 2^12 flows grows the live heap by the flat table's cells
   (three words a bucket) and the one-byte live flag per slot, and by
   no block per flow: the table keeps no key record, the idle chains are
   Bigarray lanes, and the packets themselves die after forwarding. *)
let balancer_flow_state_is_flat () =
  let n = 1 lsl 12 in
  let engine = Des.Engine.create () in
  let fabric = Netsim.Fabric.create engine in
  let server_ips = [| 10; 11; 12 |] in
  let balancer =
    Inband.Balancer.create fabric ~vip ~server_ips ~table_size:1021 ()
  in
  Array.iter
    (fun ip ->
      Netsim.Fabric.register fabric ~ip ignore;
      Netsim.Fabric.add_link fabric ~src:1 ~dst:ip
        (Netsim.Link.create engine ~delay:(us 10) ()))
    server_ips;
  let open_flow port =
    Netsim.Fabric.deliver fabric ~ip:1
      (Netsim.Packet.make ~src:(Netsim.Addr.v 100 port) ~dst:vip ~seq:0 ~ack:0
         ~flags:Netsim.Packet.flag_ack ~payload:"");
    Des.Engine.run ~until:(Des.Engine.now engine + us 10) engine
  in
  open_flow 0;
  Gc.compact ();
  let live0 = (Gc.stat ()).Gc.live_words in
  let cap0 = Inband.Balancer.flow_capacity balancer in
  for port = 1 to n do
    open_flow port
  done;
  Gc.full_major ();
  let grown = (Gc.stat ()).Gc.live_words - live0 in
  let cells = 3 * (Inband.Balancer.flow_capacity balancer - cap0) in
  check_int "all tracked" (n + 1) (Inband.Balancer.active_flows balancer);
  let per_flow = float_of_int grown /. float_of_int n in
  let beyond_cells = float_of_int (grown - cells) /. float_of_int n in
  if per_flow > 6.5 || beyond_cells > 0.5 then
    Alcotest.failf
      "%d flows grew the live heap by %d words (%.2f a flow), %.2f a flow \
       beyond the table's %d cell words"
      n grown per_flow beyond_cells cells

let balancer_buses_fire () =
  let rig = make_bal_rig ~policy:Inband.Policy.Latency_aware () in
  let tapped = ref 0 in
  ignore
    (Telemetry.Bus.subscribe
       (Inband.Balancer.packet_bus rig.balancer)
       (fun _ -> incr tapped));
  let hooked = ref 0 in
  ignore
    (Telemetry.Bus.subscribe
       (Inband.Balancer.sample_bus rig.balancer)
       (fun (_ : Inband.Balancer.sample_event) -> incr hooked));
  (* Batchy traffic on one flow: 3-packet bursts 500us apart, spanning
     several 64ms epochs so the ensemble converges to a reporting
     delta. *)
  let rec burst b =
    if b < 300 then begin
      ignore
        (Des.Engine.schedule rig.engine ~at:(b * us 500) (fun () ->
             for _ = 1 to 3 do
               send_from_client rig ~port:5 ()
             done;
             burst (b + 1)))
    end
  in
  burst 0;
  Des.Engine.run ~until:(Des.Time.sec 1) rig.engine;
  check_int "tap saw every packet" 900 !tapped;
  check_bool "estimator produced samples through the hook" true (!hooked > 0);
  check_int "hook count matches balancer counter" !hooked
    (Inband.Balancer.samples_produced rig.balancer)

let balancer_controller_only_for_latency_aware () =
  let a = make_bal_rig ~policy:Inband.Policy.Static_maglev () in
  check_bool "maglev has no controller" true
    (Inband.Balancer.controller a.balancer = None);
  let b = make_bal_rig ~policy:Inband.Policy.Latency_aware () in
  check_bool "latency-aware has one" true
    (Inband.Balancer.controller b.balancer <> None)

let balancer_rejects_empty_pool () =
  let engine = Des.Engine.create () in
  let fabric = Netsim.Fabric.create engine in
  Alcotest.check_raises "no servers"
    (Invalid_argument "Balancer.create: no servers") (fun () ->
      ignore (Inband.Balancer.create fabric ~vip ~server_ips:[||] ()))

(* --- Control-law zoo -------------------------------------------------- *)

let law_view ?(alpha = 0.1) ?(min_weight = 0.01) ?(threshold = 1.3) ~weights
    ~ests () =
  {
    Inband.Control_law.now = ms 10;
    estimate = (fun i -> if i < Array.length ests then ests.(i) else None);
    weights;
    drained = (fun _ -> false);
    alpha;
    min_weight;
    relative_threshold = threshold;
  }

let law_name = Inband.Control_law.to_string

let law_string_round_trip () =
  List.iter
    (fun k ->
      match Inband.Control_law.of_string (law_name k) with
      | Ok k' -> check_bool (law_name k) true (k = k')
      | Error m -> Alcotest.fail m)
    Inband.Control_law.all;
  (match Inband.Control_law.of_string "shift_worst" with
  | Ok Inband.Control_law.Shift_worst -> ()
  | _ -> Alcotest.fail "shift_worst alias not accepted");
  (match Inband.Control_law.of_string "gradient-descent" with
  | Ok Inband.Control_law.Gradient -> ()
  | _ -> Alcotest.fail "gradient-descent alias not accepted");
  match Inband.Control_law.of_string "bogus" with
  | Ok _ -> Alcotest.fail "accepted a bogus law name"
  | Error m ->
      Alcotest.(check string)
        "error quotes the input and lists the laws"
        "unknown law \"bogus\" (shift-worst|knapsack|gradient)" m

(* Every law, offered a server 10x slower than its peer, moves mass off
   it — and proposes on a fresh array, leaving the view's untouched. *)
let law_moves_off_slow_server () =
  List.iter
    (fun k ->
      let t = Inband.Control_law.create k ~n:2 in
      let weights = [| 0.5; 0.5 |] in
      let ests = [| Some 100_000.0; Some 1_000_000.0 |] in
      match Inband.Control_law.propose t (law_view ~weights ~ests ()) with
      | None -> Alcotest.fail (law_name k ^ ": held on a 10x-slow server")
      | Some p ->
          check_bool (law_name k ^ ": victim is the slow server") true
            (p.Inband.Control_law.victim = 1);
          check_bool (law_name k ^ ": mass moved off it") true
            (p.Inband.Control_law.weights.(1) < 0.5 -. 1e-6);
          check_bool (law_name k ^ ": shifted matches the move") true
            (Float.abs
               (p.Inband.Control_law.shifted
               -. (0.5 -. p.Inband.Control_law.weights.(1)))
            < 1e-9);
          check_bool (law_name k ^ ": view weights untouched") true
            (weights.(0) = 0.5 && weights.(1) = 0.5))
    Inband.Control_law.all

(* Uniform estimates over uniform weights are a fixed point of all three
   laws: shift-worst is below threshold, knapsack's targets equal the
   current weights, and the gradient's centred step is exactly zero. *)
let law_uniform_fixed_point () =
  List.iter
    (fun k ->
      let n = 4 in
      let t = Inband.Control_law.create k ~n in
      let weights = Array.make n (1.0 /. float_of_int n) in
      let ests = Array.make n (Some 300_000.0) in
      for step = 1 to 3 do
        match Inband.Control_law.propose t (law_view ~weights ~ests ()) with
        | None -> ()
        | Some p ->
            check_bool
              (Fmt.str "%s: step %d stays empty at the fixed point"
                 (law_name k) step)
              true
              (p.Inband.Control_law.shifted <= 1e-9)
      done)
    Inband.Control_law.all

(* The raw-view battery: any law, fed arbitrary weight vectors and
   estimate patterns (including the all-zero and single-hot edge
   cases), either holds or proposes a finite, non-negative, normalised
   vector with a coherent victim — without mutating the input. *)
let law_simplex_qcheck =
  QCheck.Test.make ~count:500
    ~name:"every control law proposes on the weight simplex"
    QCheck.(
      triple (int_range 0 2) (int_range 0 3)
        (list_of_size
           Gen.(int_range 2 8)
           (pair (int_range 1 1000) (option (int_range 0 2000)))))
    (fun (law_ix, shape, raw) ->
      let n = List.length raw in
      let weights =
        Array.of_list (List.map (fun (w, _) -> float_of_int w) raw)
      in
      let total = Array.fold_left ( +. ) 0.0 weights in
      Array.iteri (fun i w -> weights.(i) <- w /. total) weights;
      let snapshot = Array.copy weights in
      let ests =
        match shape with
        | 1 -> Array.make n (Some 0.0) (* all-zero: clamped inside *)
        | 2 -> Array.init n (fun i -> Some (if i = 0 then 1e9 else 100.0))
        | 3 -> Array.make n (Some 300_000.0) (* uniform *)
        | _ ->
            Array.of_list
              (List.map
                 (fun (_, e) -> Option.map (fun v -> float_of_int v *. 1e3) e)
                 raw)
      in
      let kind = List.nth Inband.Control_law.all law_ix in
      let t = Inband.Control_law.create kind ~n in
      let ok =
        match Inband.Control_law.propose t (law_view ~weights ~ests ()) with
        | None -> true
        | Some p ->
            let w = p.Inband.Control_law.weights in
            let sum = Array.fold_left ( +. ) 0.0 w in
            Array.length w = n
            && Array.for_all (fun v -> Float.is_finite v && v >= 0.0) w
            && Float.abs (sum -. 1.0) <= 1e-6
            && Float.is_finite p.Inband.Control_law.shifted
            && p.Inband.Control_law.shifted >= 0.0
            && p.Inband.Control_law.victim >= 0
            && p.Inband.Control_law.victim < n
      in
      ok && snapshot = weights)

let () =
  Alcotest.run "inband"
    [
      ( "config",
        [
          Alcotest.test_case "default valid" `Quick config_default_valid;
          Alcotest.test_case "paper constants" `Quick config_paper_constants;
          Alcotest.test_case "rejects bad" `Quick config_rejects_bad;
        ] );
      ( "fixed_timeout",
        [
          Alcotest.test_case "transcript" `Quick fixed_timeout_transcript;
          Alcotest.test_case "strict inequality" `Quick
            fixed_timeout_gap_exactly_delta_is_same_batch;
          Alcotest.test_case "first packet" `Quick fixed_timeout_first_packet_no_sample;
          Alcotest.test_case "bad delta" `Quick fixed_timeout_rejects_bad_delta;
          Alcotest.test_case "batchy counts" `Quick fixed_timeout_counts_on_batchy_flow;
        ] );
      ( "ensemble",
        [
          Alcotest.test_case "cliff pick" `Quick cliff_pick_basic;
          Alcotest.test_case "cliff min fraction" `Quick
            cliff_pick_min_fraction_guards_noise;
          Alcotest.test_case "cliff edge cases" `Quick cliff_pick_edge_cases;
          Alcotest.test_case "cliff floor boundary" `Quick
            cliff_pick_min_fraction_floor_boundary;
          Alcotest.test_case "slab recycling" `Quick
            slab_recycles_slots_with_fresh_state;
          Alcotest.test_case "converges" `Quick ensemble_converges_on_batchy_flow;
          Alcotest.test_case "adapts to rtt change" `Quick
            ensemble_adapts_to_rtt_change;
          Alcotest.test_case "per-flow scope" `Quick ensemble_per_flow_scope;
          Alcotest.test_case "epoch reset" `Quick ensemble_counter_reset_on_epoch;
          Alcotest.test_case "boundary samples in new epoch" `Quick
            ensemble_boundary_samples_land_in_new_epoch;
          Alcotest.test_case "idle epoch retains chosen" `Quick
            ensemble_idle_epoch_retains_chosen;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ fixed_timeout_conservation; ensemble_scope_equivalence ] );
      ( "syn_rtt",
        [
          Alcotest.test_case "measures handshake" `Quick syn_rtt_measures_handshake;
          Alcotest.test_case "retransmitted syn" `Quick
            syn_rtt_retransmitted_syn_rearms;
          Alcotest.test_case "mid-flow pickup" `Quick syn_rtt_data_before_syn_ignored;
        ] );
      ( "server_stats",
        [
          Alcotest.test_case "basic" `Quick server_stats_basic;
          Alcotest.test_case "ewma smooths" `Quick server_stats_ewma_smooths;
          Alcotest.test_case "windowed median robust" `Quick
            server_stats_windowed_median_robust;
          Alcotest.test_case "partial window" `Quick server_stats_partial_window;
        ] );
      ( "controller",
        [
          Alcotest.test_case "shift arithmetic" `Quick controller_shift_arithmetic;
          Alcotest.test_case "needs two servers" `Quick
            controller_needs_two_servers_with_samples;
          Alcotest.test_case "min weight floor" `Quick controller_respects_min_weight;
          Alcotest.test_case "interval spacing" `Quick controller_interval_spacing;
          Alcotest.test_case "relative threshold" `Quick controller_relative_threshold;
          Alcotest.test_case "recovery" `Quick controller_recovery_pulls_to_uniform;
          Alcotest.test_case "first action after" `Quick controller_first_action_after;
          Alcotest.test_case "reaction past the history cap" `Quick
            controller_reaction_past_history_cap;
          Alcotest.test_case "recovery dt clamp" `Quick controller_recovery_dt_clamp;
          Alcotest.test_case "no rebuild when unmoved" `Quick
            controller_no_rebuild_when_unmoved;
          Alcotest.test_case "table built at first read" `Quick
            controller_builds_at_first_read;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ controller_weight_simplex_qcheck ] );
      ( "control_law",
        [
          Alcotest.test_case "string round trip" `Quick law_string_round_trip;
          Alcotest.test_case "moves off slow server" `Quick
            law_moves_off_slow_server;
          Alcotest.test_case "uniform fixed point" `Quick
            law_uniform_fixed_point;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ law_simplex_qcheck ] );
      ( "balancer",
        [
          Alcotest.test_case "forwards and pins" `Quick balancer_forwards_and_pins;
          Alcotest.test_case "affinity vs weight change" `Quick
            balancer_affinity_survives_weight_change;
          Alcotest.test_case "round robin" `Quick balancer_round_robin_cycles;
          Alcotest.test_case "least conn" `Quick balancer_least_conn_prefers_idle;
          Alcotest.test_case "fin releases" `Quick balancer_fin_releases_conn_gauge;
          Alcotest.test_case "sweep evicts" `Quick balancer_sweep_evicts_idle_flows;
          Alcotest.test_case "sweep order" `Quick balancer_sweep_order;
          Alcotest.test_case "flow state is flat" `Quick
            balancer_flow_state_is_flat;
          Alcotest.test_case "telemetry buses" `Quick balancer_buses_fire;
          Alcotest.test_case "controller presence" `Quick
            balancer_controller_only_for_latency_aware;
          Alcotest.test_case "rejects empty pool" `Quick balancer_rejects_empty_pool;
        ] );
    ]
