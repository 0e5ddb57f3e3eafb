(* Des.Shard: conservative synchronized-window parallel DES, and the
   K-invariance of Cluster.Sharded built on top of it. *)

let us = Des.Time.us
let ms = Des.Time.ms

(* --- shards = 1 degenerates to the plain engine ------------------------ *)

let single_shard_matches_engine () =
  let trace_of run =
    let trace = ref [] in
    let note tag engine () =
      trace := (tag, Des.Engine.now engine) :: !trace
    in
    run note;
    List.rev !trace
  in
  let plain =
    trace_of (fun note ->
        let e = Des.Engine.create () in
        ignore (Des.Engine.schedule e ~at:(us 30) (note "b" e));
        ignore (Des.Engine.schedule e ~at:(us 10) (note "a" e));
        ignore (Des.Engine.schedule e ~at:(us 30) (note "c" e));
        Des.Engine.run e ~until:(ms 1))
  in
  let sharded =
    trace_of (fun note ->
        let t = Des.Shard.create ~shards:1 ~lookahead:(us 5) () in
        let e = Des.Shard.engine t 0 in
        ignore (Des.Engine.schedule e ~at:(us 30) (note "b" e));
        ignore (Des.Engine.schedule e ~at:(us 10) (note "a" e));
        ignore (Des.Engine.schedule e ~at:(us 30) (note "c" e));
        Des.Shard.run t ~until:(ms 1);
        Des.Shard.shutdown t)
  in
  Alcotest.(check (list (pair string int)))
    "same trace" plain sharded

(* --- cross-shard post at the window boundary --------------------------- *)

(* Lookahead 100 us, windows [0,100), [100,200), ... An event at t=50 on
   shard 0 posts a remote effect at exactly t=150 — the earliest legal
   arrival lands in the *next* window, and must fire at exactly 150 on
   shard 1, interleaved after shard 1's own earlier-scheduled event at
   the same timestamp (barrier posting assigns later sequence numbers
   than construction-time scheduling). *)
let cross_shard_barrier_boundary () =
  let t = Des.Shard.create ~shards:2 ~lookahead:(us 100) () in
  let e0 = Des.Shard.engine t 0 and e1 = Des.Shard.engine t 1 in
  let trace = ref [] in
  let note tag engine () =
    trace := (tag, Des.Engine.now engine) :: !trace
  in
  Des.Shard.set_sink t ~dst:1 (fun _tag arg -> note (Obj.obj arg) e1 ());
  ignore (Des.Engine.schedule e1 ~at:(us 150) (note "local@150" e1));
  ignore (Des.Engine.schedule e1 ~at:(us 160) (note "local@160" e1));
  ignore
    (Des.Engine.schedule e0 ~at:(us 50) (fun () ->
         Des.Shard.post_remote_tagged t ~src:0 ~dst:1 ~at:(us 150) ~tag:0
           (Obj.repr "remote@150")));
  Des.Shard.run t ~until:(ms 1);
  Des.Shard.shutdown t;
  Alcotest.(check (list (pair string int)))
    "exact arrival time and same-timestamp order"
    [ ("local@150", us 150); ("remote@150", us 150); ("local@160", us 160) ]
    (List.rev !trace);
  let stats = Des.Shard.stats t in
  Alcotest.(check int) "one cross-shard post" 1 stats.Des.Shard.remote_posts

(* A second [run] phase must pick up exactly where the first stopped:
   a remote entry posted in phase 1 for a phase-2 timestamp survives
   the inter-phase barrier. *)
let cross_shard_across_phases () =
  let t = Des.Shard.create ~shards:2 ~lookahead:(us 100) () in
  let e0 = Des.Shard.engine t 0 and e1 = Des.Shard.engine t 1 in
  let fired = ref None in
  Des.Shard.set_sink t ~dst:1 (fun _ _ -> fired := Some (Des.Engine.now e1));
  ignore
    (Des.Engine.schedule e0 ~at:(us 380) (fun () ->
         Des.Shard.post_remote_tagged t ~src:0 ~dst:1 ~at:(us 700) ~tag:0
           (Obj.repr 0)));
  Des.Shard.run t ~until:(us 400);
  Alcotest.(check (option int)) "not yet" None !fired;
  Des.Shard.run t ~until:(ms 1);
  Des.Shard.shutdown t;
  Alcotest.(check (option int)) "fired in phase 2" (Some (us 700)) !fired

(* --- adaptive event-horizon widening ----------------------------------- *)

(* A multi-second event gap must be crossed in O(1) windows: with every
   inbox empty the fleet's next-event minimum bounds when anything can
   happen anywhere, so the window jumps straight to [m + L] instead of
   grinding through span/L fixed-width barriers. 6 s at L = 100 us is
   60k fixed windows; adaptive needs a handful. *)
let adaptive_idle_gap () =
  let t = Des.Shard.create ~shards:2 ~lookahead:(us 100) () in
  let e0 = Des.Shard.engine t 0 and e1 = Des.Shard.engine t 1 in
  let fired = ref 0 in
  ignore (Des.Engine.schedule e0 ~at:(us 10) (fun () -> incr fired));
  ignore (Des.Engine.schedule e1 ~at:(Des.Time.sec 5) (fun () -> incr fired));
  Des.Shard.run t ~until:(Des.Time.sec 6);
  Des.Shard.shutdown t;
  let stats = Des.Shard.stats t in
  Alcotest.(check int) "both events fired" 2 !fired;
  if stats.Des.Shard.windows > 8 then
    Alcotest.failf "5 s idle gap took %d windows, expected O(1)"
      stats.Des.Shard.windows;
  if stats.Des.Shard.skipped_windows < 10_000 then
    Alcotest.failf "only %d fixed-width windows skipped, expected tens of \
                    thousands"
      stats.Des.Shard.skipped_windows

(* Regression: with the horizon widened to [min_next_event + L], a
   remote post for exactly that instant sits on the window boundary —
   the earliest legal arrival — and must be accepted and fired in the
   next window, not rejected as a lookahead violation. *)
let widened_horizon_boundary_post () =
  let t = Des.Shard.create ~shards:2 ~lookahead:(us 100) () in
  let e0 = Des.Shard.engine t 0 and e1 = Des.Shard.engine t 1 in
  let fired = ref None in
  let gap_event = ms 10 in
  Des.Shard.set_sink t ~dst:1 (fun _ _ -> fired := Some (Des.Engine.now e1));
  ignore
    (Des.Engine.schedule e0 ~at:gap_event (fun () ->
         (* The widened window is [.., gap_event + L): gap_event was the
            fleet minimum at the preceding barrier. *)
         Des.Shard.post_remote_tagged t ~src:0 ~dst:1
           ~at:(gap_event + us 100) ~tag:0 (Obj.repr 0)));
  Des.Shard.run t ~until:(ms 20);
  Des.Shard.shutdown t;
  Alcotest.(check (option int))
    "post at exactly min_next_event + L fires there"
    (Some (gap_event + us 100))
    !fired

(* --- the tagged fast path allocates nothing once warm ------------------ *)

let post_remote_tagged_zero_alloc () =
  let t = Des.Shard.create ~shards:2 ~lookahead:(us 100) () in
  let e0 = Des.Shard.engine t 0 in
  let delivered = ref 0 in
  (* Firing side: the sink runs on shard 1's domain, so the
     minor-allocation counter (per domain) is read there, from the first
     delivery of the measured burst to its last. *)
  let burst = 10_000 in
  let fire_w0 = ref 0.0 and fire_delta = ref infinity in
  Des.Shard.set_sink t ~dst:1 (fun _tag _arg ->
      incr delivered;
      if !delivered = burst + 1 then fire_w0 := Gc.minor_words ()
      else if !delivered = 2 * burst then
        fire_delta := Gc.minor_words () -. !fire_w0);
  let payload = Obj.repr 0 in
  let post at =
    for _ = 1 to burst do
      Des.Shard.post_remote_tagged t ~src:0 ~dst:1 ~at ~tag:7 payload
    done
  in
  (* Warm-up grows the (0, 1) lanes to the burst size and shard 1's
     engine to the burst's pooled records; the barrier drain keeps that
     capacity (occupancy matched it, so no shrink). *)
  ignore (Des.Engine.schedule e0 ~at:(us 10) (fun () -> post (us 200)));
  Des.Shard.run t ~until:(us 500);
  Alcotest.(check int) "warm-up delivered" burst !delivered;
  (* Same burst again on warm lanes. On shard 0's domain the counter is
     read around the posts, and from their end to an event in the next
     window, which spans the barrier drain into shard 1's engine. *)
  let post_delta = ref infinity and drain_w0 = ref 0.0 in
  let drain_delta = ref infinity in
  ignore
    (Des.Engine.schedule e0 ~at:(us 600) (fun () ->
         let w0 = Gc.minor_words () in
         post (us 800);
         drain_w0 := Gc.minor_words ();
         post_delta := !drain_w0 -. w0));
  ignore
    (Des.Engine.schedule e0 ~at:(us 850) (fun () ->
         drain_delta := Gc.minor_words () -. !drain_w0));
  Des.Shard.run t ~until:(ms 1);
  Des.Shard.shutdown t;
  Alcotest.(check int) "all delivered" (2 * burst) !delivered;
  List.iter
    (fun (what, delta) ->
      if delta > 64.0 then
        Alcotest.failf "%s allocated %.0f minor words over %d warm events"
          what delta burst)
    [
      ("post_remote_tagged", !post_delta);
      ("barrier drain", !drain_delta);
      ("firing", !fire_delta);
    ];
  let stats = Des.Shard.stats t in
  (* The satellite gauge: the burst's lane high-water mark is recorded. *)
  if stats.Des.Shard.inbox_peak_bytes < burst * 3 * 8 then
    Alcotest.failf "inbox_peak_bytes %d below the burst footprint"
      stats.Des.Shard.inbox_peak_bytes

(* --- lookahead violations are loud ------------------------------------- *)

let lookahead_violation_fails () =
  let t = Des.Shard.create ~shards:2 ~lookahead:(us 100) () in
  let e0 = Des.Shard.engine t 0 in
  (* An arrival inside the window that produced it: t=50 posting for
     t=60 < horizon 100. A silently-late delivery would corrupt the
     destination's causal order, so the barrier must refuse. *)
  Des.Shard.set_sink t ~dst:1 (fun _ _ -> ());
  ignore
    (Des.Engine.schedule e0 ~at:(us 50) (fun () ->
         Des.Shard.post_remote_tagged t ~src:0 ~dst:1 ~at:(us 60) ~tag:0
           (Obj.repr 0)));
  let raised =
    match Des.Shard.run t ~until:(ms 1) with
    | () -> false
    | exception Failure _ -> true
  in
  Des.Shard.shutdown t;
  Alcotest.(check bool) "barrier refuses late entry" true raised

let create_validates () =
  let invalid f =
    match f () with
    | (_ : Des.Shard.t) -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "shards = 0" true
    (invalid (fun () -> Des.Shard.create ~shards:0 ~lookahead:(us 1) ()));
  Alcotest.(check bool) "no lookahead with 2 shards" true
    (invalid (fun () -> Des.Shard.create ~shards:2 ~lookahead:0 ()))

(* --- worker exceptions surface at the barrier -------------------------- *)

let shard_exception_reraised () =
  let t = Des.Shard.create ~shards:2 ~lookahead:(us 100) () in
  let e1 = Des.Shard.engine t 1 in
  ignore
    (Des.Engine.schedule e1 ~at:(us 10) (fun () -> failwith "shard 1 boom"));
  let raised =
    match Des.Shard.run t ~until:(ms 1) with
    | () -> false
    | exception Failure msg -> msg = "shard 1 boom"
  in
  Des.Shard.shutdown t;
  Alcotest.(check bool) "callback exception re-raised" true raised

(* --- Cluster.Sharded: results are a pure function of (n, seed) --------- *)

(* The tentpole invariant: the per-client CSV summary — sends, responses,
   active-flow census — is byte-identical whether the fleet ran on one
   engine or four, across random (seed, size) workloads. The seed
   rotates the flow→client map and shifts the flow port space, so each
   case is a different simulation. Runs are small (hundreds of flows) so
   the property stays fast; the CI shard-smoke job covers the large-n
   case. *)
let sharded_flows_k_invariant =
  QCheck.Test.make ~count:4 ~name:"Sharded.flows CSV identical at K=1 and K=4"
    QCheck.(pair (int_range 0 100_000) (int_range 65 700))
    (fun (seed, n) ->
      let csv shards =
        (Cluster.Sharded.flows ~shards ~seed ~n ()).Cluster.Sharded.csv
      in
      let one = csv 1 and four = csv 4 in
      if one <> four then
        QCheck.Test.fail_reportf "CSV diverged at seed=%d n=%d:@.%s@.vs@.%s"
          seed n one four;
      true)

(* Adaptive widening must be invisible in the results: same (seed, n, K)
   with adaptivity on and off produces the same CSV byte-for-byte; only
   the window count differs. *)
let sharded_flows_adaptivity_invariant =
  QCheck.Test.make ~count:3
    ~name:"Sharded.flows CSV identical with adaptivity on and off"
    QCheck.(
      triple (int_range 0 100_000) (int_range 65 500) (int_range 2 4))
    (fun (seed, n, shards) ->
      let csv adaptive =
        (Cluster.Sharded.flows ~shards ~adaptive ~seed ~n ())
          .Cluster.Sharded.csv
      in
      if csv true <> csv false then
        QCheck.Test.fail_reportf
          "CSV diverged between adaptive and fixed at seed=%d n=%d K=%d" seed
          n shards;
      true)

let sharded_flows_two_equals_three () =
  (* Shard counts that do not divide the client count exercise the
     uneven-partition paths. *)
  let csv shards =
    (Cluster.Sharded.flows ~shards ~n:257 ()).Cluster.Sharded.csv
  in
  Alcotest.(check string) "K=2 vs K=3" (csv 2) (csv 3)

let () =
  Alcotest.run "shard"
    [
      ( "windows",
        [
          Alcotest.test_case "K=1 matches plain engine" `Quick
            single_shard_matches_engine;
          Alcotest.test_case "barrier-boundary arrival" `Quick
            cross_shard_barrier_boundary;
          Alcotest.test_case "remote entry across run phases" `Quick
            cross_shard_across_phases;
          Alcotest.test_case "idle gap crossed in O(1) windows" `Quick
            adaptive_idle_gap;
          Alcotest.test_case "post at widened horizon is legal" `Quick
            widened_horizon_boundary_post;
          Alcotest.test_case "tagged post allocates nothing warm" `Quick
            post_remote_tagged_zero_alloc;
          Alcotest.test_case "lookahead violation fails" `Quick
            lookahead_violation_fails;
          Alcotest.test_case "create validates" `Quick create_validates;
          Alcotest.test_case "shard exception re-raised" `Quick
            shard_exception_reraised;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "K=2 equals K=3 (uneven partition)" `Slow
            sharded_flows_two_equals_three;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ sharded_flows_k_invariant; sharded_flows_adaptivity_invariant ]
      );
    ]
