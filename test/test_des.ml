(* Tests for the discrete-event simulation core. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Time -------------------------------------------------------------- *)

let time_units () =
  check_int "us" 1_000 (Des.Time.us 1);
  check_int "ms" 1_000_000 (Des.Time.ms 1);
  check_int "sec" 1_000_000_000 (Des.Time.sec 1);
  check_int "ns" 7 (Des.Time.ns 7)

let time_float_roundtrip () =
  let t = Des.Time.of_float_s 1.5 in
  check_int "1.5s in ns" 1_500_000_000 t;
  Alcotest.(check (float 1e-9)) "back to s" 1.5 (Des.Time.to_float_s t);
  Alcotest.(check (float 1e-6)) "us view" 1.5e6 (Des.Time.to_float_us t);
  Alcotest.(check (float 1e-6)) "ms view" 1.5e3 (Des.Time.to_float_ms t)

let time_pp () =
  let s t = Fmt.str "%a" Des.Time.pp t in
  Alcotest.(check string) "ns" "12ns" (s 12);
  Alcotest.(check string) "us" "1.500us" (s 1500);
  Alcotest.(check string) "ms" "2.000ms" (s (Des.Time.ms 2));
  Alcotest.(check string) "s" "3.000s" (s (Des.Time.sec 3))

(* --- Rng --------------------------------------------------------------- *)

let rng_deterministic () =
  let a = Des.Rng.create ~seed:42 and b = Des.Rng.create ~seed:42 in
  let draws rng = List.init 20 (fun _ -> Des.Rng.int rng 1000) in
  Alcotest.(check (list int)) "same seed, same stream" (draws a) (draws b)

let rng_split_independent () =
  (* Drawing from one child must not perturb a sibling. *)
  let parent1 = Des.Rng.create ~seed:7 in
  let a1 = Des.Rng.split parent1 ~label:"a" in
  let b1 = Des.Rng.split parent1 ~label:"b" in
  ignore (List.init 100 (fun _ -> Des.Rng.int a1 10));
  let b1_draws = List.init 10 (fun _ -> Des.Rng.int b1 1000) in
  let parent2 = Des.Rng.create ~seed:7 in
  let b2 = Des.Rng.split parent2 ~label:"b" in
  let b2_draws = List.init 10 (fun _ -> Des.Rng.int b2 1000) in
  Alcotest.(check (list int)) "sibling unaffected" b2_draws b1_draws

let rng_split_labels_differ () =
  let parent = Des.Rng.create ~seed:7 in
  let a = Des.Rng.split parent ~label:"a" in
  let b = Des.Rng.split parent ~label:"b" in
  let da = List.init 10 (fun _ -> Des.Rng.int a 1_000_000) in
  let db = List.init 10 (fun _ -> Des.Rng.int b 1_000_000) in
  check_bool "different labels, different streams" true (da <> db)

let rng_bounds =
  QCheck.Test.make ~count:200 ~name:"rng draws stay in range"
    QCheck.(pair small_int (int_bound 1000))
    (fun (seed, bound) ->
      let bound = bound + 1 in
      let rng = Des.Rng.create ~seed in
      let v = Des.Rng.int rng bound in
      let f = Des.Rng.float rng 3.5 in
      let u = Des.Rng.uniform rng ~lo:2.0 ~hi:4.0 in
      v >= 0 && v < bound && f >= 0.0 && f < 3.5 && u >= 2.0 && u < 4.0)

let rng_exponential_mean () =
  let rng = Des.Rng.create ~seed:11 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Des.Rng.exponential rng ~mean:50.0
  done;
  let mean = !sum /. float_of_int n in
  check_bool "mean within 5%" true (Float.abs (mean -. 50.0) < 2.5)

let rng_gaussian_moments () =
  let rng = Des.Rng.create ~seed:12 in
  let n = 20_000 in
  let xs =
    Array.init n (fun _ -> Des.Rng.gaussian rng ~mean:10.0 ~stddev:3.0)
  in
  let mean = Array.fold_left ( +. ) 0.0 xs /. float_of_int n in
  let stddev =
    sqrt
      (Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 xs
      /. float_of_int (n - 1))
  in
  check_bool "mean" true (Float.abs (mean -. 10.0) < 0.1);
  check_bool "stddev" true (Float.abs (stddev -. 3.0) < 0.1)

(* --- Engine ------------------------------------------------------------ *)

(* Delay scales for the tests: [tick] is 2^16 ns (about 65.5 us), and
   [span], 2^40 ns (about 18 minutes), lies beyond any timer a scenario
   arms. *)
let tick = 1 lsl 16
let span = 1 lsl 40

let engine_orders_events () =
  let e = Des.Engine.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  ignore (Des.Engine.schedule e ~at:(Des.Time.us 30) (note "c"));
  ignore (Des.Engine.schedule e ~at:(Des.Time.us 10) (note "a"));
  ignore (Des.Engine.schedule e ~at:(Des.Time.us 20) (note "b"));
  Des.Engine.run e;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !log)

let engine_fifo_same_time () =
  let e = Des.Engine.create () in
  let log = ref [] in
  for i = 0 to 9 do
    ignore
      (Des.Engine.schedule e ~at:(Des.Time.us 5) (fun () -> log := i :: !log))
  done;
  Des.Engine.run e;
  Alcotest.(check (list int))
    "same-instant events fire in scheduling order"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !log)

let engine_clock_advances () =
  let e = Des.Engine.create () in
  let seen = ref (-1) in
  ignore
    (Des.Engine.schedule e ~at:(Des.Time.ms 3) (fun () ->
         seen := Des.Engine.now e));
  Des.Engine.run e;
  check_int "now inside event" (Des.Time.ms 3) !seen;
  check_int "now after drain" (Des.Time.ms 3) (Des.Engine.now e)

let engine_run_until () =
  let e = Des.Engine.create () in
  let fired = ref 0 in
  ignore (Des.Engine.schedule e ~at:(Des.Time.ms 1) (fun () -> incr fired));
  ignore (Des.Engine.schedule e ~at:(Des.Time.ms 5) (fun () -> incr fired));
  Des.Engine.run ~until:(Des.Time.ms 2) e;
  check_int "only first fired" 1 !fired;
  check_int "clock at limit" (Des.Time.ms 2) (Des.Engine.now e);
  check_int "one pending" 1 (Des.Engine.pending e);
  Des.Engine.run e;
  check_int "rest fired" 2 !fired

let engine_cancel () =
  let e = Des.Engine.create () in
  let fired = ref false in
  let h = Des.Engine.schedule e ~at:(Des.Time.ms 1) (fun () -> fired := true) in
  ignore (Des.Engine.schedule e ~at:(Des.Time.ms 2) (fun () -> ()));
  Des.Engine.cancel h;
  check_int "cancelled leaves the queue" 1 (Des.Engine.pending e);
  (* A cancel away from the heap root removes that event's own entry. *)
  let mid =
    Des.Engine.schedule e ~at:(Des.Time.ms 3) (fun () -> fired := true)
  in
  ignore (Des.Engine.schedule e ~at:(Des.Time.ms 4) (fun () -> ()));
  Des.Engine.cancel mid;
  Alcotest.(check (option int))
    "the earliest live event is next" (Some (Des.Time.ms 2))
    (Des.Engine.next_event_time e);
  check_int "two live events" 2 (Des.Engine.pending e);
  Des.Engine.run e;
  check_bool "cancelled never fires" false !fired;
  check_int "pending zero" 0 (Des.Engine.pending e)

let engine_schedule_in_past_rejected () =
  let e = Des.Engine.create () in
  ignore (Des.Engine.schedule e ~at:(Des.Time.ms 2) (fun () -> ()));
  Des.Engine.run e;
  Alcotest.check_raises "past raises"
    (Invalid_argument "Engine.schedule: at=1.000ms is before now=2.000ms")
    (fun () -> ignore (Des.Engine.schedule e ~at:(Des.Time.ms 1) (fun () -> ())))

let engine_negative_delay_rejected () =
  let e = Des.Engine.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule_after: negative delay") (fun () ->
      ignore (Des.Engine.schedule_after e ~delay:(-1) (fun () -> ())))

let engine_nested_scheduling () =
  let e = Des.Engine.create () in
  let log = ref [] in
  ignore
    (Des.Engine.schedule e ~at:(Des.Time.us 1) (fun () ->
         log := "outer" :: !log;
         ignore
           (Des.Engine.schedule_after e ~delay:(Des.Time.us 1) (fun () ->
                log := "inner" :: !log))));
  Des.Engine.run e;
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !log);
  check_int "events fired" 2 (Des.Engine.events_fired e)

let engine_step () =
  let e = Des.Engine.create () in
  check_bool "step on empty" false (Des.Engine.step e);
  ignore (Des.Engine.schedule e ~at:(Des.Time.us 1) (fun () -> ()));
  check_bool "step fires" true (Des.Engine.step e);
  check_bool "drained" false (Des.Engine.step e)

let engine_qcheck_order =
  QCheck.Test.make ~count:100
    ~name:"engine fires any schedule set in nondecreasing time order"
    QCheck.(list (int_bound 10_000))
    (fun times ->
      let e = Des.Engine.create () in
      let seen = ref [] in
      List.iter
        (fun t ->
          ignore (Des.Engine.schedule e ~at:t (fun () -> seen := t :: !seen)))
        times;
      Des.Engine.run e;
      List.rev !seen = List.sort Int.compare times)

let engine_qcheck_exact_order =
  (* Stronger than nondecreasing times: with a small time range forcing
     plenty of ties, the surviving events must fire in exactly (time,
     scheduling order) — the determinism contract the whole simulator
     rests on — no matter which subset is cancelled. *)
  QCheck.Test.make ~count:200
    ~name:"engine fires in exact (time, seq) order under cancels"
    QCheck.(list (pair (int_bound 50) bool))
    (fun items ->
      let e = Des.Engine.create () in
      let fired = ref [] in
      let handles =
        List.mapi
          (fun i (t, _) ->
            Des.Engine.schedule e ~at:t (fun () -> fired := i :: !fired))
          items
      in
      List.iteri
        (fun i (_, cancelled) ->
          if cancelled then Des.Engine.cancel (List.nth handles i))
        items;
      Des.Engine.run e;
      let expected =
        List.mapi (fun i (t, cancelled) -> (t, i, cancelled)) items
        |> List.filter (fun (_, _, cancelled) -> not cancelled)
        |> List.stable_sort (fun (t1, _, _) (t2, _, _) -> Int.compare t1 t2)
        |> List.map (fun (_, i, _) -> i)
      in
      List.rev !fired = expected)

let engine_cancel_heavy_queue_bounded () =
  (* A timer cancelled and scheduled afresh per packet, far out: each
     cancel removes its heap entry at once, so the queue holds exactly
     the one live event throughout, and only it fires. *)
  let far = span * 2 in
  let e = Des.Engine.create () in
  let h = ref None and fired = ref [] in
  for i = 1 to 20_000 do
    (match !h with Some h -> Des.Engine.cancel h | None -> ());
    h :=
      Some
        (Des.Engine.schedule e ~at:(i + far) (fun () -> fired := i :: !fired));
    if i mod 500 = 0 then begin
      Des.Engine.run ~until:i e;
      check_int "one live event" 1 (Des.Engine.pending e);
      Alcotest.(check (option int))
        "the live event is next" (Some (i + far))
        (Des.Engine.next_event_time e)
    end
  done;
  check_int "exactly one live event" 1 (Des.Engine.pending e);
  Des.Engine.run e;
  Alcotest.(check (list int)) "only the last fired" [ 20_000 ] !fired;
  check_int "clock at its time" (20_000 + far) (Des.Engine.now e)

let engine_post_fire_zero_alloc () =
  (* Pooled records own a slot and idle ones wait on an int stack, so a
     warm post + fire allocates nothing beyond the caller's closure (here
     one closure, built once). *)
  let e = Des.Engine.create () in
  let f () = () in
  let in_flight = 8 in
  for i = 1 to in_flight do
    Des.Engine.post e ~at:i f
  done;
  let burst () =
    for _ = 1 to 10_000 do
      Des.Engine.post_after e ~delay:in_flight f;
      ignore (Des.Engine.step e)
    done
  in
  burst ();
  let w0 = Gc.minor_words () in
  burst ();
  let delta = Gc.minor_words () -. w0 in
  if delta > 64.0 then
    Alcotest.failf "10000 warm post + step allocated %.0f minor words" delta;
  check_int "in flight" in_flight (Des.Engine.pending e)

let engine_post_call_zero_alloc () =
  (* [post_call] keeps the function and its argument in the pooled
     record, so with both built once a warm post + fire allocates
     nothing at all, whether the post joins the in-order FIFO, the heap
     (due before the FIFO's tail) or the same-instant lane. *)
  let e = Des.Engine.create () in
  let hits = ref 0 in
  let f (r : int ref) = incr r in
  let burst () =
    for i = 1 to 5_000 do
      Des.Engine.post_call e ~at:(Des.Engine.now e + (i land 1)) f hits;
      ignore (Des.Engine.step e)
    done;
    for _ = 1 to 5_000 do
      Des.Engine.post_call e ~at:(Des.Engine.now e + 3) f hits;
      Des.Engine.post_call e ~at:(Des.Engine.now e + 2) f hits;
      Des.Engine.post_call e ~at:(Des.Engine.now e) f hits;
      ignore (Des.Engine.step e);
      ignore (Des.Engine.step e);
      ignore (Des.Engine.step e)
    done
  in
  burst ();
  let w0 = Gc.minor_words () in
  burst ();
  let delta = Gc.minor_words () -. w0 in
  if delta > 64.0 then
    Alcotest.failf "20000 warm post_call + step allocated %.0f minor words"
      delta;
  check_int "every call fired" 40_000 !hits;
  check_int "drained" 0 (Des.Engine.pending e)

let engine_fired_posts_retain_nothing () =
  (* Firing drops a posted thunk and a [post_call]'s argument: the idle
     pooled record keeps neither alive (nor promotes it). The thunk and
     the first argument are posted in time order (the in-order FIFO),
     the second argument before the FIFO's tail (the heap). *)
  let e = Des.Engine.create () in
  let w = Weak.create 3 in
  let[@inline never] post () =
    let a = ref 0 and b = ref 0 and c = ref 0 in
    let thunk () = incr a in
    Weak.set w 0 (Some (Obj.repr thunk));
    Weak.set w 1 (Some (Obj.repr b));
    Weak.set w 2 (Some (Obj.repr c));
    Des.Engine.post_after e ~delay:5 thunk;
    Des.Engine.post_call e ~at:(Des.Engine.now e + 7) incr b;
    Des.Engine.post_call e ~at:(Des.Engine.now e + 6) incr c
  in
  post ();
  Des.Engine.run e;
  Gc.full_major ();
  Alcotest.(check bool) "thunk dropped" false (Weak.check w 0);
  Alcotest.(check bool) "FIFO argument dropped" false (Weak.check w 1);
  Alcotest.(check bool) "heap argument dropped" false (Weak.check w 2);
  (* The engine, and with it every idle record, is still live here. *)
  check_int "drained" 0 (Des.Engine.pending e)

let engine_lane_is_visible () =
  (* A post at the current instant waits in the same-instant lane, not
     the heap: [pending], [next_event_time] and [run ~until] must all
     see it, including one made between runs, as a shard barrier's
     drain does. *)
  let e = Des.Engine.create () in
  let fired = ref [] in
  let note s () = fired := s :: !fired in
  Des.Engine.run ~until:100 e;
  Des.Engine.post e ~at:100 (note "lane");
  check_int "pending counts the lane" 1 (Des.Engine.pending e);
  Alcotest.(check (option int))
    "next event is now" (Some 100)
    (Des.Engine.next_event_time e);
  Des.Engine.run ~until:99 e;
  Alcotest.(check (list string)) "nothing due before now" [] !fired;
  Des.Engine.post e ~at:150 (note "heap");
  Des.Engine.post e ~at:100 (note "lane 2");
  Des.Engine.run ~until:100 e;
  Alcotest.(check (list string))
    "run ~until now fires the lane" [ "lane"; "lane 2" ] (List.rev !fired);
  check_int "heap event still pending" 1 (Des.Engine.pending e);
  Alcotest.(check (option int))
    "next event from the heap" (Some 150)
    (Des.Engine.next_event_time e);
  (* A callback at 150 posts at its own instant; a pause at 150 must
     fire that post too, before the clock may move on. *)
  ignore
    (Des.Engine.schedule e ~at:150 (fun () ->
         note "schedule" ();
         Des.Engine.post e ~at:150 (note "chained")));
  Des.Engine.run ~until:150 e;
  Alcotest.(check (list string))
    "(time, seq) order through the lane"
    [ "lane"; "lane 2"; "heap"; "schedule"; "chained" ]
    (List.rev !fired);
  check_int "drained" 0 (Des.Engine.pending e);
  Alcotest.(check (option int)) "idle" None (Des.Engine.next_event_time e)

let engine_fifo_is_visible () =
  (* A later post at or after the in-order FIFO's tail waits in that
     FIFO, not the heap: [pending], [next_event_time] and the next run
     must all see one made between runs. *)
  let e = Des.Engine.create () in
  let fired = ref [] in
  let note s () = fired := (s, Des.Engine.now e) :: !fired in
  Des.Engine.run ~until:100 e;
  Des.Engine.post e ~at:150 (note "fifo");
  check_int "pending counts the FIFO" 1 (Des.Engine.pending e);
  Alcotest.(check (option int))
    "next event from the FIFO" (Some 150)
    (Des.Engine.next_event_time e);
  Des.Engine.post e ~at:120 (note "heap");
  Des.Engine.post e ~at:150 (note "fifo tie");
  Des.Engine.post e ~at:100 (note "lane");
  check_int "pending counts all three" 4 (Des.Engine.pending e);
  Des.Engine.run ~until:149 e;
  Alcotest.(check (option int))
    "FIFO head next" (Some 150)
    (Des.Engine.next_event_time e);
  (* At 150 the FIFO head fires first; the heap event scheduled there
     afterwards, and a post at its own instant from it, follow the FIFO
     entry of the same instant. *)
  ignore
    (Des.Engine.schedule e ~at:150 (fun () ->
         note "schedule" ();
         Des.Engine.post e ~at:150 (note "chained")));
  Des.Engine.run e;
  Alcotest.(check (list (pair string int)))
    "(time, seq) order across lane, FIFO and heap"
    [
      ("lane", 100);
      ("heap", 120);
      ("fifo", 150);
      ("fifo tie", 150);
      ("schedule", 150);
      ("chained", 150);
    ]
    (List.rev !fired);
  check_int "drained" 0 (Des.Engine.pending e);
  Alcotest.(check (option int)) "idle" None (Des.Engine.next_event_time e)

let engine_in_order_posts_zero_alloc () =
  (* The link pattern: every firing posts the next delivery a constant
     delay ahead, so each post is in time order and joins the FIFO. With
     the function and its argument built once, a warm stream of 16 in
     flight allocates nothing, through [post_call] or [post_tagged]. *)
  let e = Des.Engine.create () in
  let hits = ref 0 in
  let rec deliver (r : int ref) =
    incr r;
    Des.Engine.post_call e ~at:(Des.Engine.now e + 16) deliver r
  in
  Des.Engine.set_tagged_sink e (fun tag arg ->
      incr hits;
      Des.Engine.post_tagged e ~at:(Des.Engine.now e + 16) ~tag arg);
  for i = 1 to 16 do
    if i land 1 = 0 then Des.Engine.post_call e ~at:i deliver hits
    else Des.Engine.post_tagged e ~at:i ~tag:i (Obj.repr 0)
  done;
  let burst () =
    for _ = 1 to 10_000 do
      ignore (Des.Engine.step e)
    done
  in
  burst ();
  let w0 = Gc.minor_words () in
  burst ();
  let delta = Gc.minor_words () -. w0 in
  if delta > 64.0 then
    Alcotest.failf "10000 warm in-order post + step allocated %.0f minor words"
      delta;
  check_int "every event fired" 20_000 !hits;
  check_int "16 in flight" 16 (Des.Engine.pending e)

let engine_stale_cancel_after_slot_reuse () =
  (* A fired [schedule] record gives its heap slot back and the next
     heap-resident event takes it; the old handle must stay inert. *)
  let e = Des.Engine.create () in
  let fired = ref [] in
  let note s () = fired := s :: !fired in
  let old = Des.Engine.schedule e ~at:10 (note "old") in
  Des.Engine.run e;
  ignore (Des.Engine.schedule e ~at:20 (note "new"));
  check_int "queued" 1 (Des.Engine.pending e);
  Des.Engine.cancel old;
  check_int "stale cancel is a no-op" 1 (Des.Engine.pending e);
  Des.Engine.run e;
  Alcotest.(check (list string))
    "both fired" [ "old"; "new" ] (List.rev !fired)

let engine_compaction_then_slot_reuse () =
  (* 100 heap-resident events with ties, 60 cancelled: each cancel frees
     its slot at once, then 60 posts take them. Cancelling the old
     handles again must not touch the posts, and everything live fires
     in (time, seq) order. *)
  let far = span * 2 in
  let e = Des.Engine.create () in
  let fired = ref [] in
  let note i () = fired := i :: !fired in
  let at i = far + (i * 7 mod 13) in
  let handles =
    Array.init 100 (fun i -> Des.Engine.schedule e ~at:(at i) (note i))
  in
  let cancelled i = i mod 5 <> 0 && i mod 5 <> 3 in
  Array.iteri (fun i h -> if cancelled i then Des.Engine.cancel h) handles;
  check_int "cancels leave the queue" 40 (Des.Engine.pending e);
  for i = 100 to 159 do
    Des.Engine.post e ~at:(at i) (note i)
  done;
  Array.iteri (fun i h -> if cancelled i then Des.Engine.cancel h) handles;
  check_int "pending is exact" 100 (Des.Engine.pending e);
  Des.Engine.run e;
  let expected =
    List.init 160 Fun.id
    |> List.filter (fun i -> i >= 100 || not (cancelled i))
    |> List.stable_sort (fun a b -> Int.compare (at a) (at b))
  in
  Alcotest.(check (list int)) "(time, seq) order" expected (List.rev !fired);
  check_int "drained" 0 (Des.Engine.pending e)

let engine_qcheck_exact_order_interleaved =
  (* Exact (time, seq) order over interleaved operations: schedules near
     (ties) or, two times in three, far out, posts, cancels of any
     earlier handle (pending, fired or already cancelled) and
     [run ~until] pauses. Slots of fired and cancelled events are reused
     throughout, so a stale handle must never reach a newer event. Chained
     posts fire a callback that posts at its own instant — the
     same-instant lane's main source — then (k = 1) schedules there too,
     or (k = 2) only schedules there; other events due at that instant
     sit in the heap with smaller seqs, and the chained schedules with
     larger ones. *)
  let far = span * 2 in
  let op =
    QCheck.Gen.(
      frequency
        [
          ( 3,
            map2
              (fun k d -> `Schedule (if k = 0 then d else far + d))
              (int_bound 2) (int_bound 50) );
          (1, map (fun d -> `Post d) (int_bound 50));
          (2, map2 (fun d k -> `Chain (d, k)) (int_bound 50) (int_bound 2));
          (3, map (fun k -> `Cancel k) nat);
          (1, map (fun d -> `Pause d) (int_bound 60));
        ])
  in
  let print = function
    | `Schedule d -> Fmt.str "schedule+%d" d
    | `Post d -> Fmt.str "post+%d" d
    | `Chain (d, k) -> Fmt.str "chain+%d/%d" d k
    | `Cancel k -> Fmt.str "cancel#%d" k
    | `Pause d -> Fmt.str "pause+%d" d
  in
  QCheck.Test.make ~count:300
    ~name:"exact (time, seq) order under stale cancels and pauses"
    QCheck.(make ~print:(Print.list print) Gen.(list_size (int_bound 400) op))
    (fun ops ->
      let e = Des.Engine.create () in
      let fired = ref [] and events = ref [] and handles = ref [] in
      let dead = Hashtbl.create 16 and done_ = Hashtbl.create 16 in
      let fresh d =
        let i = List.length !events and at = Des.Engine.now e + d in
        events := (at, i) :: !events;
        (i, at, fun () -> Hashtbl.replace done_ i (); fired := i :: !fired)
      in
      List.iter
        (function
          | `Schedule d ->
              let i, at, f = fresh d in
              handles := (i, Des.Engine.schedule e ~at f) :: !handles
          | `Post d ->
              let _, at, f = fresh d in
              Des.Engine.post e ~at f
          | `Chain (d, k) ->
              let _, at, f = fresh d in
              Des.Engine.post e ~at (fun () ->
                  f ();
                  if k < 2 then begin
                    let _, at, g = fresh 0 in
                    Des.Engine.post e ~at g
                  end;
                  if k > 0 then begin
                    let i, at, g = fresh 0 in
                    handles := (i, Des.Engine.schedule e ~at g) :: !handles
                  end)
          | `Cancel k -> (
              match !handles with
              | [] -> ()
              | hs ->
                  let i, h = List.nth hs (k mod List.length hs) in
                  if not (Hashtbl.mem done_ i) then Hashtbl.replace dead i ();
                  Des.Engine.cancel h)
          | `Pause d -> Des.Engine.run ~until:(Des.Engine.now e + d) e)
        ops;
      Des.Engine.run e;
      let expected =
        List.filter (fun (_, i) -> not (Hashtbl.mem dead i)) !events
        |> List.sort compare |> List.map snd
      in
      List.rev !fired = expected && Des.Engine.pending e = 0)

let engine_qcheck_in_order_runs =
  (* Exact (time, seq) order when long runs of in-order posts (the
     FIFO's traffic: a constant-delay stream from a cursor that only
     moves forward) are broken by posts before the FIFO's tail (the
     heap), at the current instant (the lane), chained posts that hop on
     from their own firing, [post_tagged], [schedule]/[cancel]/[rearm]
     and [run ~until] pauses. *)
  let op =
    QCheck.Gen.(
      frequency
        [
          (4, map2 (fun n d -> `Run (n, d)) (int_range 1 60) (int_bound 4));
          (2, map (fun d -> `Post d) (int_bound 40));
          (1, return `Now);
          (2, map (fun d -> `Chain d) (int_bound 40));
          (2, map (fun d -> `Tagged d) (int_bound 40));
          (2, map (fun d -> `Schedule d) (int_bound 40));
          (1, map (fun k -> `Cancel k) nat);
          (1, map2 (fun k d -> `Rearm (k, d)) nat (int_bound 40));
          (1, map (fun d -> `Pause d) (int_bound 60));
        ])
  in
  let print = function
    | `Run (n, d) -> Fmt.str "run%dx+%d" n d
    | `Post d -> Fmt.str "post+%d" d
    | `Now -> "now"
    | `Chain d -> Fmt.str "chain+%d" d
    | `Tagged d -> Fmt.str "tagged+%d" d
    | `Schedule d -> Fmt.str "schedule+%d" d
    | `Cancel k -> Fmt.str "cancel#%d" k
    | `Rearm (k, d) -> Fmt.str "rearm#%d+%d" k d
    | `Pause d -> Fmt.str "pause+%d" d
  in
  QCheck.Test.make ~count:300 ~name:"exact order over in-order post runs"
    QCheck.(make ~print:(Print.list print) Gen.(list_size (int_bound 120) op))
    (fun ops ->
      let e = Des.Engine.create () in
      let fired = ref [] and events = ref [] and next = ref 0 in
      let dead = Hashtbl.create 16 and done_ = Hashtbl.create 16 in
      (* Handles, each with the id of the event it last scheduled. *)
      let handles = ref [||] and cursor = ref 0 in
      let fresh at =
        let i = !next in
        incr next;
        events := (at, i) :: !events;
        i
      in
      let note i () =
        Hashtbl.replace done_ i ();
        fired := i :: !fired
      in
      Des.Engine.set_tagged_sink e (fun i _ -> note i ());
      let now () = Des.Engine.now e in
      let post at =
        let i = fresh at in
        Des.Engine.post e ~at (note i)
      in
      let kill i =
        if not (Hashtbl.mem done_ i) then Hashtbl.replace dead i ()
      in
      List.iter
        (function
          | `Run (n, d) ->
              for _ = 1 to n do
                cursor := Int.max !cursor (now ()) + d;
                post !cursor
              done
          | `Post d -> post (now () + d)
          | `Now -> post (now ())
          | `Chain d ->
              let at = now () + d in
              let i = fresh at in
              Des.Engine.post e ~at (fun () ->
                  note i ();
                  post (now ());
                  post (now () + 3))
          | `Tagged d ->
              let at = now () + d in
              Des.Engine.post_tagged e ~at ~tag:(fresh at) (Obj.repr 0)
          | `Schedule d ->
              let at = now () + d in
              let i = fresh at in
              let h = Des.Engine.schedule e ~at (note i) in
              handles := Array.append !handles [| (i, h) |]
          | `Cancel k ->
              let hs = !handles in
              if Array.length hs > 0 then begin
                let i, h = hs.(k mod Array.length hs) in
                kill i;
                Des.Engine.cancel h
              end
          | `Rearm (k, d) ->
              let hs = !handles in
              if Array.length hs > 0 then begin
                let slot = k mod Array.length hs in
                let i, h = hs.(slot) in
                kill i;
                let j = fresh (now () + d) in
                Des.Engine.rearm h ~delay:d (note j);
                hs.(slot) <- (j, h)
              end
          | `Pause d -> Des.Engine.run ~until:(now () + d) e)
        ops;
      Des.Engine.run e;
      let expected =
        List.filter (fun (_, i) -> not (Hashtbl.mem dead i)) !events
        |> List.sort compare |> List.map snd
      in
      List.rev !fired = expected && Des.Engine.pending e = 0)

(* One operation on the queue, for the model test below. *)
type queue_op =
  | Q_schedule of int (* delay *)
  | Q_cancel of int (* any handle made so far, fired or cancelled too *)
  | Q_arm of int * int (* timer, delay *)
  | Q_stop of int
  | Q_post of int
  | Q_step
  | Q_run of int (* run ~until now + d *)

let pp_queue_op ppf = function
  | Q_schedule d -> Fmt.pf ppf "schedule+%d" d
  | Q_cancel k -> Fmt.pf ppf "cancel#%d" k
  | Q_arm (i, d) -> Fmt.pf ppf "arm %d +%d" i d
  | Q_stop i -> Fmt.pf ppf "stop %d" i
  | Q_post d -> Fmt.pf ppf "post+%d" d
  | Q_step -> Fmt.pf ppf "step"
  | Q_run d -> Fmt.pf ppf "run+%d" d

let queue_timers = 16

let queue_op_gen =
  let open QCheck.Gen in
  let delay =
    frequency
      [
        (3, int_bound 200);
        (2, int_bound 5_000);
        (1, map (fun k -> tick * k) (int_bound 100));
      ]
  and timer = int_bound (queue_timers - 1) in
  frequency
    [
      (3, map (fun d -> Q_schedule d) delay);
      (3, map (fun k -> Q_cancel k) nat);
      (4, map2 (fun i d -> Q_arm (i, d)) timer delay);
      (1, map (fun i -> Q_stop i) timer);
      (2, map (fun d -> Q_post d) delay);
      (2, return Q_step);
      (1, map (fun d -> Q_run d) (int_bound 400));
    ]

let engine_qcheck_one_queue =
  (* The queue against a model: a list of (time, seq, label, cancellable)
     sorted by (time, seq), with seqs drawn where the engine draws them.
     Before every operation at least 64 [schedule] records and timers
     are queued (fresh [schedule]s top them up), so cancels and re-arms
     reach interior heap nodes, and a re-arm moves an entry up as often
     as down. After every operation the firings so far (label and
     clock), [pending], [next_event_time], the clock and every timer's
     [is_armed] must match the model. *)
  QCheck.Test.make ~count:200 ~name:"one queue matches a sorted model"
    (QCheck.make
       ~print:(Fmt.str "%a" Fmt.(list ~sep:semi pp_queue_op))
       QCheck.Gen.(list_size (int_bound 200) queue_op_gen))
    (fun ops ->
      let e = Des.Engine.create () in
      let fired = ref [] and expected = ref [] in
      let log label () = fired := (label, Des.Engine.now e) :: !fired in
      let timers =
        Array.init queue_timers (fun i -> Des.Timer.create e ~f:(log i))
      in
      let model = ref [] and seq = ref 0 and clock = ref 0 in
      let next_label = ref queue_timers and handles = ref [||] in
      let insert at cancellable label =
        let entry = (at, !seq, label, cancellable) in
        incr seq;
        let rec go = function
          | ((t, s, _, _) as x) :: rest when (t, s) < (at, !seq - 1) ->
              x :: go rest
          | rest -> entry :: rest
        in
        model := go !model
      in
      let drop label =
        model := List.filter (fun (_, _, l, _) -> l <> label) !model
      in
      let fire_head () =
        match !model with
        | [] -> ()
        | (at, _, label, _) :: rest ->
            model := rest;
            clock := at;
            expected := (label, at) :: !expected
      in
      let fresh () =
        let l = !next_label in
        incr next_label;
        l
      in
      let schedule d =
        let label = fresh () and at = Des.Engine.now e + d in
        let h = Des.Engine.schedule e ~at (log label) in
        insert at true label;
        handles := Array.append !handles [| (label, h) |]
      in
      let cancellable () =
        List.length (List.filter (fun (_, _, _, c) -> c) !model)
      in
      let same () =
        !fired = !expected
        && Des.Engine.pending e = List.length !model
        && Des.Engine.next_event_time e
           = (match !model with [] -> None | (at, _, _, _) :: _ -> Some at)
        && Des.Engine.now e = !clock
        && Array.for_all Fun.id
             (Array.mapi
                (fun i t ->
                  Des.Timer.is_armed t
                  = List.exists (fun (_, _, l, _) -> l = i) !model)
                timers)
      in
      let apply op =
        let n = cancellable () in
        for k = n to 63 do
          schedule (((k * 7_919) + !seq) mod 5_000)
        done;
        let now = Des.Engine.now e in
        match op with
        | Q_schedule d -> schedule d
        | Q_cancel k ->
            let hs = !handles in
            let label, h = hs.(k mod Array.length hs) in
            Des.Engine.cancel h;
            drop label
        | Q_arm (i, d) ->
            Des.Timer.arm timers.(i) ~delay:d;
            drop i;
            insert (now + d) true i
        | Q_stop i ->
            Des.Timer.stop timers.(i);
            drop i
        | Q_post d ->
            let label = fresh () in
            Des.Engine.post e ~at:(now + d) (log label);
            insert (now + d) false label
        | Q_step ->
            let stepped = Des.Engine.step e in
            if stepped <> (!model <> []) then
              QCheck.Test.fail_report "step disagrees on an empty queue";
            fire_head ()
        | Q_run d ->
            let limit = now + d in
            Des.Engine.run e ~until:limit;
            let rec go () =
              match !model with
              | (at, _, _, _) :: _ when at <= limit ->
                  fire_head ();
                  go ()
              | _ -> ()
            in
            go ();
            clock := Int.max !clock limit
      in
      List.for_all
        (fun op ->
          apply op;
          same ())
        ops)

(* --- Timers far ahead --------------------------------------------------- *)

let far_timer_cancel_heavy () =
  (* The same cancel-and-schedule-per-packet workload at RTO-like
     horizons: the queue holds the one live timer and nothing else. *)
  let e = Des.Engine.create () in
  let h = ref None in
  for i = 1 to 20_000 do
    (match !h with Some h -> Des.Engine.cancel h | None -> ());
    h := Some (Des.Engine.schedule e ~at:(i + Des.Time.ms 200) (fun () -> ()));
    if i mod 500 = 0 then begin
      Des.Engine.run ~until:i e;
      check_int "one timer queued" 1 (Des.Engine.pending e)
    end
  done;
  check_int "one live event" 1 (Des.Engine.pending e);
  let fired = ref false in
  (match !h with Some h -> Des.Engine.cancel h | None -> ());
  ignore
    (Des.Engine.schedule_after e ~delay:(Des.Time.ms 1) (fun () ->
         fired := true));
  Des.Engine.run e;
  check_bool "far timer fires after drain" true !fired;
  check_int "drained" 0 (Des.Engine.pending e)

let far_horizons_fire_in_order () =
  (* Delays from under a tick to beyond [span] must fire in exact
     global time order, with ties broken by scheduling order. *)
  let delays =
    [
      1;
      tick - 1;
      tick * 3;
      (tick * 200) + 17;
      tick * 300;
      tick * 65_000;
      tick * 70_000;
      tick * 16_000_000;
      span + 5;
      span * 3;
      (* duplicates, for (time, seq) ties *)
      tick * 3;
      1;
    ]
  in
  let e = Des.Engine.create () in
  let fired = ref [] in
  List.iteri
    (fun i d ->
      ignore
        (Des.Engine.schedule e ~at:d (fun () ->
             fired := (d, i) :: !fired)))
    delays;
  Des.Engine.run e;
  let expected =
    List.mapi (fun i d -> (d, i)) delays
    |> List.stable_sort (fun (d1, _) (d2, _) -> Int.compare d1 d2)
  in
  Alcotest.(check (list (pair int int)))
    "exact (time, seq) order across horizons" expected (List.rev !fired)

let run_until_keeps_far_timer () =
  (* A timer beyond a [run ~until] limit stays queued across the pause,
     and a cancel after it still keeps it from firing. *)
  let e = Des.Engine.create () in
  let h =
    Des.Engine.schedule e ~at:(Des.Time.sec 1) (fun () -> assert false)
  in
  Des.Engine.run ~until:(Des.Time.ms 10) e;
  check_int "still queued" 1 (Des.Engine.pending e);
  Alcotest.(check (option int))
    "next at its time" (Some (Des.Time.sec 1))
    (Des.Engine.next_event_time e);
  check_int "clock at limit" (Des.Time.ms 10) (Des.Engine.now e);
  Des.Engine.cancel h;
  check_int "cancel unlinks" 0 (Des.Engine.pending e);
  Des.Engine.run e;
  check_int "nothing fires" 0 (Des.Engine.events_fired e)

let cancel_far_timer_from_callback () =
  (* Cancelling a far timer from the callback of a nearer one, once the
     clock has come most of the way, must still be honoured. *)
  let e = Des.Engine.create () in
  let fired = ref 0 in
  let far = Des.Engine.schedule e ~at:(Des.Time.sec 2) (fun () -> incr fired) in
  let near =
    Des.Engine.schedule e ~at:(Des.Time.sec 1) (fun () ->
        incr fired;
        Des.Engine.cancel far)
  in
  ignore near;
  Des.Engine.run e;
  check_int "only the near timer fired" 1 !fired;
  check_int "drained" 0 (Des.Engine.pending e)

let engine_qcheck_exact_order_far =
  (* The exact-order property again, over times from ties to beyond
     [span], interleaved with cancels. *)
  QCheck.Test.make ~count:100
    ~name:"exact (time, seq) order across wheel levels under cancels"
    QCheck.(list (pair (int_bound (span + 100_000)) bool))
    (fun items ->
      let e = Des.Engine.create () in
      let fired = ref [] in
      let handles =
        List.mapi
          (fun i (t, _) ->
            Des.Engine.schedule e ~at:t (fun () -> fired := i :: !fired))
          items
      in
      List.iteri
        (fun i (_, cancelled) ->
          if cancelled then Des.Engine.cancel (List.nth handles i))
        items;
      Des.Engine.run e;
      let expected =
        List.mapi (fun i (t, cancelled) -> (t, i, cancelled)) items
        |> List.filter (fun (_, _, cancelled) -> not cancelled)
        |> List.stable_sort (fun (t1, _, _) (t2, _, _) -> Int.compare t1 t2)
        |> List.map (fun (_, i, _) -> i)
      in
      List.rev !fired = expected)

(* --- Timer ------------------------------------------------------------- *)

let timer_one_shot () =
  let e = Des.Engine.create () in
  let fired = ref 0 in
  let t = Des.Timer.create e ~f:(fun () -> incr fired) in
  Des.Timer.arm t ~delay:(Des.Time.ms 1);
  check_bool "armed" true (Des.Timer.is_armed t);
  Des.Engine.run e;
  check_int "fired once" 1 !fired;
  check_bool "disarmed after fire" false (Des.Timer.is_armed t)

let timer_rearm_resets () =
  let e = Des.Engine.create () in
  let fire_time = ref 0 in
  let t = Des.Timer.create e ~f:(fun () -> fire_time := Des.Engine.now e) in
  Des.Timer.arm t ~delay:(Des.Time.ms 1);
  (* Re-arm at t=0.5ms for 2ms more: expiry moves to 2.5ms. *)
  ignore
    (Des.Engine.schedule e ~at:(Des.Time.us 500) (fun () ->
         Des.Timer.arm t ~delay:(Des.Time.ms 2)));
  Des.Engine.run e;
  check_int "re-armed expiry" (Des.Time.us 2500) !fire_time

let timer_stop () =
  let e = Des.Engine.create () in
  let fired = ref false in
  let t = Des.Timer.create e ~f:(fun () -> fired := true) in
  Des.Timer.arm t ~delay:(Des.Time.ms 1);
  Des.Timer.stop t;
  Des.Timer.stop t;
  Des.Engine.run e;
  check_bool "stopped" false !fired

let timer_every () =
  let e = Des.Engine.create () in
  let fires = ref [] in
  let t =
    Des.Timer.every e ~period:(Des.Time.ms 2) (fun () ->
        fires := Des.Engine.now e :: !fires)
  in
  ignore
    (Des.Engine.schedule e ~at:(Des.Time.ms 7) (fun () -> Des.Timer.stop t));
  Des.Engine.run ~until:(Des.Time.ms 20) e;
  Alcotest.(check (list int))
    "periodic fires until stopped"
    [ Des.Time.ms 2; Des.Time.ms 4; Des.Time.ms 6 ]
    (List.rev !fires)

let timer_every_start () =
  let e = Des.Engine.create () in
  let fires = ref [] in
  let t =
    Des.Timer.every e ~period:(Des.Time.ms 5) ~start:(Des.Time.ms 1)
      (fun () -> fires := Des.Engine.now e :: !fires)
  in
  Des.Engine.run ~until:(Des.Time.ms 12) e;
  Des.Timer.stop t;
  Alcotest.(check (list int))
    "custom start"
    [ Des.Time.ms 1; Des.Time.ms 6; Des.Time.ms 11 ]
    (List.rev !fires)

(* The timer as it was before [Engine.rearm]: every re-arm cancels the
   pending event and schedules a fresh one. The differential test below
   holds the real timer to this model. *)
module Old_timer = struct
  type t = {
    engine : Des.Engine.t;
    f : unit -> unit;
    mutable pending : Des.Engine.handle option;
    mutable wrapper : unit -> unit;
  }

  let create engine ~f =
    let t = { engine; f; pending = None; wrapper = Fun.id } in
    t.wrapper <-
      (fun () ->
        t.pending <- None;
        t.f ());
    t

  let stop t =
    match t.pending with
    | None -> ()
    | Some h ->
        Des.Engine.cancel h;
        t.pending <- None

  let arm t ~delay =
    stop t;
    t.pending <- Some (Des.Engine.schedule_after t.engine ~delay t.wrapper)

  let is_armed t = t.pending <> None
end

(* One step of a timer program. Delays are drawn when the step runs,
   from state both sides share, in classes from ties with a pending
   expiry to beyond [span] (see [delay]). *)
type timer_op =
  | Arm of int * int * int (* timer, delay class, raw *)
  | Stop of int
  | Post of int * int (* instant class, raw: a pooled post *)
  | Run of int * int (* delay class, raw: run ~until now + delay *)
  | Steps of int
  | Flood (* 70 events scheduled and cancelled *)

let pp_timer_op ppf = function
  | Arm (i, c, r) -> Fmt.pf ppf "arm %d c%d %d" i c r
  | Stop i -> Fmt.pf ppf "stop %d" i
  | Post (c, r) -> Fmt.pf ppf "post c%d %d" c r
  | Run (c, r) -> Fmt.pf ppf "run c%d %d" c r
  | Steps k -> Fmt.pf ppf "steps %d" k
  | Flood -> Fmt.pf ppf "flood"

let n_timers = 3

let timer_op_gen =
  let open QCheck.Gen in
  let timer = int_bound (n_timers - 1) and raw = int_bound (1 lsl 30) in
  frequency
    [
      (6, map3 (fun i c r -> Arm (i, c, r)) timer (int_bound 8) raw);
      (1, map (fun i -> Stop i) timer);
      (3, map2 (fun c r -> Post (c, r)) (int_bound 3) raw);
      (2, map2 (fun c r -> Run (c, r)) (int_bound 8) raw);
      (2, map (fun k -> Steps k) (int_range 1 4));
      (1, return Flood);
    ]

(* One side of the differential test: the program runs on its own
   engine against one timer implementation. [deadline.(i)] is timer
   [i]'s pending expiry ([-1] when idle) and [last_post] the latest
   post's instant; the delay classes read them. *)
type side = {
  engine : Des.Engine.t;
  arm : int -> delay:int -> unit;
  stop : int -> unit;
  armed : int -> bool;
  trace : (int * int) list ref; (* (label, instant), newest first *)
  deadline : int array;
  mutable last_post : int;
  mutable posts : int;
}

let make_side ~create ~arm ~stop ~armed =
  let engine = Des.Engine.create () in
  let trace = ref [] and deadline = Array.make n_timers (-1) in
  let timers =
    Array.init n_timers (fun i ->
        create engine ~f:(fun () ->
            deadline.(i) <- -1;
            trace := (i, Des.Engine.now engine) :: !trace))
  in
  {
    engine;
    arm = (fun i ~delay -> arm timers.(i) ~delay);
    stop = (fun i -> stop timers.(i));
    armed = (fun i -> armed timers.(i));
    trace;
    deadline;
    last_post = 0;
    posts = 0;
  }

(* The delay of class [c] from now. 0: within the [tick] that holds
   the timer's own deadline, 1: inside the current [tick], 2: 1 to 255
   ticks, 3: 2^8 to 2^16 ticks, 4: 2^16 to 2^23 ticks, 5: beyond 2^24
   ticks, 6: the exact deadline of timer [raw mod n_timers], 7: zero,
   8: the latest post's instant. A class whose instant has passed gives
   zero. *)
let delay side ~timer c raw =
  let now = Des.Engine.now side.engine in
  let until at = if at >= now then at - now else 0 in
  match c with
  | 0 ->
      let d = side.deadline.(timer) in
      if d < 0 then raw mod tick else until (d - (d mod tick) + (raw mod tick))
  | 1 -> raw mod (tick - (now mod tick))
  | 2 -> (tick * (1 + (raw mod 255))) + (raw mod tick)
  | 3 -> tick * (256 + (raw mod 65_000))
  | 4 -> tick * (65_536 + (raw mod (1 lsl 23)))
  | 5 -> (tick lsl 24) + raw
  | 6 -> until side.deadline.(raw mod n_timers)
  | 7 -> 0
  | _ -> until side.last_post

let apply side = function
  | Arm (i, c, r) ->
      let d = delay side ~timer:i c r in
      side.arm i ~delay:d;
      side.deadline.(i) <- Des.Engine.now side.engine + d
  | Stop i ->
      side.stop i;
      side.deadline.(i) <- -1
  | Post (c, r) ->
      let now = Des.Engine.now side.engine in
      let at =
        match c with
        | 0 -> now
        | 1 -> now + (r mod (2 * tick))
        | _ ->
            let d = side.deadline.(r mod n_timers) in
            if d < now then now else if c = 2 then d else d + (r mod 1000)
      in
      let label = 100 + side.posts in
      side.posts <- side.posts + 1;
      side.last_post <- at;
      Des.Engine.post side.engine ~at (fun () ->
          side.trace := (label, Des.Engine.now side.engine) :: !(side.trace))
  | Run (c, r) ->
      let d = delay side ~timer:0 c r in
      Des.Engine.run side.engine ~until:(Des.Engine.now side.engine + d)
  | Steps k ->
      for _ = 1 to k do
        ignore (Des.Engine.step side.engine)
      done
  | Flood ->
      List.init 70 (fun _ ->
          Des.Engine.schedule_after side.engine ~delay:0 ignore)
      |> List.iter Des.Engine.cancel

let timer_qcheck_rearm_matches_old =
  QCheck.Test.make ~count:500
    ~name:"timer: in-place re-arm fires exactly as cancel + schedule"
    (QCheck.make
       ~print:(Fmt.str "%a" Fmt.(list ~sep:semi pp_timer_op))
       QCheck.Gen.(list_size (int_range 1 60) timer_op_gen))
    (fun ops ->
      let old_side =
        make_side ~create:Old_timer.create ~arm:Old_timer.arm
          ~stop:Old_timer.stop ~armed:Old_timer.is_armed
      in
      let new_side =
        make_side ~create:Des.Timer.create ~arm:Des.Timer.arm
          ~stop:Des.Timer.stop ~armed:Des.Timer.is_armed
      in
      let same () =
        !(old_side.trace) = !(new_side.trace)
        && Des.Engine.pending old_side.engine
           = Des.Engine.pending new_side.engine
        && Des.Engine.now old_side.engine = Des.Engine.now new_side.engine
        && List.for_all
             (fun i -> old_side.armed i = new_side.armed i)
             (List.init n_timers Fun.id)
      in
      List.for_all
        (fun op ->
          apply old_side op;
          apply new_side op;
          same ())
        ops
      &&
      (Des.Engine.run old_side.engine;
       Des.Engine.run new_side.engine;
       same ()))

let timer_rearm_zero_alloc () =
  (* The timer moves its one record: 10 000 warm re-arms at delays from
     zero to beyond [span], while pending, after a stop and after it
     fired, allocate nothing. *)
  let e = Des.Engine.create () in
  let t = Des.Timer.create e ~f:ignore in
  let delays =
    [| 0; 1; tick - 1; tick * 3; Des.Time.ms 1; Des.Time.ms 200; span + 3; 1 |]
  in
  let burst () =
    for i = 1 to 10_000 do
      if i land 1023 = 0 then Des.Engine.run e;
      if i land 15 = 0 then Des.Timer.stop t;
      Des.Timer.arm t ~delay:delays.(i land 7)
    done
  in
  burst ();
  let w0 = Gc.minor_words () in
  burst ();
  let delta = Gc.minor_words () -. w0 in
  if delta > 64.0 then
    Alcotest.failf "10000 warm Timer.arm allocated %.0f minor words" delta

let () =
  Alcotest.run "des"
    [
      ( "time",
        [
          Alcotest.test_case "units" `Quick time_units;
          Alcotest.test_case "float roundtrip" `Quick time_float_roundtrip;
          Alcotest.test_case "pp" `Quick time_pp;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick rng_deterministic;
          Alcotest.test_case "split independent" `Quick rng_split_independent;
          Alcotest.test_case "split labels differ" `Quick rng_split_labels_differ;
          Alcotest.test_case "exponential mean" `Quick rng_exponential_mean;
          Alcotest.test_case "gaussian moments" `Quick rng_gaussian_moments;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ rng_bounds ] );
      ( "engine",
        [
          Alcotest.test_case "orders events" `Quick engine_orders_events;
          Alcotest.test_case "fifo same time" `Quick engine_fifo_same_time;
          Alcotest.test_case "clock advances" `Quick engine_clock_advances;
          Alcotest.test_case "run until" `Quick engine_run_until;
          Alcotest.test_case "cancel" `Quick engine_cancel;
          Alcotest.test_case "past rejected" `Quick engine_schedule_in_past_rejected;
          Alcotest.test_case "negative delay rejected" `Quick
            engine_negative_delay_rejected;
          Alcotest.test_case "nested scheduling" `Quick engine_nested_scheduling;
          Alcotest.test_case "step" `Quick engine_step;
          Alcotest.test_case "cancel-heavy queue bounded" `Quick
            engine_cancel_heavy_queue_bounded;
          Alcotest.test_case "post and fire allocate nothing warm" `Quick
            engine_post_fire_zero_alloc;
          Alcotest.test_case "post_call and fire allocate nothing warm" `Quick
            engine_post_call_zero_alloc;
          Alcotest.test_case "fired posts retain nothing" `Quick
            engine_fired_posts_retain_nothing;
          Alcotest.test_case "pending, next_event_time and run see the lane"
            `Quick engine_lane_is_visible;
          Alcotest.test_case "pending, next_event_time and run see the FIFO"
            `Quick engine_fifo_is_visible;
          Alcotest.test_case "in-order posts allocate nothing warm" `Quick
            engine_in_order_posts_zero_alloc;
          Alcotest.test_case "stale cancel after slot reuse" `Quick
            engine_stale_cancel_after_slot_reuse;
          Alcotest.test_case "compaction then slot reuse" `Quick
            engine_compaction_then_slot_reuse;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [
              engine_qcheck_order;
              engine_qcheck_exact_order;
              engine_qcheck_exact_order_interleaved;
              engine_qcheck_in_order_runs;
              engine_qcheck_one_queue;
            ] );
      (* Named for the timing wheel that once held these horizons; the
         names are kept so that each test keeps its identity. *)
      ( "wheel",
        [
          Alcotest.test_case "cancel-heavy leaves heap clean" `Quick
            far_timer_cancel_heavy;
          Alcotest.test_case "levels fire in order" `Quick
            far_horizons_fire_in_order;
          Alcotest.test_case "run-until keeps far timers parked" `Quick
            run_until_keeps_far_timer;
          Alcotest.test_case "cancel after cascade" `Quick
            cancel_far_timer_from_callback;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ engine_qcheck_exact_order_far ] );
      ( "timer",
        [
          Alcotest.test_case "one shot" `Quick timer_one_shot;
          Alcotest.test_case "rearm resets" `Quick timer_rearm_resets;
          Alcotest.test_case "stop" `Quick timer_stop;
          Alcotest.test_case "every" `Quick timer_every;
          Alcotest.test_case "every with start" `Quick timer_every_start;
          Alcotest.test_case "re-arm allocates nothing warm" `Quick
            timer_rearm_zero_alloc;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ timer_qcheck_rearm_matches_old ] );
    ]
