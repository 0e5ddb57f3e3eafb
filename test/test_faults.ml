(* Tests for the fault layer: the timeline grammar, the injector's
   apply/revert mechanics against links, servers and the controller,
   and the drop-accounting split the loss faults rely on. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let us = Des.Time.us
let ms = Des.Time.ms

(* --- Timeline grammar ---------------------------------------------------- *)

let spec =
  {|# a demo timeline
100ms  link:lb->s1  delay+1ms
2s     link:lb->s1  spike+2ms   for 200ms   # trailing comment
3s     link:lb->s0  ramp+1ms    for 1s
5s     link:c0->lb  loss=0.05   for 500ms
6s     server:0     slow*2.5    for 2s
8s     server:1     pause       for 10ms
9s     backend:1    drain       for 3s
|}

let timeline_parses_spec () =
  match Faults.Timeline.parse spec with
  | Error msg -> Alcotest.fail msg
  | Ok events ->
      check_int "seven events" 7 (List.length events);
      let e = List.hd events in
      check_int "first at 100ms" (ms 100) e.Faults.Timeline.at;
      check_bool "first is a link delay" true
        (e.Faults.Timeline.target = Faults.Timeline.Link "lb->s1"
        && e.Faults.Timeline.fault = Faults.Timeline.Delay (ms 1)
        && e.Faults.Timeline.duration = None);
      (* Last line: drain with duration. *)
      let last = List.nth events 6 in
      check_bool "drain on backend 1 for 3s" true
        (last.Faults.Timeline.target = Faults.Timeline.Backend 1
        && last.Faults.Timeline.fault = Faults.Timeline.Drain
        && last.Faults.Timeline.duration = Some (Des.Time.sec 3))

let timeline_round_trips () =
  match Faults.Timeline.parse spec with
  | Error msg -> Alcotest.fail msg
  | Ok events ->
      List.iter
        (fun e ->
          match Faults.Timeline.parse_line (Faults.Timeline.to_spec e) with
          | Ok (Some e') ->
              check_bool (Faults.Timeline.to_spec e) true (e = e')
          | Ok None -> Alcotest.fail "round trip lost the event"
          | Error msg -> Alcotest.fail msg)
        events

let timeline_sorts_by_time () =
  let text = "2s server:0 slow*2\n1s server:1 slow*3\n" in
  match Faults.Timeline.parse text with
  | Error msg -> Alcotest.fail msg
  | Ok events ->
      check_int "earlier event first" (Des.Time.sec 1)
        (List.hd events).Faults.Timeline.at

let timeline_rejects_bad_lines () =
  let bad line =
    match Faults.Timeline.parse line with
    | Error _ -> true
    | Ok _ -> false
  in
  check_bool "bad time" true (bad "1parsec link:x delay+1ms");
  check_bool "bad target" true (bad "1s lunk:x delay+1ms");
  check_bool "bad fault" true (bad "1s link:x wobble+1ms");
  check_bool "spike needs duration" true (bad "1s link:x spike+1ms");
  check_bool "ramp needs duration" true (bad "1s link:x ramp+1ms");
  check_bool "pause needs duration" true (bad "1s server:0 pause");
  check_bool "loss out of range" true (bad "1s link:x loss=1.0");
  check_bool "slow must be positive" true (bad "1s server:0 slow*0");
  check_bool "pause on a link" true (bad "1s link:x pause for 1ms");
  check_bool "drain on a server" true (bad "1s server:0 drain");
  check_bool "loss on a server" true (bad "1s server:0 loss=0.1");
  check_bool "trailing junk" true (bad "1s link:x delay+1ms for 1ms extra");
  check_bool "negative server index" true (bad "1s server:-1 slow*2")

let timeline_errors_name_the_line () =
  match Faults.Timeline.parse "1s server:0 slow*2\nnonsense\n" with
  | Error msg ->
      check_bool (Fmt.str "error names line 2: %s" msg) true
        (String.length msg >= 7 && String.sub msg 0 7 = "line 2:")
  | Ok _ -> Alcotest.fail "expected a parse error"

let timeline_event_validates () =
  Alcotest.check_raises "spike without duration"
    (Invalid_argument "Faults.Timeline.event: spike needs a 'for DURATION'")
    (fun () ->
      ignore
        (Faults.Timeline.event ~at:0 ~target:(Faults.Timeline.Link "l")
           ~fault:(Faults.Timeline.Spike (ms 1)) ()))

(* --- Injector: link faults ----------------------------------------------- *)

let mk_link ?(with_rng = true) ?(loss = 0.0) ?(capacity = 1024) ?(rate = 0)
    engine registry =
  let link =
    Netsim.Link.create engine ~delay:(us 10) ~rate_bps:rate
      ~queue_capacity:capacity ~loss_prob:loss
      ?rng:(if with_rng then Some (Des.Rng.create ~seed:42) else None)
      ~telemetry:registry ()
  in
  Netsim.Link.connect link (fun _ -> ());
  link

let link_env name link =
  {
    Faults.Injector.link = (fun n -> if n = name then [ link ] else []);
    server = (fun _ -> None);
    controller = (fun _ -> []);
  }

let injector_spike_applies_and_reverts () =
  let engine = Des.Engine.create () in
  let registry = Telemetry.Registry.create () in
  let link = mk_link engine registry in
  let timeline =
    [
      Faults.Timeline.event ~at:(ms 1) ~target:(Faults.Timeline.Link "l")
        ~fault:(Faults.Timeline.Spike (us 500)) ~duration:(ms 2) ();
    ]
  in
  let inj =
    Faults.Injector.install engine ~env:(link_env "l" link) ~telemetry:registry
      timeline
  in
  Des.Engine.run ~until:(ms 2) engine;
  check_int "spike applied" (us 500) (Netsim.Link.extra_delay link);
  check_int "one active fault" 1 (Faults.Injector.active_faults inj);
  Des.Engine.run ~until:(ms 5) engine;
  check_int "spike reverted" 0 (Netsim.Link.extra_delay link);
  check_int "no active faults" 0 (Faults.Injector.active_faults inj);
  (match Faults.Injector.intervals inj with
  | [ i ] ->
      check_int "applied at 1ms" (ms 1) i.Faults.Injector.applied_at;
      Alcotest.(check (option int)) "reverted at 3ms" (Some (ms 3))
        i.Faults.Injector.reverted_at
  | l -> Alcotest.fail (Fmt.str "expected one interval, got %d" (List.length l)));
  Alcotest.(check (option (float 0.0))) "fault.applied metric" (Some 1.0)
    (Telemetry.Registry.value registry "fault.applied");
  Alcotest.(check (option (float 0.0))) "fault.reverted metric" (Some 1.0)
    (Telemetry.Registry.value registry "fault.reverted");
  Alcotest.(check (option (float 0.0))) "fault.active gauge" (Some 0.0)
    (Telemetry.Registry.value registry "fault.active")

let injector_delay_restores_previous () =
  (* A temporary delay must restore what was there before, not zero. *)
  let engine = Des.Engine.create () in
  let link = mk_link engine (Telemetry.Registry.create ()) in
  Netsim.Link.set_extra_delay link (us 100);
  let timeline =
    [
      Faults.Timeline.event ~at:(ms 1) ~target:(Faults.Timeline.Link "l")
        ~fault:(Faults.Timeline.Delay (ms 1)) ~duration:(ms 1) ();
    ]
  in
  ignore (Faults.Injector.install engine ~env:(link_env "l" link) timeline);
  Des.Engine.run ~until:(ms 1 + us 1) engine;
  check_int "delay applied" (ms 1) (Netsim.Link.extra_delay link);
  Des.Engine.run ~until:(ms 3) engine;
  check_int "previous extra delay restored" (us 100)
    (Netsim.Link.extra_delay link)

let injector_loss_burst_reverts () =
  let engine = Des.Engine.create () in
  let link = mk_link engine (Telemetry.Registry.create ()) in
  let timeline =
    [
      Faults.Timeline.event ~at:(ms 1) ~target:(Faults.Timeline.Link "l")
        ~fault:(Faults.Timeline.Loss 0.25) ~duration:(ms 2) ();
    ]
  in
  ignore (Faults.Injector.install engine ~env:(link_env "l" link) timeline);
  Des.Engine.run ~until:(ms 2) engine;
  Alcotest.(check (float 1e-9)) "loss on" 0.25 (Netsim.Link.loss_prob link);
  Des.Engine.run ~until:(ms 4) engine;
  Alcotest.(check (float 1e-9)) "loss off" 0.0 (Netsim.Link.loss_prob link)

let injector_ramp_reaches_target () =
  let engine = Des.Engine.create () in
  let link = mk_link engine (Telemetry.Registry.create ()) in
  let timeline =
    [
      Faults.Timeline.event ~at:(ms 1) ~target:(Faults.Timeline.Link "l")
        ~fault:(Faults.Timeline.Ramp (us 1600)) ~duration:(ms 16) ();
    ]
  in
  let inj = Faults.Injector.install engine ~env:(link_env "l" link) timeline in
  Des.Engine.run ~until:(ms 9) engine;
  let mid = Netsim.Link.extra_delay link in
  check_bool (Fmt.str "midway between 0 and target (%d)" mid) true
    (mid > 0 && mid < us 1600);
  Des.Engine.run ~until:(ms 20) engine;
  check_int "ramp reached target" (us 1600) (Netsim.Link.extra_delay link);
  (* Ramps persist: no revert, and the interval stays open. *)
  match Faults.Injector.intervals inj with
  | [ i ] ->
      Alcotest.(check (option int)) "never reverted" None
        i.Faults.Injector.reverted_at
  | _ -> Alcotest.fail "expected one interval"

let injector_rejects_unknown_targets () =
  let engine = Des.Engine.create () in
  let link = mk_link engine (Telemetry.Registry.create ()) in
  let ev target fault =
    [ Faults.Timeline.event ~at:(ms 1) ~target ~fault ~duration:(ms 1) () ]
  in
  let raises timeline =
    match
      Faults.Injector.install engine ~env:(link_env "l" link) timeline
    with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  check_bool "unknown link" true
    (raises (ev (Faults.Timeline.Link "nope") (Faults.Timeline.Delay (ms 1))));
  check_bool "unknown server" true
    (raises (ev (Faults.Timeline.Server 0) (Faults.Timeline.Slow 2.0)));
  check_bool "no controller" true
    (raises (ev (Faults.Timeline.Backend 0) Faults.Timeline.Drain));
  check_int "nothing scheduled by failed installs" 0 (Des.Engine.pending engine)

let injector_rejects_loss_without_rng () =
  let engine = Des.Engine.create () in
  let link = mk_link ~with_rng:false engine (Telemetry.Registry.create ()) in
  let timeline =
    [
      Faults.Timeline.event ~at:(ms 1) ~target:(Faults.Timeline.Link "l")
        ~fault:(Faults.Timeline.Loss 0.5) ~duration:(ms 1) ();
    ]
  in
  check_bool "install refuses" true
    (match Faults.Injector.install engine ~env:(link_env "l" link) timeline with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* --- Injector: server faults --------------------------------------------- *)

let mk_server engine =
  let fabric = Netsim.Fabric.create engine in
  Memcache.Server.create fabric ~host_ip:10
    ~listen_addr:(Netsim.Addr.v 1 11211)
    ~rng:(Des.Rng.create ~seed:7)
    ()

let server_env server =
  {
    Faults.Injector.link = (fun _ -> []);
    server = (fun i -> if i = 0 then Some server else None);
    controller = (fun _ -> []);
  }

let injector_slow_applies_and_reverts () =
  let engine = Des.Engine.create () in
  let server = mk_server engine in
  let timeline =
    [
      Faults.Timeline.event ~at:(ms 1) ~target:(Faults.Timeline.Server 0)
        ~fault:(Faults.Timeline.Slow 2.5) ~duration:(ms 2) ();
    ]
  in
  ignore (Faults.Injector.install engine ~env:(server_env server) timeline);
  Des.Engine.run ~until:(ms 2) engine;
  Alcotest.(check (float 1e-9)) "slowed" 2.5 (Memcache.Server.slow_factor server);
  Des.Engine.run ~until:(ms 4) engine;
  Alcotest.(check (float 1e-9)) "nominal again" 1.0
    (Memcache.Server.slow_factor server)

let injector_pause_records_interval () =
  let engine = Des.Engine.create () in
  let server = mk_server engine in
  let timeline =
    [
      Faults.Timeline.event ~at:(ms 1) ~target:(Faults.Timeline.Server 0)
        ~fault:Faults.Timeline.Pause ~duration:(ms 2) ();
    ]
  in
  let inj = Faults.Injector.install engine ~env:(server_env server) timeline in
  Des.Engine.run ~until:(ms 5) engine;
  match Faults.Injector.intervals inj with
  | [ i ] ->
      Alcotest.(check (option int)) "pause cleared at 3ms" (Some (ms 3))
        i.Faults.Injector.reverted_at
  | _ -> Alcotest.fail "expected one interval"

(* --- Interference force/clear -------------------------------------------- *)

let interference_force_and_clear () =
  let engine = Des.Engine.create () in
  let i = Memcache.Interference.none engine in
  check_int "idle" 0 (Memcache.Interference.extra_delay i);
  Memcache.Interference.force i ~until:(ms 2);
  check_int "paused for 2ms" (ms 2) (Memcache.Interference.extra_delay i);
  (* A shorter overlapping pause must not cut the current one short. *)
  Memcache.Interference.force i ~until:(ms 1);
  check_int "longest pause wins" (ms 2) (Memcache.Interference.extra_delay i);
  Des.Engine.run ~until:(ms 1) engine;
  check_int "half absorbed" (ms 1) (Memcache.Interference.extra_delay i);
  Memcache.Interference.clear i;
  check_int "cleared" 0 (Memcache.Interference.extra_delay i);
  check_bool "pauses counted" true (Memcache.Interference.pauses_so_far i >= 1)

(* --- Link drop accounting ------------------------------------------------- *)

let mk_packet () =
  Netsim.Packet.make
    ~src:(Netsim.Addr.v 100 10000)
    ~dst:(Netsim.Addr.v 1 11211)
    ~seq:0 ~ack:0 ~flags:Netsim.Packet.flag_ack ~payload:"x"

let link_splits_loss_drops () =
  let engine = Des.Engine.create () in
  let registry = Telemetry.Registry.create () in
  let link = mk_link ~loss:0.5 engine registry in
  for _ = 1 to 200 do
    Netsim.Link.send link (mk_packet ())
  done;
  Des.Engine.run engine;
  let loss = Netsim.Link.loss_drops link in
  check_bool (Fmt.str "random losses happened (%d)" loss) true (loss > 50);
  check_int "no queue drops on an infinite link" 0
    (Netsim.Link.queue_drops link);
  check_int "drops is the sum" loss (Netsim.Link.drops link);
  Alcotest.(check (option (float 0.0))) "link.drops gauge is the sum"
    (Some (float_of_int loss))
    (Telemetry.Registry.value registry "link.drops")

let link_splits_queue_drops () =
  let engine = Des.Engine.create () in
  let registry = Telemetry.Registry.create () in
  (* 8 kbit/s: ~54ms per 54-byte packet, queue of 1: a burst of 10
     keeps 2 (in service + queued) and tail-drops the rest. *)
  let link = mk_link ~capacity:1 ~rate:8000 engine registry in
  for _ = 1 to 10 do
    Netsim.Link.send link (mk_packet ())
  done;
  Des.Engine.run engine;
  check_int "burst tail-dropped" 8 (Netsim.Link.queue_drops link);
  check_int "no loss drops" 0 (Netsim.Link.loss_drops link);
  check_int "drops is the sum" 8 (Netsim.Link.drops link);
  check_int "the rest got through" 2 (Netsim.Link.packets_sent link)

(* --- Controller drain/restore --------------------------------------------- *)

let mk_controller ?(n = 3) () =
  let config =
    {
      Inband.Config.default with
      Inband.Config.control_interval = 0;
      relative_threshold = 2.0;
    }
  in
  let names = Array.init n (fun i -> Fmt.str "s%d" i) in
  let pool = Maglev.Pool.create ~table_size:1021 ~names () in
  (Inband.Controller.create ~config ~pool (), pool)

let controller_drain_pins_to_floor () =
  let c, _pool = mk_controller () in
  Inband.Controller.drain c ~now:(ms 1) ~server:2;
  check_bool "drained" true (Inband.Controller.is_drained c 2);
  let w = Inband.Controller.weights c in
  check_bool (Fmt.str "pinned near the floor (%.4f)" w.(2)) true (w.(2) < 0.02);
  Alcotest.(check (float 1e-6)) "sum 1" 1.0 (Array.fold_left ( +. ) 0.0 w);
  (* Draining twice is idempotent. *)
  Inband.Controller.drain c ~now:(ms 2) ~server:2;
  check_bool "still drained" true (Inband.Controller.is_drained c 2)

let controller_drained_excluded_from_shift () =
  let c, _pool = mk_controller () in
  Inband.Controller.drain c ~now:(ms 1) ~server:2;
  (* Server 0 is worst; the shifted weight must all go to server 1 —
     server 2 is drained and must stay at the floor even though its
     estimate is best. *)
  ignore (Inband.Controller.on_sample c ~now:(ms 2) ~server:1 (us 100));
  ignore (Inband.Controller.on_sample c ~now:(ms 3) ~server:2 (us 105));
  (match Inband.Controller.on_sample c ~now:(ms 4) ~server:0 (us 900) with
  | Some action -> check_int "victim is server 0" 0 action.Inband.Controller.victim
  | None -> Alcotest.fail "expected a shift");
  let w = Inband.Controller.weights c in
  check_bool "drained stayed at the floor" true (w.(2) < 0.02);
  check_bool "recipient gained" true (w.(1) > 0.34)

let controller_restore_reenters () =
  let c, _pool = mk_controller () in
  Inband.Controller.drain c ~now:(ms 1) ~server:2;
  Inband.Controller.restore c ~now:(ms 2) ~server:2;
  check_bool "no longer drained" false (Inband.Controller.is_drained c 2);
  let w = Inband.Controller.weights c in
  check_bool (Fmt.str "meaningful share back (%.3f)" w.(2)) true (w.(2) > 0.2);
  (* Restoring an undrained backend is a no-op. *)
  Inband.Controller.restore c ~now:(ms 3) ~server:0;
  check_bool "range check still applies" true
    (match Inband.Controller.drain c ~now:(ms 4) ~server:9 with
    | () -> false
    | exception Invalid_argument _ -> true)

let injector_drain_via_timeline () =
  let c, _pool = mk_controller () in
  let engine = Des.Engine.create () in
  let env =
    {
      Faults.Injector.link = (fun _ -> []);
      server = (fun _ -> None);
      controller = (fun i -> if i < 3 then [ c ] else []);
    }
  in
  let timeline =
    [
      Faults.Timeline.event ~at:(ms 1) ~target:(Faults.Timeline.Backend 1)
        ~fault:Faults.Timeline.Drain ~duration:(ms 2) ();
    ]
  in
  ignore (Faults.Injector.install engine ~env timeline);
  Des.Engine.run ~until:(ms 2) engine;
  check_bool "drained mid-fault" true (Inband.Controller.is_drained c 1);
  Des.Engine.run ~until:(ms 4) engine;
  check_bool "restored after" false (Inband.Controller.is_drained c 1)

let () =
  Alcotest.run "faults"
    [
      ( "timeline",
        [
          Alcotest.test_case "parses the demo spec" `Quick timeline_parses_spec;
          Alcotest.test_case "round trips" `Quick timeline_round_trips;
          Alcotest.test_case "sorts by time" `Quick timeline_sorts_by_time;
          Alcotest.test_case "rejects bad lines" `Quick
            timeline_rejects_bad_lines;
          Alcotest.test_case "errors name the line" `Quick
            timeline_errors_name_the_line;
          Alcotest.test_case "event validates" `Quick timeline_event_validates;
        ] );
      ( "injector",
        [
          Alcotest.test_case "spike applies and reverts" `Quick
            injector_spike_applies_and_reverts;
          Alcotest.test_case "delay restores previous" `Quick
            injector_delay_restores_previous;
          Alcotest.test_case "loss burst reverts" `Quick
            injector_loss_burst_reverts;
          Alcotest.test_case "ramp reaches target" `Quick
            injector_ramp_reaches_target;
          Alcotest.test_case "rejects unknown targets" `Quick
            injector_rejects_unknown_targets;
          Alcotest.test_case "rejects loss without rng" `Quick
            injector_rejects_loss_without_rng;
          Alcotest.test_case "slow applies and reverts" `Quick
            injector_slow_applies_and_reverts;
          Alcotest.test_case "pause records interval" `Quick
            injector_pause_records_interval;
          Alcotest.test_case "drain via timeline" `Quick
            injector_drain_via_timeline;
        ] );
      ( "substrate",
        [
          Alcotest.test_case "interference force/clear" `Quick
            interference_force_and_clear;
          Alcotest.test_case "loss drops split" `Quick link_splits_loss_drops;
          Alcotest.test_case "queue drops split" `Quick link_splits_queue_drops;
        ] );
      ( "drain",
        [
          Alcotest.test_case "pins to floor" `Quick controller_drain_pins_to_floor;
          Alcotest.test_case "excluded from shift" `Quick
            controller_drained_excluded_from_shift;
          Alcotest.test_case "restore reenters" `Quick controller_restore_reenters;
        ] );
    ]
