let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let us = Des.Time.us
let ms = Des.Time.ms

(* --- Registry ----------------------------------------------------------- *)

let registry_counters_and_gauges () =
  let r = Telemetry.Registry.create () in
  let c = Telemetry.Registry.counter r "lb.pkts" in
  check_int "counter starts at 0" 0 (Telemetry.Registry.Counter.value c);
  Telemetry.Registry.Counter.incr c;
  Telemetry.Registry.Counter.add c 4;
  check_int "incr + add" 5 (Telemetry.Registry.Counter.value c);
  Alcotest.(check (option (float 1e-9)))
    "scalar read by name" (Some 5.0)
    (Telemetry.Registry.value r "lb.pkts");
  let g = Telemetry.Registry.gauge r "lb.queue" in
  check_bool "unset gauge is nan" true
    (Float.is_nan (Telemetry.Registry.Gauge.read g));
  Telemetry.Registry.Gauge.set g 3.5;
  Alcotest.(check (option (float 1e-9)))
    "gauge read" (Some 3.5)
    (Telemetry.Registry.value r "lb.queue");
  let cell = ref 7.0 in
  Telemetry.Registry.gauge_fn r "lb.polled" (fun () -> !cell);
  cell := 9.0;
  Alcotest.(check (option (float 1e-9)))
    "polled gauge reads the callback" (Some 9.0)
    (Telemetry.Registry.value r "lb.polled");
  check_bool "mem finds registered" true (Telemetry.Registry.mem r "lb.pkts");
  check_bool "mem misses unknown" false (Telemetry.Registry.mem r "nope");
  check_bool "value misses unknown" true
    (Telemetry.Registry.value r "nope" = None)

let registry_indexed_metrics () =
  let r = Telemetry.Registry.create () in
  let cs =
    Array.init 3 (fun i -> Telemetry.Registry.counter r ~index:i "s.pkts")
  in
  Telemetry.Registry.Counter.add cs.(1) 11;
  Alcotest.(check (option (float 1e-9)))
    "index 1" (Some 11.0)
    (Telemetry.Registry.value r ~index:1 "s.pkts");
  Alcotest.(check (option (float 1e-9)))
    "index 0 untouched" (Some 0.0)
    (Telemetry.Registry.value r ~index:0 "s.pkts");
  check_bool "unindexed lookup misses the vector" true
    (Telemetry.Registry.value r "s.pkts" = None)

let registry_duplicate_name_raises () =
  let r = Telemetry.Registry.create () in
  ignore (Telemetry.Registry.counter r "dup");
  check_bool "duplicate raises" true
    (try
       ignore (Telemetry.Registry.counter r "dup");
       false
     with Invalid_argument _ -> true);
  (* Same name under a different index is fine. *)
  ignore (Telemetry.Registry.counter r ~index:0 "dup");
  ignore (Telemetry.Registry.counter r ~index:1 "dup");
  check_bool "indexed duplicate raises" true
    (try
       ignore (Telemetry.Registry.gauge r ~index:1 "dup");
       false
     with Invalid_argument _ -> true)

let registry_read_order_and_histograms () =
  let r = Telemetry.Registry.create () in
  ignore (Telemetry.Registry.counter r "a");
  let h = Telemetry.Registry.histogram r "lat_ns" in
  ignore (Telemetry.Registry.counter r "z");
  Stats.Histogram.record h (us 100);
  Stats.Histogram.record h (us 300);
  let names =
    List.map
      (fun s -> s.Telemetry.Registry.metric)
      (Telemetry.Registry.read r)
  in
  Alcotest.(check (list string))
    "registration order, histogram expands to three samples"
    [ "a"; "lat_ns.count"; "lat_ns.mean_ns"; "lat_ns.p95_ns"; "z" ]
    names;
  let find name =
    List.find
      (fun s -> s.Telemetry.Registry.metric = name)
      (Telemetry.Registry.read r)
  in
  Alcotest.(check (float 1e-9)) "count sample" 2.0 (find "lat_ns.count").value;
  Alcotest.(check (float 1.0))
    "mean sample" 200_000.0
    (find "lat_ns.mean_ns").value

(* --- Bus ---------------------------------------------------------------- *)

let bus_subscribe_order () =
  let bus = Telemetry.Bus.create () in
  let log = ref [] in
  ignore (Telemetry.Bus.subscribe bus (fun x -> log := ("a", x) :: !log));
  ignore (Telemetry.Bus.subscribe bus (fun x -> log := ("b", x) :: !log));
  Telemetry.Bus.publish bus 1;
  Alcotest.(check (list (pair string int)))
    "delivered in subscription order"
    [ ("a", 1); ("b", 1) ]
    (List.rev !log)

let bus_unsubscribe () =
  let bus = Telemetry.Bus.create () in
  let hits = ref 0 in
  let sub = Telemetry.Bus.subscribe bus (fun () -> incr hits) in
  ignore (Telemetry.Bus.subscribe bus (fun () -> incr hits));
  Telemetry.Bus.publish bus ();
  check_int "both fire" 2 !hits;
  Telemetry.Bus.unsubscribe bus sub;
  check_int "one subscriber left" 1 (Telemetry.Bus.subscribers bus);
  Telemetry.Bus.publish bus ();
  check_int "only the survivor fires" 3 !hits

let bus_unsubscribe_during_publish () =
  let bus = Telemetry.Bus.create () in
  let hits = ref 0 in
  let sub = ref None in
  (* First subscriber removes the second mid-publish; the second must
     still see the in-flight event (delivery list is snapshotted). *)
  ignore
    (Telemetry.Bus.subscribe bus (fun () ->
         match !sub with
         | Some s -> Telemetry.Bus.unsubscribe bus s
         | None -> ()));
  sub := Some (Telemetry.Bus.subscribe bus (fun () -> incr hits));
  Telemetry.Bus.publish bus ();
  check_int "in-flight delivery unaffected" 1 !hits;
  Telemetry.Bus.publish bus ();
  check_int "gone on the next publish" 1 !hits

let bus_publish_with_lazy () =
  let bus = Telemetry.Bus.create () in
  let built = ref 0 in
  let make () =
    incr built;
    !built
  in
  Telemetry.Bus.publish_with bus make;
  check_int "no subscriber, event never built" 0 !built;
  let seen = ref [] in
  ignore (Telemetry.Bus.subscribe bus (fun v -> seen := v :: !seen));
  Telemetry.Bus.publish_with bus make;
  check_int "subscriber present, event built once" 1 !built;
  Alcotest.(check (list int)) "delivered" [ 1 ] !seen

let bus_empty_publish_zero_alloc () =
  (* The per-packet contract behind the telemetry layer: publishing to a
     bus nobody subscribed to must not allocate at all. Gc.minor_words
     counts every minor-heap word this domain allocates, so a zero delta
     across 10k publishes is a proof, not a heuristic. *)
  let bus = Telemetry.Bus.create () in
  Telemetry.Bus.publish bus 42;
  (* warm up *)
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do
    Telemetry.Bus.publish bus i
  done;
  let words = Gc.minor_words () -. before in
  if words <> 0.0 then
    Alcotest.failf "empty-bus publish allocated %.0f minor words" words;
  (* publish_with with an allocating constructor: still nothing, because
     the constructor must not run. The closure is hoisted out of the
     loop — the datapath does the same with preallocated callbacks. *)
  let pair_bus = Telemetry.Bus.create () in
  let make () = Some 1 in
  Telemetry.Bus.publish_with pair_bus make;
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Telemetry.Bus.publish_with pair_bus make
  done;
  let words = Gc.minor_words () -. before in
  if words <> 0.0 then
    Alcotest.failf "empty-bus publish_with allocated %.0f minor words" words

(* --- Snapshot ----------------------------------------------------------- *)

let snapshot_cadence () =
  let engine = Des.Engine.create () in
  let r = Telemetry.Registry.create () in
  let c = Telemetry.Registry.counter r "work.done" in
  (* 7 ms does not divide 100 ms, so work ticks never tie with snapshot
     instants and the sampled values are unambiguous. *)
  ignore
    (Des.Timer.every engine ~period:(ms 7) (fun () ->
         Telemetry.Registry.Counter.incr c));
  let snap = Telemetry.Snapshot.start engine r ~interval:(ms 100) in
  Des.Engine.run ~until:(ms 350) engine;
  check_int "one snapshot per interval" 3 (Telemetry.Snapshot.snap_count snap);
  let rows = Telemetry.Snapshot.rows snap in
  check_int "one row per metric per snapshot" 3 (List.length rows);
  let values =
    List.map (fun row -> row.Telemetry.Snapshot.value) rows
  in
  Alcotest.(check (list (float 1e-9)))
    "counter sampled at 100ms cadence" [ 14.0; 28.0; 42.0 ] values;
  List.iteri
    (fun i row ->
      check_int
        (Fmt.str "row %d timestamp" i)
        ((i + 1) * ms 100)
        row.Telemetry.Snapshot.at)
    rows;
  Telemetry.Snapshot.stop snap;
  Des.Engine.run ~until:(ms 600) engine;
  check_int "no snapshots after stop" 3 (Telemetry.Snapshot.snap_count snap)

let snapshot_manual_snap_and_series () =
  let engine = Des.Engine.create () in
  let r = Telemetry.Registry.create () in
  let c = Telemetry.Registry.counter r "n" in
  let snap = Telemetry.Snapshot.start engine r ~interval:(ms 100) in
  ignore
    (Des.Engine.schedule engine ~at:(ms 50) (fun () ->
         Telemetry.Registry.Counter.add c 7;
         Telemetry.Snapshot.snap snap));
  Des.Engine.run ~until:(ms 250) engine;
  check_int "2 periodic + 1 manual" 3 (Telemetry.Snapshot.snap_count snap);
  let at_50 =
    List.find
      (fun row -> row.Telemetry.Snapshot.at = ms 50)
      (Telemetry.Snapshot.rows snap)
  in
  Alcotest.(check (float 1e-9))
    "manual snapshot caught the value" 7.0 at_50.Telemetry.Snapshot.value;
  (* The row stream is the metric's series: one reading per snapshot,
     manual and periodic interleaved in time order. *)
  let series =
    List.filter_map
      (fun (row : Telemetry.Snapshot.row) ->
        if row.metric = "n" then Some (row.at, row.value) else None)
      (Telemetry.Snapshot.rows snap)
  in
  check_bool "series holds every reading in time order" true
    (series = [ (ms 50, 7.0); (ms 100, 7.0); (ms 200, 7.0) ])

(* --- Balancer integration ---------------------------------------------- *)

let vip = Netsim.Addr.v 1 80

let balancer_counters_match_bus () =
  let engine = Des.Engine.create () in
  let fabric = Netsim.Fabric.create engine in
  let n = 3 in
  let server_ips = Array.init n (fun i -> 10 + i) in
  let registry = Telemetry.Registry.create () in
  let balancer =
    Inband.Balancer.create fabric ~vip ~server_ips ~table_size:1021
      ~telemetry:registry ()
  in
  Array.iter
    (fun ip ->
      Netsim.Fabric.register fabric ~ip (fun _ -> ());
      Netsim.Fabric.add_link fabric ~src:1 ~dst:ip
        (Netsim.Link.create engine ~delay:(us 10) ()))
    server_ips;
  Netsim.Fabric.register fabric ~ip:100 (fun _ -> ());
  Netsim.Fabric.add_link fabric ~src:100 ~dst:1
    (Netsim.Link.create engine ~delay:(us 10) ());
  (* Count routed packets per server independently through the bus. *)
  let routed = Array.make n 0 in
  ignore
    (Telemetry.Bus.subscribe
       (Inband.Balancer.routed_bus balancer)
       (fun (ev : Inband.Balancer.routed_event) ->
         routed.(ev.server) <- routed.(ev.server) + 1));
  for port = 1 to 12 do
    for _ = 1 to port do
      Netsim.Fabric.send fabric ~from:100
        (Netsim.Packet.make
           ~src:(Netsim.Addr.v 100 port)
           ~dst:vip ~seq:0 ~ack:0 ~flags:Netsim.Packet.flag_ack ~payload:"p")
    done
  done;
  Des.Engine.run ~until:(Des.Time.sec 1) engine;
  let total = 12 * 13 / 2 in
  check_int "all packets forwarded" total
    (Inband.Balancer.packets_forwarded balancer);
  check_int "bus total matches" total (Array.fold_left ( + ) 0 routed);
  for i = 0 to n - 1 do
    check_int
      (Fmt.str "server %d: registry counter = bus count" i)
      routed.(i)
      (Inband.Balancer.packets_to balancer i);
    Alcotest.(check (option (float 1e-9)))
      (Fmt.str "server %d: shared registry sees it" i)
      (Some (float_of_int routed.(i)))
      (Telemetry.Registry.value registry ~index:i "lb.pkts_to")
  done;
  check_bool "flows registered" true
    (Telemetry.Registry.value registry ~index:0 "lb.flows_to" <> None)

let () =
  Alcotest.run "telemetry"
    [
      ( "registry",
        [
          Alcotest.test_case "counters and gauges" `Quick
            registry_counters_and_gauges;
          Alcotest.test_case "indexed metrics" `Quick registry_indexed_metrics;
          Alcotest.test_case "duplicate name" `Quick
            registry_duplicate_name_raises;
          Alcotest.test_case "read order + histograms" `Quick
            registry_read_order_and_histograms;
        ] );
      ( "bus",
        [
          Alcotest.test_case "subscription order" `Quick bus_subscribe_order;
          Alcotest.test_case "unsubscribe" `Quick bus_unsubscribe;
          Alcotest.test_case "unsubscribe mid-publish" `Quick
            bus_unsubscribe_during_publish;
          Alcotest.test_case "publish_with is lazy" `Quick bus_publish_with_lazy;
          Alcotest.test_case "empty publish allocates nothing" `Quick
            bus_empty_publish_zero_alloc;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "periodic cadence" `Quick snapshot_cadence;
          Alcotest.test_case "manual snap + series" `Quick
            snapshot_manual_snap_and_series;
        ] );
      ( "balancer",
        [
          Alcotest.test_case "registry matches bus" `Quick
            balancer_counters_match_bus;
        ] );
    ]
