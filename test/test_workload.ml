(* Tests for the workload substrate: keyspace, latency log, memtier. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Keyspace ------------------------------------------------------------ *)

let keyspace_key_format () =
  let rng = Des.Rng.create ~seed:1 in
  let ks =
    Workload.Keyspace.create ~count:10 ~dist:Workload.Keyspace.Uniform ~rng ()
  in
  Alcotest.(check string) "format" "memtier-00000003" (Workload.Keyspace.key_of ks 3);
  check_int "count" 10 (Workload.Keyspace.count ks)

let keyspace_prefix () =
  let rng = Des.Rng.create ~seed:1 in
  let ks =
    Workload.Keyspace.create ~prefix:"x:" ~count:5 ~dist:Workload.Keyspace.Uniform
      ~rng ()
  in
  Alcotest.(check string) "custom prefix" "x:00000000" (Workload.Keyspace.key_of ks 0)

let keyspace_uniform_covers () =
  let rng = Des.Rng.create ~seed:2 in
  let ks =
    Workload.Keyspace.create ~count:50 ~dist:Workload.Keyspace.Uniform ~rng ()
  in
  let seen = Hashtbl.create 64 in
  for _ = 1 to 5_000 do
    Hashtbl.replace seen (Workload.Keyspace.sample_index ks) ()
  done;
  check_bool "covers nearly all keys" true (Hashtbl.length seen >= 48)

let keyspace_zipf_skews () =
  let rng = Des.Rng.create ~seed:3 in
  let ks =
    Workload.Keyspace.create ~count:1000 ~dist:(Workload.Keyspace.Zipf 1.0) ~rng ()
  in
  let head = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Workload.Keyspace.sample_index ks < 10 then incr head
  done;
  (* Under Zipf(1.0) over 1000 keys the top 10 keys carry ~39% of mass;
     uniform would give 1%. *)
  let fraction = float_of_int !head /. float_of_int n in
  check_bool (Fmt.str "head fraction %.3f > 0.3" fraction) true (fraction > 0.3)

let keyspace_zipf_indices_in_range () =
  let rng = Des.Rng.create ~seed:4 in
  let ks =
    Workload.Keyspace.create ~count:17 ~dist:(Workload.Keyspace.Zipf 0.9) ~rng ()
  in
  for _ = 1 to 2_000 do
    let i = Workload.Keyspace.sample_index ks in
    if i < 0 || i >= 17 then Alcotest.failf "index out of range: %d" i
  done

let keyspace_name_matches_format =
  (* The hand-written name is the [%s%08d] rendering, past 8 digits
     too, for the default and a custom prefix. *)
  let fixed = [ 0; 9; 10; 99_999_999; 123_456_789 ] in
  QCheck.Test.make ~count:500 ~name:"key names equal Fmt %s%08d"
    QCheck.(pair (int_bound 999_999_999) (oneofl [ "memtier-"; "x:"; "" ]))
    (fun (i, prefix) ->
      List.for_all
        (fun i ->
          String.equal (Workload.Keyspace.name ~prefix i)
            (Fmt.str "%s%08d" prefix i))
        (i :: fixed))

let keyspace_rejects_zero () =
  let rng = Des.Rng.create ~seed:5 in
  Alcotest.check_raises "count 0" (Invalid_argument "Keyspace.create: count")
    (fun () ->
      ignore
        (Workload.Keyspace.create ~count:0 ~dist:Workload.Keyspace.Uniform ~rng ()))

(* --- Latency_log ----------------------------------------------------------- *)

let latency_log_records () =
  let engine = Des.Engine.create () in
  let log = Workload.Latency_log.create engine ~bucket:(Des.Time.ms 10) () in
  ignore
    (Des.Engine.schedule engine ~at:(Des.Time.ms 5) (fun () ->
         Workload.Latency_log.record log ~op:Workload.Latency_log.Get
           ~latency:(Des.Time.us 100);
         Workload.Latency_log.record log ~op:Workload.Latency_log.Set
           ~latency:(Des.Time.us 200)));
  ignore
    (Des.Engine.schedule engine ~at:(Des.Time.ms 15) (fun () ->
         Workload.Latency_log.record log ~op:Workload.Latency_log.Get
           ~latency:(Des.Time.us 300)));
  Des.Engine.run engine;
  check_int "count" 3 (Workload.Latency_log.count log);
  check_int "get hist" 2
    (Stats.Histogram.count (Workload.Latency_log.hist log Workload.Latency_log.Get));
  check_int "set hist" 1
    (Stats.Histogram.count (Workload.Latency_log.hist log Workload.Latency_log.Set));
  let rows = Workload.Latency_log.series log ~op:Workload.Latency_log.Get ~q:0.5 in
  check_int "two get buckets" 2 (List.length rows)

(* --- Memtier over a scenario ------------------------------------------------- *)

let scenario_config =
  {
    Cluster.Scenario.default_config with
    Cluster.Scenario.memtier =
      {
        Workload.Memtier.default_config with
        Workload.Memtier.connections = 2;
        pipeline = 2;
        requests_per_conn = 50;
      };
  }

let memtier_closed_loop_progress () =
  let s = Cluster.Scenario.build scenario_config in
  Cluster.Scenario.run s ~until:(Des.Time.sec 1);
  let client = (Cluster.Scenario.clients s).(0) in
  check_bool "sent thousands" true (Workload.Memtier.requests_sent client > 1_000);
  check_int "every response matched"
    (Workload.Latency_log.count (Cluster.Scenario.log s))
    (Workload.Memtier.responses_received client);
  check_int "no protocol errors" 0 (Workload.Memtier.protocol_errors client);
  (* Closed loop: outstanding = sent - received is bounded by
     connections * pipeline. *)
  let outstanding =
    Workload.Memtier.requests_sent client
    - Workload.Memtier.responses_received client
  in
  check_bool "outstanding bounded" true (outstanding <= 2 * 2)

let memtier_reconnects () =
  let s = Cluster.Scenario.build scenario_config in
  Cluster.Scenario.run s ~until:(Des.Time.sec 1);
  let client = (Cluster.Scenario.clients s).(0) in
  (* 50 requests per conn, thousands of requests: many reconnects, and
     the LB sees a fresh flow for each. *)
  check_bool "reconnected many times" true (Workload.Memtier.reconnects client > 10);
  let balancer = Cluster.Scenario.balancer s in
  let flows =
    Inband.Balancer.flows_assigned_to balancer 0
    + Inband.Balancer.flows_assigned_to balancer 1
  in
  check_bool "each reconnect created a flow" true
    (flows >= Workload.Memtier.reconnects client)

let memtier_stop_is_clean () =
  let s = Cluster.Scenario.build scenario_config in
  (* Scenario.run stops clients at the end; draining a little further
     must close every connection. *)
  Cluster.Scenario.run s ~until:(Des.Time.sec 1);
  Des.Engine.run ~until:(Des.Time.sec 3) (Cluster.Scenario.engine s);
  let client = (Cluster.Scenario.clients s).(0) in
  check_bool "no more requests issued after stop" true
    (Workload.Memtier.requests_sent client
    - Workload.Memtier.responses_received client
    <= 4)

let memtier_mix_roughly_half_gets () =
  let s = Cluster.Scenario.build scenario_config in
  Cluster.Scenario.run s ~until:(Des.Time.sec 1);
  let log = Cluster.Scenario.log s in
  let gets =
    Stats.Histogram.count (Workload.Latency_log.hist log Workload.Latency_log.Get)
  in
  let sets =
    Stats.Histogram.count (Workload.Latency_log.hist log Workload.Latency_log.Set)
  in
  let total = gets + sets in
  let ratio = float_of_int gets /. float_of_int total in
  check_bool (Fmt.str "get ratio %.3f around 0.5" ratio) true
    (ratio > 0.45 && ratio < 0.55)

let memtier_latencies_sane () =
  let s = Cluster.Scenario.build scenario_config in
  Cluster.Scenario.run s ~until:(Des.Time.sec 1);
  let hist =
    Workload.Latency_log.hist (Cluster.Scenario.log s) Workload.Latency_log.Get
  in
  (* Network RTT ~170us components + ~50us service: latencies live in
     (100us, 50ms). *)
  check_bool "min above propagation floor" true
    (Stats.Histogram.min_value hist > Des.Time.us 100);
  check_bool "p50 below 1ms" true
    (Stats.Histogram.quantile hist 0.5 < Des.Time.ms 1)

(* --- Pathology ----------------------------------------------------------- *)

(* A pathology client attacking the scenario's VIP through the LB, with
   ordinary memtier load sharing the cluster. *)
let attack ?(until = Des.Time.sec 2) kind connections =
  let s = Cluster.Scenario.build scenario_config in
  let p =
    Workload.Pathology.create (Cluster.Scenario.fabric s) ~host_ip:200
      ~vip:(Cluster.Scenario.vip s)
      ~config:
        { Workload.Pathology.default_config with kind; connections }
      ~rng:(Des.Rng.create ~seed:7) ()
  in
  (* The endpoint registers host 200; links can only be wired after. *)
  Cluster.Scenario.wire_client_host s ~host_ip:200;
  Workload.Pathology.start p;
  Cluster.Scenario.run s ~until;
  (s, p)

let pathology_slowloris_trickles () =
  let s, p = attack (Workload.Pathology.Slowloris { drip = Des.Time.ms 1 }) 2 in
  check_bool "dripped bytes" true (Workload.Pathology.bytes_trickled p > 1_000);
  check_bool "requests eventually complete" true
    (Workload.Pathology.requests_sent p > 0);
  check_bool "service stayed alive" true
    (Workload.Latency_log.count (Cluster.Scenario.log s) > 1_000)

let pathology_burst_is_open_loop () =
  let _s, p =
    attack
      (Workload.Pathology.Pipeline_burst { burst = 16; gap = Des.Time.ms 10 })
      2
  in
  (* ~2 conns x 16 req x 200 gaps, minus ramp: clearly open loop. *)
  check_bool "thousands of requests" true
    (Workload.Pathology.requests_sent p > 2_000)

let pathology_storm_churns () =
  let _s, p =
    attack (Workload.Pathology.Reconnect_storm { hold = Des.Time.ms 5 }) 2
  in
  check_bool "hundreds of opens" true (Workload.Pathology.conns_opened p > 100);
  (* Aborted connections must not pile up on the attacker either. *)
  check_bool "client table bounded" true
    (Tcpsim.Endpoint.active_connections (Workload.Pathology.endpoint p) <= 8)

let pathology_gap_flood_hits_cap () =
  let s, p =
    attack
      (Workload.Pathology.Gap_flood
         { rate = Des.Time.us 500; segment = 256 })
      1
  in
  check_bool "flooded" true (Workload.Pathology.gap_segments p > 1_000);
  let servers = Cluster.Scenario.servers s in
  let drops =
    Array.fold_left
      (fun acc srv ->
        acc + Tcpsim.Endpoint.reasm_drops (Memcache.Server.endpoint srv))
      0 servers
  in
  check_bool "reassembly cap engaged" true (drops > 0);
  (* One flooding connection: the victim buffers at most one cap. *)
  Array.iter
    (fun srv ->
      check_bool "pending under cap" true
        (Tcpsim.Endpoint.reasm_pending (Memcache.Server.endpoint srv)
        <= 262_144))
    servers

let pathology_rst_flood_is_harmless () =
  let s, p = attack (Workload.Pathology.Rst_flood { rate = Des.Time.us 500 }) 1 in
  check_bool "flooded" true (Workload.Pathology.rsts_sent p > 1_000);
  (* The resets churn the balancer's admit path but wedge nothing. *)
  Array.iter
    (fun srv ->
      check_bool "server table small" true
        (Tcpsim.Endpoint.active_connections (Memcache.Server.endpoint srv) < 32))
    (Cluster.Scenario.servers s);
  check_bool "service stayed alive" true
    (Workload.Latency_log.count (Cluster.Scenario.log s) > 1_000)

(* Graceful degradation under any attack at any intensity: datapath
   memory stays bounded on every host and the cluster keeps serving the
   well-behaved clients. *)
let pathology_qcheck_graceful =
  QCheck.Test.make ~count:8
    ~name:"any pathology leaves memory bounded and the service alive"
    QCheck.(pair (int_bound 4) (int_bound 1000))
    (fun (which, seed) ->
      let rng = Des.Rng.create ~seed:(seed + 11) in
      let param lo hi = lo + Des.Rng.int rng (hi - lo + 1) in
      let kind =
        match which with
        | 0 ->
            Workload.Pathology.Slowloris
              { drip = Des.Time.us (param 200 5_000) }
        | 1 ->
            Workload.Pathology.Pipeline_burst
              { burst = param 1 64; gap = Des.Time.us (param 500 20_000) }
        | 2 ->
            Workload.Pathology.Reconnect_storm
              { hold = Des.Time.us (param 200 20_000) }
        | 3 ->
            Workload.Pathology.Gap_flood
              { rate = Des.Time.us (param 200 5_000);
                segment = param 16 1_024 }
        | _ -> Workload.Pathology.Rst_flood { rate = Des.Time.us (param 200 5_000) }
      in
      let connections = param 1 4 in
      let s, p = attack ~until:(Des.Time.sec 1) kind connections in
      let bounded ep =
        Tcpsim.Endpoint.reasm_pending ep <= connections * 262_144
        && Tcpsim.Endpoint.send_backlog ep <= 2_000_000
      in
      let servers_ok =
        Array.for_all
          (fun srv -> bounded (Memcache.Server.endpoint srv))
          (Cluster.Scenario.servers s)
      in
      let attacker_ok = bounded (Workload.Pathology.endpoint p) in
      let alive = Workload.Latency_log.count (Cluster.Scenario.log s) > 0 in
      Workload.Pathology.stop p;
      Cluster.Scenario.run s ~until:(Des.Time.ms 1_500);
      servers_ok && attacker_ok && alive)

let () =
  Alcotest.run "workload"
    [
      ( "keyspace",
        [
          Alcotest.test_case "key format" `Quick keyspace_key_format;
          Alcotest.test_case "prefix" `Quick keyspace_prefix;
          Alcotest.test_case "uniform covers" `Quick keyspace_uniform_covers;
          Alcotest.test_case "zipf skews" `Quick keyspace_zipf_skews;
          Alcotest.test_case "zipf in range" `Quick keyspace_zipf_indices_in_range;
          Alcotest.test_case "rejects zero" `Quick keyspace_rejects_zero;
          QCheck_alcotest.to_alcotest keyspace_name_matches_format;
        ] );
      ( "latency_log",
        [ Alcotest.test_case "records" `Quick latency_log_records ] );
      ( "memtier",
        [
          Alcotest.test_case "closed loop progress" `Quick
            memtier_closed_loop_progress;
          Alcotest.test_case "reconnects" `Quick memtier_reconnects;
          Alcotest.test_case "clean stop" `Quick memtier_stop_is_clean;
          Alcotest.test_case "50-50 mix" `Quick memtier_mix_roughly_half_gets;
          Alcotest.test_case "latencies sane" `Quick memtier_latencies_sane;
        ] );
      ( "pathology",
        [
          Alcotest.test_case "slowloris trickles" `Quick
            pathology_slowloris_trickles;
          Alcotest.test_case "burst is open loop" `Quick
            pathology_burst_is_open_loop;
          Alcotest.test_case "storm churns" `Quick pathology_storm_churns;
          Alcotest.test_case "gap flood hits cap" `Quick
            pathology_gap_flood_hits_cap;
          Alcotest.test_case "rst flood harmless" `Quick
            pathology_rst_flood_is_harmless;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ pathology_qcheck_graceful ] );
    ]
