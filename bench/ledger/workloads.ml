(* The four ledger workloads, each driven through its library's public
   entry points. One call of [run] is one repetition: it builds the
   system, runs the timed phase, and reads the simulated outcome and
   the per-layer counts afterwards, so nothing but the simulation itself
   sits inside the timed interval. *)

type rep = {
  setup_s : float;  (** Host time from the build call to the first event. *)
  wall_s : float;  (** Host time of the timed phase. *)
  words_per_flow : float;
  digest : string;
      (** The simulated outcome; equal across repetitions of a seed. *)
  counts : (string * float) list;
      (** Per-layer work counts, read through public accessors. *)
}

let now = Unix.gettimeofday

(* Minor and promoted words, and major collections, over an interval. *)
let gc_delta (g0 : Gc.stat) (g1 : Gc.stat) ~events =
  let per_event w = w /. float_of_int (Stdlib.max 1 events) in
  [
    ("gc.minor_words_per_event", per_event (g1.minor_words -. g0.minor_words));
    ( "gc.promoted_words_per_event",
      per_event (g1.promoted_words -. g0.promoted_words) );
    ( "gc.major_collections",
      float_of_int (g1.major_collections - g0.major_collections) );
  ]

let shard_counts ?(stall = 0.0) (stats : Des.Shard.stats) =
  [
    ("des.shard.windows", float_of_int stats.windows);
    ("des.shard.remote_posts", float_of_int stats.remote_posts);
    ("des.shard.stall_s", stall);
  ]

(* --- Scenario workloads (fig3, control-heavy) -------------------------- *)

type scenario = {
  config : Cluster.Scenario.config;
  duration : Des.Time.t;
  inject : (int * Des.Time.t * Des.Time.t) option;
      (** (server, at, extra delay) on the LB→server link. *)
}

(* The read-only sampler of the traced run: every 100 ms of simulated
   time it records host time, minor words and events fired. Its own
   firings are subtracted from the event count, so the traced digest
   must still equal the untraced ones. *)
let sampler_period = Des.Time.ms 100

let install_sampler engine ~until spans =
  let fired = ref 0 in
  let rec tick at () =
    incr fired;
    Spans.sample spans ~name:"sampler"
      [
        ("sim_s", Des.Time.to_float_s at);
        ("minor_words", Gc.minor_words ());
        ("events", float_of_int (Des.Engine.events_fired engine - !fired));
      ];
    let next = at + sampler_period in
    if next <= until then Des.Engine.post engine ~at:next (tick next)
  in
  Des.Engine.post engine ~at:sampler_period (tick sampler_period);
  fired

let sum_over n f =
  let acc = ref 0 in
  for i = 0 to n - 1 do
    acc := !acc + f i
  done;
  !acc

(* Every link of the DSR topology: client→LB, LB→server and the
   server→client return legs (Scenario's IP plan: servers 10.., clients
   100..). *)
let link_packets s (config : Cluster.Scenario.config) =
  let fabric = Cluster.Scenario.fabric s in
  let sent l = Netsim.Link.packets_sent l in
  let forward =
    sum_over config.n_servers (fun i ->
        sent (Cluster.Scenario.lb_server_link s i))
  in
  let requests =
    sum_over config.n_clients (fun j ->
        sent (Cluster.Scenario.client_lb_link s j))
  in
  let returns =
    sum_over config.n_servers (fun i ->
        sum_over config.n_clients (fun j ->
            sent
              (Netsim.Fabric.link_between fabric ~src:(10 + i) ~dst:(100 + j))))
  in
  (forward + requests + returns, requests + returns)

let build spec =
  let s = Cluster.Scenario.build spec.config in
  Option.iter
    (fun (server, at, delay) ->
      Cluster.Scenario.inject_server_delay s ~server ~at ~delay)
    spec.inject;
  s

(* Set-up alone, [k] times: the build is a few tens of milliseconds, so
   a handful of extra samples steadies the set-up median cheaply. *)
let setup_samples spec ~k =
  List.init k (fun _ ->
      Gc.compact ();
      let t0 = now () in
      let s = build spec in
      let dt = now () -. t0 in
      Cluster.Scenario.shutdown s;
      dt)

(* Heap words per flow are measured against the flows a workload keeps
   open at once: here every client's persistent connection slots. *)
let concurrent_flows (config : Cluster.Scenario.config) =
  config.n_clients * config.memtier.connections

let run_scenario spec ~spans =
  let span name f =
    match spans with Some sp -> Spans.span sp ~name f | None -> f ()
  in
  Gc.compact ();
  let base_live = (Gc.stat ()).live_words in
  let t0 = now () in
  let s = span "build" (fun () -> build spec) in
  let engine = Cluster.Scenario.engine s in
  let sampled =
    match spans with
    | Some sp -> install_sampler engine ~until:spec.duration sp
    | None -> ref 0
  in
  let t1 = now () in
  let g0 = Gc.quick_stat () in
  span "run" (fun () -> Cluster.Scenario.run s ~until:spec.duration);
  let t2 = now () in
  let g1 = Gc.quick_stat () in
  let events = Des.Engine.events_fired engine - !sampled in
  let b = Cluster.Scenario.balancer s in
  let pool = Inband.Balancer.pool b in
  let clients = Cluster.Scenario.clients s in
  let responses =
    Array.fold_left
      (fun acc c -> acc + Workload.Memtier.responses_received c)
      0 clients
  in
  let requests =
    Array.fold_left
      (fun acc c -> acc + Workload.Memtier.requests_sent c)
      0 clients
  in
  let p95 =
    match Cluster.Scenario.histogram s "client.latency_get_ns" with
    | Some h -> Stats.Histogram.quantile h 0.95
    | None -> -1
  in
  let actions =
    match Inband.Balancer.controller b with
    | Some c -> Inband.Controller.action_count c
    | None -> 0
  in
  let rebuilds = Maglev.Pool.rebuilds pool in
  let flows =
    sum_over (Inband.Balancer.n_servers b)
      (Inband.Balancer.flows_assigned_to b)
  in
  let forwarded = Inband.Balancer.packets_forwarded b in
  let link_pkts, segments = link_packets s spec.config in
  Gc.full_major ();
  let live = (Gc.stat ()).live_words - base_live in
  let digest =
    Fmt.str "responses=%d get_p95_ns=%d actions=%d rebuilds=%d events=%d"
      responses p95 actions rebuilds events
  in
  let counts =
    [
      ("des.events", float_of_int events);
      ("netsim.link_pkts", float_of_int link_pkts);
      ("tcpsim.segments", float_of_int segments);
      ("inband.pkts_forwarded", float_of_int forwarded);
      ("inband.flows_opened", float_of_int flows);
      ("inband.samples", float_of_int (Inband.Balancer.samples_produced b));
      ("inband.ctl_actions", float_of_int actions);
      ("maglev.rebuilds", float_of_int rebuilds);
      ("memcache.requests", float_of_int requests);
      ("memcache.responses", float_of_int responses);
    ]
    @ gc_delta g0 g1 ~events
    @ shard_counts (Cluster.Scenario.shard_stats s)
  in
  Cluster.Scenario.shutdown s;
  {
    setup_s = t1 -. t0;
    wall_s = t2 -. t1;
    words_per_flow =
      float_of_int live /. float_of_int (concurrent_flows spec.config);
    digest;
    counts;
  }

(* --- Flow-scale churn (flows, flows-k2) -------------------------------- *)

(* [Sharded.flows] is one call; its phases are visible only through the
   durations it returns, so set-up is the outer call minus the timed
   phase and the forced full major (which includes the final shutdown),
   and the flows-only counts follow from the workload's definition:
   every send crosses client→LB and LB→server, every response
   server→client, and each flow index opens one key per 8 sends. *)
let run_flows ~shards ~n ~seed ~spans =
  let g0 = Gc.quick_stat () in
  let t0 = now () in
  let r =
    match spans with
    | Some sp ->
        Spans.span sp ~name:"flows" (fun () ->
            Cluster.Sharded.flows ~shards ~seed ~n ())
    | None -> Cluster.Sharded.flows ~shards ~seed ~n ()
  in
  let outer = now () -. t0 in
  let g1 = Gc.quick_stat () in
  let sends = Cluster.Sharded.rounds * n in
  let opened = n * ((Cluster.Sharded.rounds + 7) / 8) in
  let stall = Array.fold_left Float.max 0.0 r.stats.stall_seconds in
  Option.iter
    (fun sp ->
      Spans.sample sp ~name:"flows.phases"
        [
          ("wall_s", r.wall_s);
          ("full_major_s", r.full_major_s);
          ("setup_s", outer -. r.wall_s -. r.full_major_s);
        ])
    spans;
  let counts =
    [
      ("des.events", float_of_int r.events);
      ("netsim.link_pkts", float_of_int ((2 * sends) + r.responses));
      ("tcpsim.segments", 0.0);
      ("inband.pkts_forwarded", float_of_int sends);
      ("inband.flows_opened", float_of_int opened);
      (* Sharded.flows keeps its balancers private: samples are not
         observable from outside, and its static Maglev never acts. *)
      ("inband.samples", 0.0);
      ("inband.ctl_actions", 0.0);
      ("maglev.rebuilds", 0.0);
      ("memcache.requests", 0.0);
      ("memcache.responses", 0.0);
    ]
    @ gc_delta g0 g1 ~events:r.events
    @ shard_counts ~stall r.stats
  in
  {
    setup_s = outer -. r.wall_s -. r.full_major_s;
    wall_s = r.wall_s;
    words_per_flow = r.words_per_flow;
    digest = r.csv;
    counts;
  }

(* --- The workloads ------------------------------------------------------ *)

(* [Smoke] shrinks every workload to a fraction of a second for the
   runtest rule; [Full] is the ledger's definition. *)
type size = Full | Smoke

(* Seeds: [--seed 0] gives each workload the seed its definition names
   (0xfeed for the scenarios, 0 for flows); others perturb it. *)
let scenario_seed seed = 0xfeed lxor seed

let fig3 ~size ~seed =
  let duration, inject_at =
    match size with
    | Full -> (Des.Time.sec 20, Des.Time.sec 5)
    | Smoke -> (Des.Time.ms 600, Des.Time.ms 200)
  in
  {
    config =
      {
        Cluster.Fig3.default_scenario with
        Cluster.Scenario.policy = Inband.Policy.Latency_aware;
        seed = scenario_seed seed;
      };
    duration;
    inject = Some (1, inject_at, Des.Time.ms 1);
  }

(* The paper-exact controller (threshold 1.0, 1 ms interval) on the
   production table size, with server 0 stalling as under [lbsim run
   --interfere 0] (1-2 ms every ~4 ms). Two departures keep its cost
   from swinging with the seed: connections persist (no reconnects),
   and the controller's recovery drift (5/s) pulls the weights back
   after every shift, so it commits — and rebuilds the 65537-slot table
   — in nearly every 1 ms interval. With reconnects and no drift the
   action count varies 6x across seeds. *)
let control_heavy ~size ~seed =
  {
    config =
      {
        Cluster.Scenario.default_config with
        Cluster.Scenario.policy = Inband.Policy.Latency_aware;
        n_servers = 8;
        n_clients = 4;
        table_size = 65537;
        lb = { Inband.Config.default with Inband.Config.recovery_rate = 5.0 };
        memtier =
          { Workload.Memtier.default_config with requests_per_conn = 0 };
        interference =
          [
            ( 0,
              Stats.Dist.Exponential { mean = 4.0e6 },
              Stats.Dist.Uniform { lo = 1.0e6; hi = 2.0e6 } );
          ];
        seed = scenario_seed seed;
      };
    duration =
      (match size with Full -> Des.Time.sec 1 | Smoke -> Des.Time.ms 50);
    inject = None;
  }

let flows_n = function Full -> 1 lsl 17 | Smoke -> 1 lsl 10

type t = {
  name : string;
  shards : int;  (** Domains the timed phase runs on. *)
  rebuild : (int * int) option;
      (** (table size, servers) of the Maglev table its controller
          rebuilds, if it has one. *)
  warmup : size:size -> seed:int -> rep;
      (** The discarded first repetition; its digest is the reference
          every later repetition must reproduce. *)
  run : size:size -> seed:int -> spans:Spans.t option -> rep;
  extra_setups : size:size -> seed:int -> float list;
      (** Set-up times measured apart from the repetitions. *)
}

let scenario name spec ~table =
  let run ~size ~seed ~spans = run_scenario (spec ~size ~seed) ~spans in
  {
    name;
    shards = 1;
    rebuild = Some table;
    warmup = (fun ~size ~seed -> run ~size ~seed ~spans:None);
    run;
    extra_setups = (fun ~size ~seed -> setup_samples (spec ~size ~seed) ~k:20);
  }

let flows ~shards ~size ~seed ~spans =
  run_flows ~shards ~n:(flows_n size) ~seed ~spans

(* Why these four: fig3 is the paper's experiment and runs the whole
   per-request stack; flows is the datapath alone, where tcpsim,
   memcache and the controller do no work; flows-k2 is the only one
   where shard windows, barriers and inboxes work; control-heavy writes
   the Maglev table, which the others mostly read. README.md has more. *)
let all =
  [
    scenario "fig3" fig3 ~table:(4099, 2);
    {
      name = "flows";
      shards = 1;
      rebuild = None;
      warmup = (fun ~size ~seed -> flows ~shards:1 ~size ~seed ~spans:None);
      run = flows ~shards:1;
      extra_setups = (fun ~size:_ ~seed:_ -> []);
    };
    {
      name = "flows-k2";
      shards = 2;
      rebuild = None;
      (* The 1-shard run is the reference the 2-shard CSV must equal. *)
      warmup = (fun ~size ~seed -> flows ~shards:1 ~size ~seed ~spans:None);
      run = flows ~shards:2;
      extra_setups = (fun ~size:_ ~seed:_ -> []);
    };
    scenario "control-heavy" control_heavy ~table:(65537, 8);
  ]

let find name = List.find_opt (fun w -> w.name = name) all
