(** The paper's evaluation testbed (§4), simulated.

    Builds a cluster of memtier-style clients, [n_lbs] load balancers
    each owning a service VIP, and N memcached servers, wired with DSR
    routing: client→LB and LB→server links carry requests,
    per-(server, client) links carry responses directly back. Exposes
    the LB→server links so experiments can inject the paper's 1 ms
    delay.

    A fleet ([n_lbs > 1], §5 Q4) shares one server pool: LB [l] owns
    VIP [1 + l] with its own estimator, controller and telemetry
    registry, client [j] uses LB [j mod n_lbs], and servers accept the
    service port on any address. [coord] optionally couples the LBs'
    controllers over a simulated {!Coordination} plane. At [n_lbs = 1]
    the build is the single-balancer cluster.

    With [shards > 1] the cluster is partitioned across K engine shards
    run by {!Des.Shard}: the balancers, servers, controllers, control
    plane and fault injector stay together on shard 0, clients spread
    round-robin over shards 1..K-1, and the lookahead bound is derived
    from the cut link set (client→LB and server→client legs). Fleets
    shard like any other cluster. Simulation outcomes are
    invariant in [shards] — figure tables are byte-identical at any K —
    because cross-shard packet legs preserve exact arrival times
    (DESIGN.md §14–15). Telemetry is per-shard; use the merged readers
    ({!metric_value}, {!metric_sum}, {!series}, {!histogram},
    {!snap_rows}) instead of poking a single registry. *)

type config = {
  n_lbs : int;
      (** Load balancers over the one server pool, 1..{!max_lbs}. *)
  n_servers : int;
  n_clients : int;
  policy : Inband.Policy.t;
  lb : Inband.Config.t;  (** Every LB's configuration. *)
  coord : Coordination.config;
      (** The fleet's control plane; inert when uncoordinated (the
          default). Any other policy needs the latency-aware policy. *)
  table_size : int;
  client_lb_delay : Des.Time.t;  (** One-way, request path hop 1. *)
  client_delay_overrides : (int * Des.Time.t) list;
      (** Per-client one-way client→LB delay overrides — "far,
          non-equidistant clients" (§5 Q1). The same extra distance is
          applied to the client's DSR return paths so the whole RTT
          moves. *)
  lb_server_delay : Des.Time.t;  (** One-way, request path hop 2. *)
  server_client_delay : Des.Time.t;  (** One-way, DSR return path. *)
  return_jitter : Stats.Dist.t option;
      (** Extra per-packet delay on the return path (ns), modelling
          kernel/NIC variability; [None] = deterministic. *)
  link_rate_bps : int;
  server : Memcache.Server.config;
  server_overrides : (int * Memcache.Server.config) list;
      (** Per-server config overrides, e.g. a persistently slower
          service distribution for one replica. *)
  interference : (int * Stats.Dist.t * Stats.Dist.t) list;
      (** Per-server interference processes: (server index, gap dist,
          pause-duration dist), both in ns — §2.2's preemption/GC
          stalls. *)
  memtier : Workload.Memtier.config;
  memtier_overrides : (int * Workload.Memtier.config) list;
      (** Per-client workload overrides — e.g. a mostly-persistent
          fleet with a couple of churning clients that keep every
          backend's in-band estimate fresh (the remap frontier's
          mix). *)
  key_count : int;
  key_dist : Workload.Keyspace.dist;
  preload_value_size : int;
  latency_bucket : Des.Time.t;  (** Time-series bucket for the log. *)
  metrics_interval : Des.Time.t;
      (** Telemetry snapshot period (default 500 ms). *)
  seed : int;
  shards : int;
      (** Engine shards (default 1, the historical single-engine run).
          Results are invariant in this; only wall-clock and the
          [shard.*] health metrics change. *)
}

val max_lbs : int
(** 9: the IP plan's room for VIPs ([1 + l]) below the servers (10+). *)

val default_config : config
(** One LB, two servers (the paper's setup), one client host, static
    Maglev, ~170 µs network RTT, ~50 µs service times, one shard. *)

type t

val build : config -> t
(** Construct the whole cluster, partitioned over [config.shards]
    engines. Clients are not started yet.

    @raise Invalid_argument if [shards < 1], [n_lbs] is outside
    1..{!max_lbs},
    or a coordination policy is set without a controller. *)

val engine : t -> Des.Engine.t
(** Shard 0's engine — the one owning the balancers, servers and fault
    injector. Under sharding, schedule onto it only between runs. *)

val fabric : t -> Netsim.Fabric.t
(** Shard 0's fabric (VIP and server endpoints). *)

val balancer : t -> Inband.Balancer.t
(** LB 0 — the cluster's only balancer unless [n_lbs > 1]. *)

val balancers : t -> Inband.Balancer.t array
(** Every LB, in LB order. *)

val coordination : t -> Coordination.t option
(** The fleet's control plane, unless uncoordinated. *)

val servers : t -> Memcache.Server.t array
val clients : t -> Workload.Memtier.t array

val log : t -> Workload.Latency_log.t
(** The first client-hosting shard's latency log. At [shards = 1] this
    is the single cluster-wide log; under sharding each client-hosting
    shard has its own and cross-shard readers should prefer {!series} /
    {!histogram}.

    @raise Invalid_argument if no shard hosts a client. *)

val vip : ?lb:int -> t -> Netsim.Addr.t
(** LB [lb]'s VIP (default LB 0). *)

val shards : t -> int
(** The shard count the cluster was built with. *)

val shard_stats : t -> Des.Shard.stats
(** Barrier-captured runner health: windows, skipped (adaptively
    subsumed) windows, remote posts, inbox high-water, per-shard stalls.
    Meaningful after {!run}; at [shards = 1] windows counts run phases. *)

val events_fired : t -> int
(** DES events executed so far, summed over every shard. *)

val retained_words : t -> int
(** Heap words held by measurement history — every snapshotter's rows
    and every latency log's series. It grows with run length by design,
    so the soak battery subtracts it from live-memory verdicts. *)

val shutdown : t -> unit
(** Join the worker domain team ({!Des.Shard.shutdown}). Call when done
    with a sharded scenario; no-op at [shards = 1]. No {!run} after. *)

val lb_server_link : t -> int -> Netsim.Link.t
(** LB 0's link to one server. *)

val client_lb_link : t -> int -> Netsim.Link.t
(** The client→LB link of one client. Under sharding it is owned by the
    client's shard — don't mutate it from shard 0. *)

val telemetry : t -> Telemetry.Registry.t
(** Shard 0's metric registry: LB 0 ([lb.*], [ctl.*], [coord.*]),
    servers ([server.*], indexed), LB 0's forward links
    ([link.lb_server.*]) and, under sharding, the runner's [shard.*]
    gauges. Each further LB has a registry of its own with the same
    names. Client-side metrics ([client.*], [link.client_lb.*]) live in
    the owning shard's registry — read them through {!metric_value},
    {!metric_sum}, {!series} or {!histogram}, which cover every
    registry. *)

val metric_value : t -> ?index:int -> string -> float option
(** First reading of a scalar metric, scanning registries in shard
    order and then LB order — for metrics registered in exactly one
    registry (everything on shard 0 of a single-LB cluster; any client
    metric when one shard hosts all clients). *)

val metric_sum : t -> ?index:int -> string -> float option
(** Sum of a scalar metric over every registry that has it ([None] if
    none do) — e.g. fleet-total [ctl.actions]. Exact for integer
    counters; equals {!metric_value} when the metric lives in one
    registry. *)

val series : t -> ?index:int -> string -> Stats.Timeseries.t option
(** Merged view of an attached time series (e.g.
    ["client.latency.get"]). A single-shard hit is returned as-is —
    bit-identical to the K=1 read; multiple hits are folded into a
    fresh series with {!Stats.Timeseries.merge_into}. *)

val histogram : t -> ?index:int -> string -> Stats.Histogram.t option
(** Merged view of a registered histogram (e.g.
    ["client.latency_get_ns"]); single-shard hits returned as-is. *)

val snap_rows : t -> Telemetry.Snapshot.row list
(** Every registry's snapshot rows, stably sorted by snapshot time:
    rows of any one metric keep their chronological order, and at
    [shards = 1] with one LB the list is exactly the single
    snapshotter's. *)

val snap_all : t -> unit
(** Take an immediate out-of-cadence snapshot on every shard (e.g. the
    final sample after {!run} returns; the engines are parked, so the
    reads are race-free). *)

val schedule_snap : t -> at:Des.Time.t -> unit
(** Schedule an out-of-cadence snapshot at simulation time [at] on
    every shard — each shard's snap runs on its own engine. *)

val wire_client_host : ?lb:int -> t -> host_ip:int -> unit
(** Wire an extra client host (built after {!build}, e.g. a
    {!Workload.Pathology} client) into the DSR topology: a request link
    to LB [lb]'s VIP (default LB 0) and a server→host return link per
    server, all at the default delays. The host must already be registered on shard 0's
    fabric — create its TCP endpoint there first; such hosts always run
    on shard 0, so this works at any [shards].

    @raise Invalid_argument if [lb] is out of range, the host is
    unregistered or links already exist. *)

val inject_server_delay :
  t -> server:int -> at:Des.Time.t -> delay:Des.Time.t -> unit
(** Schedule [Link.set_extra_delay] at time [at] on every LB's link to
    [server] — the paper's netem injection. *)

val install_faults : t -> Faults.Timeline.t -> Faults.Injector.t
(** {!Faults.Injector.install} against the cluster's fault targets,
    publishing [fault.*] metrics into shard 0's registry. Link
    ["lb->sN"] is every LB's link to server N, ["cN->lb"] client N's
    request link; servers and backends are indexed as built, and a
    backend drain acts on LB 0's controller (latency-aware policy
    only). Under sharding ["cN->lb"] does not resolve: those links
    belong to other shards' domains and the injector runs on shard 0.
    Call before {!run}. *)

val attach_pcc : t -> Oracle.t array
(** Attach a per-connection-consistency {!Oracle} to every LB, in LB
    order (each publishing [pcc.*] gauges into its LB's registry). Call
    before {!run}; inspect after — the [--assert-pcc] scenario flag. *)

val advance : t -> until:Des.Time.t -> unit
(** Advance every shard to [until] (synchronized windows under
    sharding, a plain engine run at [shards = 1]) without starting or
    stopping clients — e.g. a post-run drain. *)

val run : t -> until:Des.Time.t -> unit
(** Start all clients, {!advance} to [until], then stop clients. May be
    called repeatedly. *)
