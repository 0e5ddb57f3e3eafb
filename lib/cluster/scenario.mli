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

    The whole cluster runs on one engine and one fabric. The paper's
    mechanism keeps the LB, servers, controller and fault injector
    together, so sharding the cluster could only move the clients, and
    that made every run slower (DESIGN.md §15). Each further LB keeps
    its own registry; {!metric_sum} and {!snap_rows} read all of
    them. *)

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
}

val max_lbs : int
(** 9: the IP plan's room for VIPs ([1 + l]) below the servers (10+). *)

val default_config : config
(** One LB, two servers (the paper's setup), one client host, static
    Maglev, ~170 µs network RTT, ~50 µs service times. *)

type t

val build : config -> t
(** Construct the whole cluster. Clients are not started yet.

    @raise Invalid_argument if [n_lbs] is outside 1..{!max_lbs}, or a
    coordination policy is set without a controller. *)

val engine : t -> Des.Engine.t
(** The cluster's engine. *)

val fabric : t -> Netsim.Fabric.t
(** The cluster's fabric (VIP, server and client endpoints). *)

val balancer : t -> Inband.Balancer.t
(** LB 0 — the cluster's only balancer unless [n_lbs > 1]. *)

val balancers : t -> Inband.Balancer.t array
(** Every LB, in LB order. *)

val coordination : t -> Coordination.t option
(** The fleet's control plane, unless uncoordinated. *)

val servers : t -> Memcache.Server.t array
val clients : t -> Workload.Memtier.t array

val log : t -> Workload.Latency_log.t
(** The latency log every client records into. *)

val vip : ?lb:int -> t -> Netsim.Addr.t
(** LB [lb]'s VIP (default LB 0). *)

val shard_stats : t -> Des.Shard.stats
(** The one-shard {!Des.Shard} runner's counters: [windows] counts run
    phases ({!advance} calls), [events_fired] the engine's events.
    Meaningful after {!run}. *)

val events_fired : t -> int
(** DES events executed so far. *)

val retained_words : t -> int
(** Heap words held by measurement history — every snapshotter's rows
    and the latency log's series. It grows with run length by design,
    so the soak battery subtracts it from live-memory verdicts. *)

val shutdown : t -> unit
(** Release the runner ({!Des.Shard.shutdown}, a no-op for one shard).
    No {!run} after. *)

val lb_server_link : t -> int -> Netsim.Link.t
(** LB 0's link to one server. *)

val client_lb_link : t -> int -> Netsim.Link.t
(** The client→LB link of one client. *)

val telemetry : t -> Telemetry.Registry.t
(** The cluster registry: LB 0 ([lb.*], [ctl.*], [coord.*]), servers
    ([server.*], indexed), clients ([client.*], [link.client_lb.*]), LB
    0's forward links ([link.lb_server.*]) and the engine's [des.*]
    gauges. Each further LB has a registry of its own with LB 0's
    names. *)

val metric_sum : t -> ?index:int -> string -> float option
(** Sum of a scalar metric over every registry that has it ([None] if
    none do) — e.g. fleet-total [ctl.actions]. Exact for integer
    counters. *)

val histogram : t -> ?index:int -> string -> Stats.Histogram.t option
(** A histogram registered with the cluster registry (e.g.
    ["client.latency_get_ns"]). *)

val snap_rows : t -> Telemetry.Snapshot.row list
(** Every registry's snapshot rows, stably sorted by snapshot time:
    rows of any one metric keep their chronological order, and with one
    LB the list is exactly the single snapshotter's. *)

val snap_all : t -> unit
(** Take an immediate out-of-cadence snapshot of every registry (e.g.
    the final sample after {!run} returns). *)

val schedule_snap : t -> at:Des.Time.t -> unit
(** Schedule an out-of-cadence snapshot of every registry at
    simulation time [at]. *)

val wire_client_host : ?lb:int -> t -> host_ip:int -> unit
(** Wire an extra client host (built after {!build}, e.g. a
    {!Workload.Pathology} client) into the DSR topology: a request link
    to LB [lb]'s VIP (default LB 0) and a server→host return link per
    server, all at the default delays. The host must already be
    registered on the fabric — create its TCP endpoint there first.

    @raise Invalid_argument if [lb] is out of range, the host is
    unregistered or links already exist. *)

val inject_server_delay :
  t -> server:int -> at:Des.Time.t -> delay:Des.Time.t -> unit
(** Schedule [Link.set_extra_delay] at time [at] on every LB's link to
    [server] — the paper's netem injection — and register [at] with
    every LB's controller, so [Controller.first_action_after] answers
    the reaction to it. Call before {!run}. *)

val install_faults : t -> Faults.Timeline.t -> Faults.Injector.t
(** {!Faults.Injector.install} against the cluster's fault targets,
    publishing [fault.*] metrics into the cluster registry. Link
    ["lb->sN"] is every LB's link to server N, ["cN->lb"] client N's
    request link; servers and backends are indexed as built, and a
    backend drain acts on every LB's controller (latency-aware policy
    only). Each event's instant is registered with every LB's
    controller, as in {!inject_server_delay}. Call before {!run}. *)

val attach_pcc : t -> Oracle.t array
(** Attach a per-connection-consistency {!Oracle} to every LB, in LB
    order (each publishing [pcc.*] gauges into its LB's registry). Call
    before {!run}; inspect after — the [--assert-pcc] scenario flag. *)

val advance : t -> until:Des.Time.t -> unit
(** Run the engine to [until] without starting or stopping clients —
    e.g. a post-run drain. *)

val run : t -> until:Des.Time.t -> unit
(** Start all clients, {!advance} to [until], then stop clients. May be
    called repeatedly. *)
