(** The load-balancer datapath.

    A fabric host registered at the service VIP. For every
    client-to-server packet it (1) feeds the in-band latency estimator,
    (2) looks up or establishes the flow's server assignment —
    per-connection affinity is never broken by weight changes under the
    default {!Remap.Preserve}; other [Config.remap] policies migrate
    selected established flows on each table rebuild — and
    (3) forwards the unmodified packet towards the assigned server
    (direct server return: responses never come back through here).

    Under {!Policy.Latency_aware} every estimator sample drives the
    feedback {!Controller}; under the other policies samples are still
    collected (for instrumentation) but no control action is taken.

    All instrumentation flows through the telemetry layer: counters and
    gauges live in a {!Telemetry.Registry} (metric names ["lb.*"],
    per-server metrics indexed by backend number), and per-event
    observers subscribe to the {!Telemetry.Bus} event streams below. *)

type t

val create :
  Netsim.Fabric.t ->
  vip:Netsim.Addr.t ->
  server_ips:int array ->
  ?policy:Policy.t ->
  ?config:Config.t ->
  ?table_size:int ->
  ?rng:Des.Rng.t ->
  ?telemetry:Telemetry.Registry.t ->
  unit ->
  t
(** Registers the datapath as the fabric host for [vip]'s IP. Backend
    [i] of the pool forwards to next hop [server_ips.(i)]. [rng] is used
    only by [P2c] (default: seeded stream). Metrics are registered in
    [telemetry] when given (one balancer per registry — names collide
    otherwise), or in a private registry: counters
    ["lb.pkts_forwarded"], ["lb.samples"], per-server ["lb.pkts_to"],
    ["lb.flows_to"], ["lb.samples_to"]; gauges ["lb.active_flows"],
    per-server ["lb.active_conns"], ["lb.est_latency_ns"]; and, under
    {!Policy.Latency_aware}, the controller's ["ctl.*"] metrics.

    @raise Invalid_argument if [server_ips] is empty or the config is
    invalid. *)

(** {1 Telemetry} *)

val config : t -> Config.t
(** The configuration the balancer was built with (flow idle timeout,
    estimator and controller knobs). *)

type sample_event = {
  at : Des.Time.t;
  flow : Netsim.Flow_key.t;
  server : int;
  sample : Des.Time.t;  (** The estimated batch RTT, in ns. *)
}

type routed_event = {
  at : Des.Time.t;
  flow : Netsim.Flow_key.t;
  server : int;
  packet : Netsim.Packet.t;
}

type remap_event = {
  at : Des.Time.t;
  flow : Netsim.Flow_key.t;
  from_server : int;
  to_server : int;
}
(** One established flow migrated by a non-preserving [Config.remap]
    policy during a table rebuild. Only {e live} flows are ever
    remapped. *)

val packet_bus : t -> Netsim.Packet.t Telemetry.Bus.t
(** Every packet the LB sees (before forwarding). *)

val sample_bus : t -> sample_event Telemetry.Bus.t
(** Every in-band latency sample the estimator produces. *)

val routed_bus : t -> routed_event Telemetry.Bus.t
(** Every packet together with the server it was routed to — for
    alternative measurement sources (e.g. {!Syn_rtt}) that need
    per-packet attribution. *)

val remap_bus : t -> remap_event Telemetry.Bus.t
(** Every flow migration a non-preserving remap policy performs. Silent
    under {!Remap.Preserve}. The PCC oracle subscribes here to tell an
    intentional remap from a stray reassignment. *)

val remapped_flows : t -> int
(** Reads the ["lb.remapped_flows"] registry counter: total established
    flows migrated by the remap policy. Always 0 under
    {!Remap.Preserve}. *)

(** {1 State access} *)

val pool : t -> Maglev.Pool.t
val controller : t -> Controller.t option
(** [Some _] iff the policy is [Latency_aware]. *)

val server_stats : t -> Server_stats.t
(** Per-server sample statistics (the controller's, when present). *)

val ensemble : t -> Ensemble.t

val n_servers : t -> int

val packets_forwarded : t -> int
(** Reads the ["lb.pkts_forwarded"] registry counter. *)

val packets_to : t -> int -> int
(** Packets forwarded to one server (["lb.pkts_to"]). *)

val flows_assigned_to : t -> int -> int
(** Connections ever assigned to one server (["lb.flows_to"]). *)

val active_flows : t -> int
(** Flow-table entries currently tracked. *)

val flow_capacity : t -> int
(** Flow-table bucket count (["lb.flow_capacity"]). Plateaus once the
    working set stabilises; sustained doubling under steady load is a
    flow leak. *)

val flow_tombstones : t -> int
(** Flow-table tombstone count (["lb.flow_tombstones"]). Sawtooths
    between purges; the soak battery bounds the tombstone {e ratio}. *)

val active_conns : t -> int array
(** Per-server live connection gauge (drives least-conn / P2C). *)

val samples_produced : t -> int
(** Reads the ["lb.samples"] registry counter. *)
