(** A simulated memcached server.

    Accepts TCP connections (typically addressed to the cluster VIP —
    direct server return), parses pipelined requests, and serves them
    from a fixed pool of workers. Requests from one connection are
    served in order (as real memcached's per-connection event loop
    does); different connections proceed in parallel up to the worker
    count, queueing beyond it. Service times are drawn per operation
    from configurable distributions, and an {!Interference} process can
    stall service, producing the fast-varying server performance the
    paper's controller reacts to.

    A server created with an [upstream] is a tier with a synchronous
    downstream dependency (§5 Q3): once a request's service time ends,
    its worker forwards it to the upstream memcached and stays busy
    until the answer comes back, which it then sends to the client. A
    slow upstream makes this server look slow to the LB although its
    own compute is fine. *)

type config = {
  workers : int;  (** Parallel service capacity. *)
  service_get : Stats.Dist.t;  (** GET service time, ns. *)
  service_set : Stats.Dist.t;  (** SET service time, ns. *)
  tcp : Tcpsim.Conn.config;  (** TCP options for accepted connections. *)
  idle_timeout : Des.Time.t;
      (** Close connections that received no bytes for this long
          (memcached's [-o idle_timeout]); [0] disables. A client that
          vanishes without its RST surviving the network leaves an
          [Established] server-side connection that no TCP mechanism
          will ever reclaim — nothing is in flight, so nothing
          retransmits and nothing elicits a reset. Only this
          application-level timeout bounds that residue. *)
}

val default_config : config
(** 2 workers; GET ~ lognormal with ~50 µs median; SET slightly slower;
    default TCP options; 60 s idle timeout. *)

type t

val create :
  Netsim.Fabric.t ->
  host_ip:int ->
  listen_addr:Netsim.Addr.t ->
  ?config:config ->
  ?interference:Interference.t ->
  ?telemetry:Telemetry.Registry.t ->
  ?index:int ->
  ?upstream:Netsim.Addr.t ->
  rng:Des.Rng.t ->
  unit ->
  t
(** Build the server host: creates its TCP endpoint on [host_ip] and
    listens on [listen_addr] (use the VIP address to model DSR).

    With [upstream], every request is answered by the memcached at that
    address, over one persistent connection from [host_ip] that is
    reopened when it closes; calls outstanding at a close answer as
    misses. The store is then unused.

    When [telemetry] is given, the server registers its metrics there
    under [index] (typically the backend's position in the pool):
    counters [server.gets]/[server.sets], gauges [server.queue_depth]/
    [server.busy_workers], and the [server.sojourn_ns] histogram.
    Without it the metrics live in a private registry. *)

val store : t -> Store.t
(** The backing store, e.g. for preloading the keyspace. *)

val endpoint : t -> Tcpsim.Endpoint.t
(** The server's TCP stack, exposing the host-wide bounded-datapath
    counters (reassembly pending/drops, send backlog/drops) that also
    back the [reasm.*] and [conn.*] gauges. *)

val set_slow_factor : t -> float -> unit
(** Multiply every subsequently drawn service time by this factor —
    the fault layer's service-rate degradation knob (1.0 = nominal,
    2.0 = half speed). In-service requests are unaffected.

    @raise Invalid_argument unless the factor is > 0. *)

val slow_factor : t -> float

val pause : t -> until:Des.Time.t -> unit
(** Stall the server until the given instant: requests starting service
    absorb the remaining pause, exactly like an {!Interference} stall.
    Overlapping pauses merge to the longest. *)

val resume : t -> unit
(** Cut short any active pause. *)

val requests_served : t -> int
val gets_served : t -> int
val sets_served : t -> int

val busy_workers : t -> int

val sojourn : t -> Stats.Histogram.t
(** Histogram of request sojourn times (arrival at the server to
    response transmission), ns. *)
