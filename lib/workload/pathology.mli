(** Pathological clients: adversarial traffic the soak battery uses to
    flush out unbounded-memory and stuck-flow bugs.

    Five attack shapes, each a client host on the fabric:

    - {b Slowloris} — well-formed requests trickled one byte at a time,
      pinning server reader state and LB flow entries at near-zero
      throughput.
    - {b Pipeline burst} — open-loop request batches that ignore
      responses, pressuring the server queue and both TCP stacks'
      buffers (the send-queue cap's customer).
    - {b Reconnect storm} — connect, hold briefly, abort with RST,
      reconnect from a fresh port: maximal flow-table churn and
      tombstone pressure.
    - {b Gap flood} — one real connection plus raw injected segments
      far past the receiver's expected sequence; the gap never fills,
      so only the reassembly cap keeps the server's memory bounded.
    - {b RST flood} — bare resets from ever-fresh ports at the VIP,
      churning balancer admit/release paths.

    A well-behaved system survives all five with flat memory telemetry
    ([reasm.*], [conn.*], the soak's heap gauges), no stuck flows, and
    finite estimator state — the graceful-degradation checks asserted by
    the qcheck battery in [test/test_workload.ml] and by
    [Cluster.Soak]. *)

type kind =
  | Slowloris of { drip : Des.Time.t }
      (** One byte of a valid request every [drip]. *)
  | Pipeline_burst of { burst : int; gap : Des.Time.t }
      (** [burst] pipelined requests every [gap], responses ignored. *)
  | Reconnect_storm of { hold : Des.Time.t }
      (** Abort and reconnect every [hold]. *)
  | Gap_flood of { rate : Des.Time.t; segment : int }
      (** A [segment]-byte out-of-order segment every [rate]. *)
  | Rst_flood of { rate : Des.Time.t }
      (** A bare RST from a fresh port every [rate]. *)

type config = {
  kind : kind;
  connections : int;  (** Parallel instances of the attack. *)
  tcp : Tcpsim.Conn.config;  (** TCP options for real connections. *)
}

val default_config : config
(** 4 connections of Slowloris dripping every 10 ms. *)

type t

val create :
  Netsim.Fabric.t ->
  host_ip:int ->
  vip:Netsim.Addr.t ->
  ?config:config ->
  ?telemetry:Telemetry.Registry.t ->
  ?index:int ->
  rng:Des.Rng.t ->
  unit ->
  t
(** Build the client host (creates its TCP endpoint on [host_ip]).
    Does not start attacking. Links [host_ip] → VIP owner and back must
    be wired by the caller, as for any client.

    When [telemetry] is given, counters register there under [index]:
    [path.conns_opened], [path.bytes_trickled], [path.requests_sent],
    [path.gap_segments], [path.rst_sent].

    @raise Invalid_argument on non-positive connections, rates, sizes
    or durations. *)

val start : t -> unit
val stop : t -> unit
(** Stop scheduling new attack events and abort live connections. *)

val endpoint : t -> Tcpsim.Endpoint.t
(** The client's own TCP stack (its memory should stay bounded too). *)

val conns_opened : t -> int
val bytes_trickled : t -> int
val requests_sent : t -> int
val gap_segments : t -> int
val rsts_sent : t -> int
