(** Unidirectional network link: serialization + queue + propagation.

    A link transmits packets in FIFO order at a configurable line rate,
    holds excess packets in a bounded drop-tail queue, then delivers each
    packet after a propagation delay. An additional, dynamically
    adjustable extra delay models the paper's netem-style 1 ms injection
    on the LB→server path; optional jitter and random loss support the
    robustness experiments. *)

type t

val create :
  Des.Engine.t ->
  delay:Des.Time.t ->
  ?rate_bps:int ->
  ?queue_capacity:int ->
  ?loss_prob:float ->
  ?jitter:Stats.Dist.t ->
  ?rng:Des.Rng.t ->
  ?telemetry:Telemetry.Registry.t ->
  ?metric:string ->
  ?index:int ->
  unit ->
  t
(** [create engine ~delay ()] is a link with propagation delay [delay].

    - [rate_bps]: line rate in bits per second; default 10 Gb/s. Use
      [0] for an infinitely fast link (no serialization delay).
    - [queue_capacity]: maximum packets queued behind the transmitter
      (default 1024); further packets are dropped (drop-tail).
    - [loss_prob]: independent per-packet loss probability applied after
      transmission (default 0).
    - [jitter]: extra per-packet propagation delay drawn from this
      distribution, in nanoseconds.
    - [rng] is required iff [loss_prob > 0] or [jitter] is given.
    - [telemetry]/[metric]/[index]: register the link's counters
      ([metric].sent/.bytes/.queue_drops/.loss_drops, default prefix
      ["link"]), the [metric].drops sum gauge, and the queue gauge
      ([metric].queue) in this registry, optionally indexed — e.g. one
      ["link.lb_server"] family indexed by backend. Without [telemetry]
      the metrics live in a private registry.

    @raise Invalid_argument on inconsistent options (including a
    [metric]/[index] pair already registered). *)

val connect : t -> (Packet.t -> unit) -> unit
(** Set the delivery callback (the receiving host). Must be called before
    the first {!send}. *)

val connect_remote : t -> (at:Des.Time.t -> Packet.t -> unit) -> unit
(** Connect the receiving end to a host owned by another shard. Instead
    of scheduling the propagation leg on this link's engine, the callback
    receives the absolute arrival time ([now + delay + extra + jitter],
    evaluated when the packet's last bit leaves the transmitter) and the
    packet; the shard runtime is responsible for executing delivery at
    that time on the destination engine. The base [delay] lower-bounds
    the gap between send and arrival, which is exactly the cross-shard
    lookahead {!Des.Shard} relies on. *)

val send : t -> Packet.t -> unit
(** Enqueue a packet for transmission. Silently dropped if the queue is
    full (counted in {!drops}). *)

val set_extra_delay : t -> Des.Time.t -> unit
(** Set the injected extra propagation delay applied to packets that
    *start* propagation from now on (in-flight packets are unaffected).
    Models the paper's 1 ms delay injection at t = 100 s. *)

val extra_delay : t -> Des.Time.t

val set_loss_prob : t -> float -> unit
(** Replace the per-packet loss probability from now on — the fault
    layer's loss-burst knob.

    @raise Invalid_argument if the probability is outside [0, 1) or the
    link was created without an [rng]. *)

val loss_prob : t -> float

val has_rng : t -> bool
(** Whether the link was created with an [rng] (and can therefore take a
    nonzero {!set_loss_prob}). *)

val packets_sent : t -> int
(** Packets fully delivered so far. *)

val bytes_sent : t -> int

val queue_drops : t -> int
(** Packets dropped on arrival to a full queue (congestion). *)

val loss_drops : t -> int
(** Packets dropped by the random loss process. *)

val drops : t -> int
(** Packets dropped for any reason: {!queue_drops} + {!loss_drops}. *)

val queue_len : t -> int
(** Packets currently waiting or in transmission. *)
