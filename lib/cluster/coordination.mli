(** Simulated control plane for an LB fleet (§5 Q4).

    Each member LB periodically publishes its per-server latency
    estimates, current weights and last-action time over a lossy,
    delayed channel riding the DES clock. Coordination policies act on
    what arrives:

    - {!Gossip_average}: every controller stays autonomous but decides
      on the merged fleet-wide estimate and passes shifts through a
      fleet-epoch hysteresis gate, so roughly one shift per epoch fires
      fleet-wide instead of one per member per control interval.
    - {!Leader}: the lowest-id member keeps control (over the merged
      view); the rest become followers whose weights are imposed from
      the leader's snapshots, subject to a staleness bound.

    Per-member telemetry lands in the member's registry:
    [coord.msgs_sent], [coord.msgs_recv], [coord.dropped],
    [coord.suppressed], [coord.imposed], [coord.stale] counters and a
    polled [coord.staleness_ns] gauge. Drain/restore keep working under
    either policy — imposed weights re-pin drained backends. *)

type policy = Uncoordinated | Gossip_average | Leader

val policy_to_string : policy -> string
(** ["none"], ["gossip"], ["leader"]. *)

val policy_of_string : string -> (policy, string) result
type config = {
  policy : policy;
  period : Des.Time.t;  (** Snapshot publish period. *)
  delay : Des.Time.t;  (** Channel propagation delay. *)
  loss : float;  (** Per-message drop probability, in [0, 1). *)
  fleet_epoch : Des.Time.t;
      (** Gossip hysteresis window: at most ~one shift fleet-wide per
          epoch (modulo propagation lag). *)
  staleness_bound : Des.Time.t;
      (** Leader mode: followers ignore leader snapshots older than
          this. *)
}

val default_config : config
(** [Uncoordinated], 10 ms period, 1 ms delay, no loss, 50 ms fleet
    epoch, 500 ms staleness bound. *)

val validate : config -> (unit, string) result

type t

val create :
  engine:Des.Engine.t ->
  config:config ->
  controllers:Inband.Controller.t array ->
  ?registries:Telemetry.Registry.t array ->
  ?rng:Des.Rng.t ->
  unit ->
  t
(** Wire a fleet of controllers together. Member ids follow array
    order; with [Leader], index 0 leads. [registries], when given (one
    per member, same order), receive the [coord.*] metrics. The hooks
    installed on each controller
    ({!Inband.Controller.set_estimate_override} etc.) are owned by this
    coordinator.

    @raise Invalid_argument on an invalid config or a
    registries/controllers length mismatch. *)

val stop : t -> unit
(** Stop the publish timers. In-flight snapshots still deliver. *)

(** {1 Fleet-total metric reads} (sums over members) *)

val messages_sent : t -> int
val messages_received : t -> int
val dropped : t -> int
val suppressed : t -> int
val imposed : t -> int
val stale : t -> int
