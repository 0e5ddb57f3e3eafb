(** Per-connection consistency (PCC) oracle — a counting instrument.

    Measures the core correctness property of DSR load balancing from
    the outside: no established flow ever changes backend, across
    weight shifts, Maglev table rebuilds, drains/restores and fleet
    disagreement. Attach one to a balancer's routed-packet bus — from a
    test, via the [--assert-pcc] scenario flag, or implicitly by the
    remap frontier sweep — and read {!violation_count} /
    {!violation_rate} when the run ends ([--assert-pcc] keeps the old
    hard-fail behaviour on a nonzero count).

    Legitimate reassignments are excluded: a flow that ended (FIN/RST)
    may reincarnate under the same 5-tuple, and a flow idle past the
    balancer's [flow_idle_timeout] may have been expired and
    re-selected. Intentional migrations by a non-preserving
    [Config.remap] policy arrive on the balancer's [remap_bus] and are
    each counted as exactly one violation iff the connection was live
    (previous packet within the idle horizon) at remap time — that is
    the point of the frontier: non-preserving policies buy recovery
    latency with measured PCC breakage. A violation adopts the observed
    backend, so one reassignment is one violation however many packets
    follow it. *)

type violation = {
  at : Des.Time.t;
  flow : Netsim.Flow_key.t;
  expected : int;  (** Backend the flow was pinned to. *)
  got : int;  (** Backend the packet was actually routed to. *)
}

type attribution = {
  total : int;
  in_fault : int;  (** Violations inside a ground-truth fault window. *)
  outside : int;  (** Violations with no concurrent fault. *)
}

type t

val attach :
  ?telemetry:Telemetry.Registry.t ->
  ?index:int ->
  ?window:Des.Time.t ->
  Inband.Balancer.t ->
  t
(** Subscribe to the balancer's routed and remap buses and start
    counting. With [telemetry], registers polled gauges
    ["pcc.checked"], ["pcc.violations"], ["pcc.violation_rate"] (the
    last completed [window]'s violations-per-checked-packet; default
    window 500 ms) and ["pcc.tracked"] (with [index] for multi-LB
    fleets). *)

val detach : t -> unit
(** Stop checking (unsubscribe from both buses). Idempotent. *)

val checked : t -> int
(** Packets checked so far. *)

val tracked : t -> int
(** Flows currently tracked as established. *)

val violations : t -> violation list
(** All violations observed, oldest first. Empty on a correct run. *)

val violation_count : t -> int
(** O(1). *)

val ok : t -> bool

val violation_rate : t -> float
(** Cumulative violations per checked packet (0 when nothing checked). *)

val attribute : t -> (Des.Time.t * Des.Time.t option) list -> attribution
(** Split the violation count by a list of ground-truth fault windows
    [(applied_at, reverted_at)] ([None] = never reverted) — e.g.
    [Faults.Injector.intervals] mapped to times, with any recovery
    slack already added to the upper bounds. *)

val pp_violation : Format.formatter -> violation -> unit
