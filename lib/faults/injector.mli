(** Replays a {!Timeline} on a DES engine.

    The injector resolves every event's target at install time (so a
    typo fails before the run starts), schedules the fault application
    at [at] and — for events carrying a duration — the revert at
    [at + duration]. Reverts restore the state captured at apply time
    (extra delay, loss probability, slow factor, drained weight), so
    overlapping faults on distinct targets compose naturally.

    Every application/revert is counted in the telemetry registry
    ([fault.applied], [fault.reverted], plus a [fault.active] gauge)
    and recorded as a ground-truth {!interval} so reports can compute
    per-fault detection and recovery latency. *)

type env = {
  link : string -> Netsim.Link.t list;
      (** Resolve a timeline link name, e.g. ["lb->s1"], to every link
          it names (one per balancer in a fleet); [[]] = unknown. A
          fault applies to, and reverts, all of them together. *)
  server : int -> Memcache.Server.t option;
  controller : int -> Inband.Controller.t list;
      (** Every controller balancing the given backend index (one per
          balancer in a fleet); [[]] when the scenario runs without
          feedback control (drain unsupported). A drain pins, and
          restores, all of them together. *)
}

type interval = {
  event : Timeline.event;
  applied_at : Des.Time.t;
  mutable reverted_at : Des.Time.t option;
      (** [None] while active, and forever for permanent faults (and
          ramps, whose duration is the transition time). *)
}

type t

val install :
  Des.Engine.t ->
  env:env ->
  ?telemetry:Telemetry.Registry.t ->
  Timeline.t ->
  t
(** Resolve and schedule every event of the timeline.

    @raise Invalid_argument if any event is invalid, names an unknown
    target, or requests loss on a link created without an rng. Nothing
    is scheduled in that case. *)

val intervals : t -> interval list
(** Ground-truth fault intervals, in application order. *)

val active_faults : t -> int
