(** The discrete-event simulation engine.

    An engine owns a virtual clock and a queue of scheduled callbacks.
    Events scheduled for the same instant fire in scheduling order, which
    makes whole simulations deterministic given deterministic callbacks
    and seeded {!Rng} streams. *)

type t
(** A simulation engine instance. *)

type handle
(** A cancellable reference to a scheduled event. *)

val create : unit -> t
(** A fresh engine with the clock at {!Time.zero} and no events. *)

val now : t -> Time.t
(** Current virtual time. *)

val schedule : t -> at:Time.t -> (unit -> unit) -> handle
(** [schedule t ~at f] runs [f] when the clock reaches [at].

    @raise Invalid_argument if [at] is in the past. *)

val schedule_after : t -> delay:Time.t -> (unit -> unit) -> handle
(** [schedule_after t ~delay f] is [schedule t ~at:(now t + delay) f].

    @raise Invalid_argument if [delay] is negative. *)

val post : t -> at:Time.t -> (unit -> unit) -> unit
(** Fire-and-forget {!schedule}: no handle is returned, so the event can
    never be cancelled and its record is recycled through a free list
    after firing. In steady state the dominant schedule-then-fire
    pattern (link transmissions, service completions, think times)
    allocates the callback closure plus the 3-word list cell that
    returns the fired record to the free list.

    @raise Invalid_argument if [at] is in the past. *)

val post_after : t -> delay:Time.t -> (unit -> unit) -> unit
(** [post_after t ~delay f] is [post t ~at:(now t + delay) f].

    @raise Invalid_argument if [delay] is negative. *)

val set_tagged_sink : t -> (int -> Obj.t -> unit) -> unit
(** Install the engine-wide handler for {!post_tagged} events. One sink
    per engine: the shard runtime installs the destination fabric's
    deliver here once, and every cross-shard packet event dispatches
    through it without a per-event closure. *)

val post_tagged : t -> at:Time.t -> tag:int -> Obj.t -> unit
(** Closure-free {!post}: when the event fires, the installed
    {!set_tagged_sink} handler is applied to [(tag, arg)]. With a warm
    free list the post itself allocates nothing, not even a callback
    closure, so the sharded barrier drain allocates nothing; firing
    conses the same 3-word free-list cell as {!post}. [tag] must be
    [>= 0] ([-1] marks plain events internally); firing without a sink
    installed fails loudly.

    @raise Invalid_argument if [at] is in the past or [tag < 0]. *)

val cancel : handle -> unit
(** Prevent a pending event from firing. Cancelling an event that already
    fired (or was already cancelled) is a no-op. Events parked in the
    timing wheel are unlinked in O(1); heap-resident events remain queued
    as tombstones but are counted exactly, and the queue is compacted in
    place whenever tombstones exceed half of it, so cancel-heavy
    workloads stay bounded by the live event count. *)

val step : t -> bool
(** Fire the earliest pending event. Returns [false] if the queue was
    empty (clock unchanged), [true] otherwise. *)

val run : ?until:Time.t -> t -> unit
(** [run t] fires events until the queue drains. With [?until], stops as
    soon as the next event lies strictly beyond [until] and advances the
    clock to exactly [until]. *)

val pending : t -> int
(** Number of scheduled, not-yet-cancelled events, whether heap-resident
    or parked in the timing wheel. O(1). *)

val next_event_time : t -> Time.t option
(** Conservative lower bound on the next live event's fire time ([None]
    when nothing is pending): the exact heap-head time combined with the
    timing wheel's slot-granular bound ({!Wheel.next_time_lower_bound}).
    Never later than the true next event — the contract the adaptive
    shard barrier relies on to widen windows to
    [min_next_event + lookahead]. Intended to be called between runs
    (it drains tombstoned heap heads, a local mutation). *)

val queue_length : t -> int
(** Physical heap size, including cancelled tombstones not yet drained or
    compacted away but excluding events parked in the timing wheel. For
    diagnostics and boundedness tests. *)

val wheel_size : t -> int
(** Events currently parked in the hierarchical timing wheel. Cancellable
    events ({!schedule}/{!schedule_after}) more than one wheel tick
    ({!Wheel.tick_ns}) ahead park there and migrate to the heap just
    before the clock enters their tick, so firing order is still decided
    solely by the heap's exact (time, seq) comparison. *)

val wheel_cascades : t -> int
(** Higher-level wheel slot redistributions performed (diagnostics). *)

val compactions : t -> int
(** Number of tombstone compaction passes run since creation. *)

val events_fired : t -> int
(** Total events executed since creation; a cheap progress metric. *)
