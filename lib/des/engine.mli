(** The discrete-event simulation engine.

    An engine owns a virtual clock and a queue of scheduled callbacks.
    Events scheduled for the same instant fire in scheduling order, which
    makes whole simulations deterministic given deterministic callbacks
    and seeded {!Rng} streams.

    The queue has three parts that never change that order: a 4-ary
    heap of (time, seq) entries and two FIFO rings. Every cancellable
    event ({!schedule}, {!rearm}, a {!Timer}) is in the heap. A
    fire-and-forget post ({!post}, {!post_call}, {!post_tagged}) for
    the current instant joins the same-instant lane; a later one at or
    after the in-order FIFO's tail (a constant-delay stream, such as a
    link's deliveries) joins that FIFO; only other posts enter the
    heap. The engine merges the lane, the FIFO and the heap by
    (time, seq) exactly. *)

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
    never be cancelled and its record is reused after firing. Once the
    engine has held as many posted events at once before, a post and
    its firing allocate nothing beyond the caller's closure, so the
    dominant schedule-then-fire pattern (link transmissions, service
    completions, think times) costs no allocation of its own.

    @raise Invalid_argument if [at] is in the past. *)

val post_after : t -> delay:Time.t -> (unit -> unit) -> unit
(** [post_after t ~delay f] is [post t ~at:(now t + delay) f], and
    likewise allocates nothing beyond the caller's closure once warm.

    @raise Invalid_argument if [delay] is negative. *)

val post_call : t -> at:Time.t -> ('a -> unit) -> 'a -> unit
(** [post_call t ~at f x] is [post t ~at (fun () -> f x)] without the
    closure: the pooled record holds [f] and [x] and applies one to the
    other when it fires. With [f] built once (a per-link deliver
    function, say), a warm post and its firing allocate nothing.

    Firing drops [x], as it drops a {!post}ed thunk, but the idle record
    keeps [f] until its next post, which then skips the store (a
    [caml_modify]) when [f] is the same. So pass a function built once
    here, and a one-shot closure to {!post}: [post_call t ~at f ()]
    for a prebuilt [f : unit -> unit].

    @raise Invalid_argument if [at] is in the past. *)

val set_tagged_sink : t -> (int -> Obj.t -> unit) -> unit
(** Install the engine-wide handler for {!post_tagged} events. One sink
    per engine: the shard runtime installs the destination fabric's
    deliver here once, and every cross-shard packet event dispatches
    through it without a per-event closure. *)

val post_tagged : t -> at:Time.t -> tag:int -> Obj.t -> unit
(** Closure-free {!post}: a {!post_call} of the installed
    {!set_tagged_sink} handler on [(tag, arg)]. The handler is the one
    installed when the event is posted. Once warm, neither the post nor
    the firing allocates anything, so the sharded barrier drain and the
    deliveries it feeds allocate nothing. [tag] must be [>= 0]; firing
    without a sink installed fails loudly.

    @raise Invalid_argument if [at] is in the past or [tag < 0]. *)

val cancel : handle -> unit
(** Prevent a pending event from firing. Cancelling an event that already
    fired (or was already cancelled) is a no-op. The event's heap entry
    is removed at once, in O(log n): the queue never holds a cancelled
    event. *)

val unscheduled : t -> handle
(** A handle to no event, for {!rearm}: {!cancel} ignores it and
    {!scheduled} is [false]. Allocates the one record a {!Timer} keeps
    for life. *)

val scheduled : handle -> bool
(** [true] from a {!schedule} or {!rearm} until the event fires or is
    cancelled. *)

val rearm : handle -> delay:Time.t -> (unit -> unit) -> unit
(** [rearm h ~delay f] makes [h] stand for [schedule_after ~delay f]:
    it is [cancel h] followed by that [schedule_after], with the same
    (time, seq) and so the same firing order, but on [h]'s own record.
    A pending [h] takes the new (time, seq) in place in the heap; an
    idle one enters it again. Once the engine has held as many events
    at once before, a re-arm allocates nothing, at any delay.

    Only the owner of [h] may re-arm it: the caller must hold the only
    reference, as {!Timer} does.

    @raise Invalid_argument if [delay] is negative. *)

val step : t -> bool
(** Fire the earliest pending event, in (time, seq) order across the
    same-instant lane, the in-order FIFO and the heap. Returns [false]
    if the queue was empty (clock unchanged), [true] otherwise. *)

val run : ?until:Time.t -> t -> unit
(** [run t] fires events until the queue drains. With [?until], stops as
    soon as the next event lies strictly beyond [until] and advances the
    clock to exactly [until]. *)

val pending : t -> int
(** Number of scheduled, not-yet-cancelled events: heap entries plus
    same-instant lane and in-order FIFO entries, since the queue holds
    nothing else. O(1). *)

val next_event_time : t -> Time.t option
(** The exact fire time of the next pending event ([None] when nothing
    is pending): the earliest of the heap root and the in-order FIFO's
    head, or {!now} while the same-instant lane is non-empty. Read-only.
    The adaptive shard barrier widens its windows to
    [min_next_event + lookahead] from it. *)

val events_fired : t -> int
(** Total events executed since creation; a cheap progress metric. *)
