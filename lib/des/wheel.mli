(** Hierarchical timing wheel (Varghese–Lauck) for coarse cancellable
    timers.

    A constant-time holding area in front of the engine's event heap:
    arming parks an entry in the slot covering its tick, cancelling
    unlinks it, and {!advance} emits every entry of a tick into the
    caller's heap just before the clock can enter that tick. Firing
    order is therefore still decided solely by the heap's exact
    (time, seq) comparison — the wheel is invisible to simulation
    results by construction.

    The wheel is intrusive: the engine's event records ({!Event.t})
    hold the link fields ([wnext]/[wprev]/[wslot]), so parking,
    cancelling and cascading allocate nothing. An entry's [time] is its
    absolute fire time (ns); [wslot] is its slot index, [-1] when not
    parked, and is maintained by the wheel. *)

type 'o t

val tick_ns : int
(** Base granularity: entries within one tick of the clock are the
    heap's business, not the wheel's. *)

val span_ns : int
(** Horizon: entries further than this from the last flushed tick are
    refused by {!offer} and must overflow to the heap. *)

val create : nil:'o Event.t -> unit -> 'o t
(** [nil] is the list terminator sentinel; it must never be offered. *)

val live : 'o t -> int
(** Entries currently parked. *)

val offer : 'o t -> 'o Event.t -> bool
(** Park an entry, or return [false] if its time is below the current
    tick or beyond {!span_ns} (caller pushes to the heap instead). *)

val remove : 'o t -> 'o Event.t -> unit
(** Unlink a parked entry in O(1). The entry must be parked
    ([e.wslot >= 0]). *)

val advance : 'o t -> upto:int -> emit:('o Event.t -> unit) -> unit
(** Flush every tick at or below [upto]'s into [emit], cascading
    higher levels as their boundaries are crossed. After the call, any
    parked entry fires strictly after [upto]. *)

val advance_next : 'o t -> emit:('o Event.t -> unit) -> unit
(** Flush up to and including the next occupied tick — at least one
    entry is emitted. Requires [live t > 0]. *)

val catch_up : 'o t -> upto:int -> unit
(** Drop empty ticks so the wheel origin tracks the clock. Requires
    [live t = 0]. *)

val next_time_lower_bound : 'o t -> int
(** Conservative lower bound (ns) on the earliest parked entry's fire
    time, or [max_int] when empty: exact for entries in the first
    occupied level-0 tick, slot-base-rounded for entries still parked at
    higher levels. Read-only — nothing is flushed or cascaded — so it
    may be called between engine runs (the shard barrier uses it to
    widen the next window). *)

val cascades : 'o t -> int
(** Higher-level slot redistributions performed (diagnostics). *)

val current_tick : 'o t -> int
(** The next tick to be flushed (diagnostics/tests). *)
