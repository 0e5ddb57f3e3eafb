(** Conservative synchronized-window parallel DES.

    A sharded simulation partitions its hosts across K shards, each
    owning a private {!Engine}, RNG streams, and slab lanes. Shards run
    concurrently — shard 0 on the calling domain, shards 1..K-1 on a
    persistent domain team — in lockstep windows
    bounded by [lookahead], the minimum propagation delay of any
    cross-shard link: an event executed during window [w, w+L) can only
    produce a cross-shard effect at time ≥ w+L, so within a window every
    shard is causally independent and no rollback or null-message
    machinery is needed (DESIGN.md §14).

    By default the barrier is {e adaptive} (DESIGN.md §15): with all
    engines parked at the barrier time [w] and the inboxes drained, the
    fleet-wide minimum next-event time [m] bounds when anything can
    happen anywhere, so the next window may run to
    [max (w + L) (m + L)] — still conservative, same determinism
    argument, and idle-heavy phases (drains, soak lulls, pacer gaps)
    collapse from thousands of empty fixed-width windows into one.

    Cross-shard packets are posted into per-(src, dst) single-producer
    flat inboxes via {!post_remote_tagged} (zero-allocation once the
    lanes are warm) and drained at the window barrier by the
    coordinating domain, in deterministic (src, dst, append) order,
    into the destination engines. Simulation results are therefore a
    pure function of the scenario and seed — independent of K, of
    thread scheduling, and of the adaptivity flag — provided the
    scenario partitions its state so that each host touches only its
    own shard (see [Cluster.Sharded]).

    With [shards = 1] the runner degenerates to a bare [Engine.run] on
    the calling domain: no domains, no barriers, byte-identical behavior
    to the sequential engine. *)

type t

val create : ?adaptive:bool -> shards:int -> lookahead:Time.t -> unit -> t
(** [create ~shards ~lookahead ()] builds [shards] engines and, when
    [shards > 1], spawns the worker domain team (parked until {!run}).
    [lookahead] must be positive when [shards > 1]; it must lower-bound
    the base propagation delay of every cross-shard link. [adaptive]
    (default [true]) enables event-horizon window widening; disabling it
    restores fixed-width windows — results are identical either way,
    only the window count and barrier overhead differ.

    @raise Invalid_argument if [shards < 1], or [shards > 1] with a
    non-positive [lookahead]. *)

val shards : t -> int

val engine : t -> int -> Engine.t
(** The engine owned by shard [k]. Scenario construction registers each
    host's timers and callbacks on its owning shard's engine; during
    {!run}, shard [k]'s callbacks execute on shard [k]'s domain and must
    touch only shard-[k] state (plus {!post_remote_tagged}). *)

val set_sink : t -> dst:int -> (int -> Obj.t -> unit) -> unit
(** Install shard [dst]'s tagged-delivery handler (typically
    [fun ip pkt -> Fabric.deliver fab ~ip (Obj.obj pkt)] on [dst]'s
    fabric). One handler per destination shard; required before any
    {!post_remote_tagged} entry addressed to it fires. *)

val post_remote_tagged :
  t -> src:int -> dst:int -> at:Time.t -> tag:int -> Obj.t -> unit
(** Hand an effect across the shard boundary: at [at], shard [dst]'s
    {!set_sink} handler is applied to [(tag, arg)] — e.g. (destination
    ip, packet). Must be called from shard [src]'s domain during its
    window (single-producer per (src, dst) pair); the entry is buffered
    in the flat inbox and scheduled at the next window barrier. Three
    array stores into preallocated lanes; allocates nothing once the
    inbox has grown to the flow's burst size (Gc-proved by the tests),
    and the barrier re-posts it via [Engine.post_tagged], which is
    closure-free too.

    @raise Invalid_argument if [tag < 0]. *)

val run : t -> until:Time.t -> unit
(** Advance every shard to exactly [until], in synchronized windows. May
    be called repeatedly (phases); between calls all engines sit at the
    same simulation time and the domain team is parked. When every
    engine is drained and the inboxes are empty, the remaining span is
    covered in one window; with [adaptive] (the default), windows also
    jump over event gaps to [min_next_event + lookahead].

    @raise Failure if a cross-shard entry violates the lookahead bound
    (arrival inside the window that produced it — a mis-derived
    lookahead or a mis-sharded scenario). An arrival at exactly the
    window horizon is legal and fires in the next window.

    Exceptions raised by shard callbacks are re-raised here (lowest
    shard index wins) after the window's barrier completes. *)

(** Per-shard health, captured at window barriers (no cross-domain reads
    of live engine state): see {!stats}. *)
type stats = {
  shards : int;
  windows : int;  (** synchronized windows completed across all runs *)
  skipped_windows : int;
      (** fixed-width windows subsumed by adaptive widening — the
          barrier crossings the event-horizon optimisation avoided *)
  remote_posts : int;  (** cross-shard entries drained *)
  inbox_peak_bytes : int;
      (** high-water mark of total flat-inbox capacity (bytes), observed
          at barriers; buffers shrink back once occupancy falls far
          below capacity *)
  events_fired : int array;  (** events executed per shard, cumulative *)
  stall_seconds : float array;
      (** wall-clock time each shard spent parked at window barriers *)
}

val stats : t -> stats
(** Snapshot of the barrier-captured per-shard counters. Safe to call
    from the coordinating domain between or after {!run} calls. *)

val shutdown : t -> unit
(** Join the worker domain team. Idempotent; {!run} must not be called
    afterwards. A [t] with [shards = 1] has no team and this is a no-op. *)
