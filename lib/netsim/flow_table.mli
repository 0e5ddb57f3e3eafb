(** Open-addressed map from {!Flow_key.t} to an [int] slot.

    The balancer's connection table: linear probing over a power-of-two
    bucket array from the hash cached in the key, tombstone-aware
    deletion, and load-factor-driven resize (rebuilt at 3/4 full —
    doubling when live entries justify it, purging in place when
    tombstones do). Keys are stored inline as packed ints, so the table
    holds no heap block per key: a bucket is three ints. Lookups
    allocate nothing: a miss is [-1], not [None]. Values must therefore
    be non-negative.

    Only addresses with [0 <= ip < 2^30] and [0 <= port < 2^32] can be
    stored; within that range packing is exact, so two keys share a
    binding only if they are {!Flow_key.equal}. *)

type t

val create : ?initial:int -> unit -> t
(** An empty table with capacity at least [initial] (default 16),
    rounded up to a power of two. *)

val length : t -> int
(** Live (occupied) entries. *)

val find : t -> Flow_key.t -> int
(** The slot bound to the key, or [-1] if absent (always for a key with
    an address outside the storable range). Allocation-free. *)

val mem : t -> Flow_key.t -> bool

val add : t -> Flow_key.t -> int -> unit
(** Bind the key, replacing any existing binding (at most one binding
    per key ever exists).

    @raise Invalid_argument if the value is negative or an address of
    the key is outside the storable range. *)

val remove : t -> Flow_key.t -> unit
(** Remove the key's binding if present, leaving a tombstone. *)

val remove_value : t -> hash:int -> int -> unit
(** [remove_value t ~hash v] removes the binding whose value is [v] and
    whose key has {!Flow_key.hash} [hash], leaving a tombstone; a no-op
    if there is none. It probes like {!remove} but matches the value,
    so the caller needs no key. It removes exactly what {!remove} of
    that key would when [v] is bound to at most one key, as the
    balancer's slab slots are. *)

val iter : (Flow_key.t -> int -> unit) -> t -> unit
(** Every binding in bucket order. Builds each key it passes, so it
    allocates; [f] must not modify the table. *)

val capacity : t -> int
(** Current bucket count (diagnostics). *)

val tombstones : t -> int
(** Current tombstone count (diagnostics). *)
