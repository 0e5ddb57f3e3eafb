(** A weighted Maglev backend pool with a lookup table built on demand.

    The datapath object: [lookup] maps a (stable) flow hash to a backend
    in O(1); the controller stages weights and calls [commit]. A commit
    only snapshots the weights: the table is built from that snapshot
    at the first read after it ([lookup], [slot_shares] or
    [current_table]), so commits that no read observes cost no table.
    Per-connection affinity pins every established flow, so only a new
    connection reads the table. Builds are counted and the disruption
    of each is accumulated so experiments can report
    connection-breaking pressure.

    Since a read may build the table, a pool belongs to one domain. *)

type t

val create : ?table_size:int -> names:string array -> unit -> t
(** [create ~names] starts with equal weights 1/n. [table_size] defaults
    to 4099 (prime); pass e.g. 65537 for production-sized tables.

    @raise Invalid_argument if [names] is empty, contains duplicates, or
    [table_size] is not prime. *)

val size : t -> int
(** Number of backends. *)

val table_size : t -> int
val name : t -> int -> string

val weight : t -> int -> float
val weights : t -> float array
(** A copy of the staged weight vector. *)

val set_weight : t -> int -> float -> unit
(** Stage a new weight for one backend (takes effect at {!commit} or
    {!rebuild}).

    @raise Invalid_argument if negative or NaN. *)

val set_weights : t -> float array -> unit
(** Stage the whole vector.

    @raise Invalid_argument on length mismatch. *)

val commit : t -> unit
(** Snapshot the staged weights as the ones every later read sees,
    until the next commit. The table is built from the snapshot at the
    first read after it; weights staged after the commit do not reach
    it.

    @raise Invalid_argument ["Table.populate: all weights <= 0"] if no
    staged weight is positive; the table, the counters and any earlier
    commit are then left as they were. *)

val rebuild : t -> unit
(** {!commit}, then build the table at once.

    @raise Invalid_argument as {!commit}. *)

val lookup : t -> int -> int
(** [lookup t flow_hash] is the backend index for this hash under the
    table of the last commit, built first if no read has since. *)

val slot_shares : t -> float array
(** Fraction of table slots per backend under the table of the last
    commit, built first if no read has since. *)

val rebuilds : t -> int
(** Number of tables built: one per {!rebuild}, and one at the first
    read after each {!commit}. The table {!create} builds is not
    counted. *)

val total_disruption : t -> float
(** Sum over built tables of the fraction of slots whose owner differs
    from the table built before it. A commit no read observed adds
    nothing. *)

val current_table : t -> int array
(** A copy of the table of the last commit, built first if no read has
    since (tests and instrumentation). *)
