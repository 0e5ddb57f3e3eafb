(** Maglev lookup-table population, with weights.

    The classic algorithm lets each backend claim its most-preferred
    unclaimed slot in round-robin turns, yielding near-equal slot shares
    and minimal disruption under backend churn. The paper's feedback
    controller needs *weighted* shares, so turns are granted by deficit
    accounting: each round a backend earns credit proportional to its
    weight (normalised to the maximum weight) and claims one slot per
    unit of credit. With equal weights this reduces exactly to classic
    Maglev. *)

type scratch
(** The state {!fill} walks: each backend's permutation as an offset, a
    skip and a cursor, its credit, and an occupancy bitset of [size / 8]
    bytes. Built once per backend set, reused by every {!fill}. *)

val scratch : names:string array -> size:int -> scratch
(** [scratch ~names ~size] hashes each backend name into its
    {!Permutation} over [size] slots, in order.

    @raise Invalid_argument if [size] is not a prime >= 3. *)

val fill :
  scratch -> weights:float array -> prev:int array -> into:int array -> int
(** [fill s ~weights ~prev ~into] writes into [into] the table for
    [weights] (one per backend, in the order of [s]'s names), exactly
    as {!populate} would build it, and returns how many slots have an
    owner different from the one in [prev]. Each slot of [into] is
    written once and read from [prev] just before, so [prev] may be
    [into] itself. Allocates nothing.

    @raise Invalid_argument if the lengths disagree with [s], any weight
    is NaN or all weights are <= 0. *)

val populate : size:int -> backends:(string * float) array -> unit -> int array
(** [populate ~size ~backends ()] builds the table: entry [s] is the
    index (into [backends]) of the backend owning slot [s]. Backends
    with weight <= 0 receive no slots.

    @raise Invalid_argument if [size] is not prime, [backends] is empty,
    all weights are <= 0, or any weight is NaN. *)

val slot_shares : int array -> n:int -> float array
(** [slot_shares table ~n] is the fraction of slots owned by each of the
    [n] backends. *)

val disruption : int array -> int array -> float
(** Fraction of slots whose owner differs between two tables of equal
    size — the connection-breaking metric for table rebuilds.

    @raise Invalid_argument on length mismatch. *)
