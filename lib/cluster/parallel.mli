(** Deterministic parallel mapping over independent experiment runs.

    Every experiment in this library is a self-contained simulation:
    it builds its own engine, seeds its own RNG streams, and shares no
    mutable state with other runs. That makes a sweep embarrassingly
    parallel — and, because results are collected by input index, the
    mapped list (and any figure or CSV rendered from it) is
    byte-identical whether it ran on one domain or many. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f items] is [List.map f items] computed by up to [jobs]
    domains pulling items off a shared queue. Output order is input
    order. [jobs = 1] (the default) runs sequentially in the calling
    domain; [jobs = 0] means the runtime's recommended domain count. If any [f] raises, the pool
    aborts: no further items are started (in-flight items run to
    completion), and the exception of the earliest failing item — by
    input order, among those that ran — is re-raised after all domains
    finish, matching what a sequential [List.map] would have raised.

    [f] must not assume it runs in the calling domain (no
    domain-local state), and items must not share mutable state.

    @raise Invalid_argument if [jobs] is negative. *)
