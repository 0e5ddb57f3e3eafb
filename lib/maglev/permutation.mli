(** Per-backend slot preference permutations (Maglev §3.4).

    Each backend visits the table slots in the order
    [(offset + j * skip) mod m], with [offset] and [skip] derived from
    independent hashes of the backend's name. [m] prime guarantees the
    sequence is a permutation of [0..m-1]. *)

type t

val create : name:string -> size:int -> t
(** [create ~name ~size] is backend [name]'s permutation over a table of
    [size] slots.

    @raise Invalid_argument if [size] is not prime or < 3. *)

val offset : t -> int
(** The first slot of the sequence, in [0..size-1]. *)

val skip : t -> int
(** The stride between consecutive slots, in [1..size-1]. *)

val nth : t -> int -> int
(** [nth t j] is the [j]-th slot of the sequence, for [j >= 0]. *)
