(** The key population a workload draws from.

    Provides uniform and Zipf-distributed sampling over a fixed set of
    generated key names, mirroring memtier_benchmark's key patterns. *)

type dist = Uniform | Zipf of float  (** Zipf exponent, e.g. 0.99. *)

type t

val create : ?prefix:string -> count:int -> dist:dist -> rng:Des.Rng.t -> unit -> t
(** [create ~count ~dist ~rng] manages keys [key_of 0 .. key_of (count-1)].

    @raise Invalid_argument if [count <= 0]. *)

val count : t -> int

val key_of : t -> int -> string
(** The [i]-th key name (deterministic, e.g. ["memtier-00000042"]):
    [name ~prefix i] for the keyspace's prefix, built once. *)

val name : prefix:string -> int -> string
(** [name ~prefix i] is [prefix] followed by [i >= 0] in decimal,
    zero-padded to at least 8 digits: [Printf.sprintf "%s%08d"]. *)

val sample : t -> string
(** Draw a key according to the configured distribution. *)

val sample_index : t -> int
(** Draw a key index according to the configured distribution. *)
