(** Transport addresses.

    An address is an (IP, port) pair. IPs are small integers naming hosts
    in the simulated cluster; the value 0 is reserved and never assigned
    by {!Fabric}. *)

type t = { ip : int; port : int }

val v : int -> int -> t
(** [v ip port] is the address [ip:port]. *)

val ip : t -> int
val port : t -> int

val equal : t -> t -> bool
val compare : t -> t -> int

val pp : Format.formatter -> t -> unit
(** Renders as ["ip:port"], e.g. ["10:5201"]. *)
