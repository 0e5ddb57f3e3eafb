(** Connection identifier as seen by the load balancer.

    The LB observes only client-to-server traffic (direct server return),
    so a flow is keyed by the (source, destination) address pair of that
    direction — the layer-4 connection identifier of §1 of the paper. *)

type t = private { src : Addr.t; dst : Addr.t; hash : int }
(** [hash] is computed once by {!v}; keys must be built through {!v} so
    the cached value stays consistent with the addresses. *)

val v : src:Addr.t -> dst:Addr.t -> t
val equal : t -> t -> bool

val hash : t -> int
(** Deterministic mix of both addresses, cached at construction (O(1)
    here); also the hash Maglev consumes, so it must be stable across
    runs. *)

val hash_parts :
  src_ip:int -> src_port:int -> dst_ip:int -> dst_port:int -> int
(** [hash_parts] of a key's four address components is its {!hash},
    computed without building the key: a table that keeps keys unboxed
    ({!Flow_table}) rehashes with it when it resizes. *)

val pp : Format.formatter -> t -> unit

module Table : Hashtbl.S with type key = t
(** Hash tables keyed by flows (connection tracking, per-flow estimator
    state). *)
