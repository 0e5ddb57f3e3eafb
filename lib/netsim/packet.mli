(** Simulated packets: an IP/TCP header plus application payload.

    The packet is the unit moved by {!Link} and {!Fabric}, inspected by
    the load balancer, and consumed by the TCP endpoints of [tcpsim]. *)

type flags = { syn : bool; ack : bool; fin : bool; rst : bool }

val flags_none : flags
val flag_syn : flags
val flag_ack : flags
val flag_syn_ack : flags
val flag_fin_ack : flags
val flag_rst : flags

type t = private {
  src : Addr.t;
  dst : Addr.t;
  seq : int;  (** Sequence number of the first payload byte. *)
  ack : int;  (** Cumulative acknowledgement number. *)
  flags : flags;
  payload : string;  (** Application bytes ([""] for pure ACKs). *)
  flow_key : Flow_key.t;
      (** The (src, dst) key with its hash, built once in {!make} so the
          balancer's table probe and Maglev lookup hash only once per
          packet. *)
}

val make :
  src:Addr.t ->
  dst:Addr.t ->
  seq:int ->
  ack:int ->
  flags:flags ->
  payload:string ->
  t

val make_on :
  Flow_key.t -> seq:int -> ack:int -> flags:flags -> payload:string -> t
(** [make_on key] is [make ~src:key.src ~dst:key.dst] on a key built
    once: a TCP connection sends every packet on its own key, so no
    packet allocates a key or mixes its hash again. *)

val none : t
(** A placeholder that is never sent (all addresses 0), for clearing the
    slots of packet buffers. *)

val header_bytes : int
(** Ethernet + IP + TCP header overhead charged per packet (54 bytes). *)

val wire_size : t -> int
(** Bytes this packet occupies on a link: headers + payload. *)

val payload_len : t -> int

val flow : t -> Flow_key.t
(** The (src, dst) flow key of this packet. *)

val is_pure_ack : t -> bool
(** [true] for segments with no payload and no SYN/FIN/RST — the ACK
    clock packets that dominate causally-triggered transmissions. *)

val pp : Format.formatter -> t -> unit
(** One-line rendering for traces and test failures. *)
