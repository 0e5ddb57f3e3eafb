(** The cluster network: hosts, links, and next-hop forwarding.

    Hosts register a receive handler under their IP. Directed links
    connect host pairs. [send] forwards a packet along the link towards
    its destination, and [forward] along the link towards an explicit
    next hop, which is how direct server return is modelled:

    - clients send to the service VIP; the client→LB link carries it;
    - the LB forwards the *unmodified* packet with next hop = the chosen
      server (the server accepts VIP-addressed packets, as with a VIP
      configured on its loopback);
    - servers reply with src = VIP, dst = client over a direct
      server→client link, bypassing the LB entirely. *)

type t

type ip = int
(** Host identifier. *)

val create : Des.Engine.t -> t
val engine : t -> Des.Engine.t

val register : t -> ip:ip -> (Packet.t -> unit) -> unit
(** Attach a host's receive handler. Addresses must fit in 20 bits —
    link lookups pack (src, dst) into a single immediate int so the
    per-packet path allocates nothing.

    @raise Invalid_argument if [ip] is 0, out of range, or already
    registered. *)

val add_link : t -> src:ip -> dst:ip -> Link.t -> unit
(** Install the directed link used for packets going from host [src]
    towards next hop [dst]. The link's delivery callback is set by this
    call.

    @raise Invalid_argument if a [src]→[dst] link already exists or the
    destination host is not registered. *)

val add_remote_link :
  t ->
  src:ip ->
  dst:ip ->
  remote:(at:Des.Time.t -> Packet.t -> unit) ->
  Link.t ->
  unit
(** Install a directed link whose destination host lives on another
    shard's fabric. [dst] need not be registered here; the link's
    receiving end is [remote] (see {!Link.connect_remote}), which the
    shard runtime uses to hand the packet to the owning engine at its
    arrival time — typically [Des.Shard.post_remote_tagged] with the
    destination ip as tag, whose sink is the remote fabric's
    {!deliver}.

    @raise Invalid_argument if a [src]→[dst] link already exists. *)

val deliver : t -> ip:ip -> Packet.t -> unit
(** Invoke host [ip]'s receive handler directly — the terminal step of a
    cross-shard handoff, running on this fabric's engine at the packet's
    arrival time.

    @raise Invalid_argument if [ip] is not registered. *)

val link_between : t -> src:ip -> dst:ip -> Link.t
(** Look up an installed link, e.g. to inject extra delay on it.

    @raise Not_found if absent. *)

val send : t -> from:ip -> Packet.t -> unit
(** [send t ~from pkt] forwards [pkt] on the link [from]→[pkt.dst.ip].

    @raise Invalid_argument if no such link exists. *)

val forward : t -> from:ip -> hop:ip -> Packet.t -> unit
(** [forward t ~from ~hop pkt] forwards [pkt] on the link [from]→[hop]
    whatever its destination: the balancer's per-packet route to the
    chosen server.

    @raise Invalid_argument if no such link exists. *)
