(** A host's TCP stack: demultiplexing, listeners and active opens.

    One endpoint is attached to one fabric host. Incoming packets are
    demultiplexed to connections by their (local, remote) address pair;
    SYNs for a bound listener create passive connections. Outgoing
    packets leave via the fabric with this host as the sending hop, which
    permits the DSR pattern of replying from a VIP the host does not
    "own" (the VIP is the packet's source address, the host IP only
    selects the outgoing link). *)

type t

val create : Netsim.Fabric.t -> host_ip:int -> t
(** Create the stack and register its receive handler for [host_ip].

    @raise Invalid_argument if the IP is already registered. *)

val listen :
  t -> addr:Netsim.Addr.t -> ?config:Conn.config -> (Conn.t -> unit) -> unit
(** [listen t ~addr accept] accepts connections addressed to [addr]
    (exact match on IP and port; bind IP 0 to accept any destination IP
    on that port). [accept] runs on arrival of the SYN, before any data
    is delivered, so it can install the connection's callbacks.

    @raise Invalid_argument if the address is already bound. *)

val connect :
  t ->
  ?config:Conn.config ->
  local:Netsim.Addr.t ->
  remote:Netsim.Addr.t ->
  unit ->
  Conn.t
(** Active open: sends the SYN immediately and returns the connection in
    [Syn_sent]. Install callbacks on the result before advancing the
    engine.

    @raise Invalid_argument if a connection with the same address pair
    already exists. *)

val active_connections : t -> int
(** Number of live (non-closed) connections. *)

val stray_packets : t -> int
(** Packets received that matched no connection or listener. Strays
    other than resets are answered with an RFC 793 reset so the peer
    abandons the dead connection instead of retransmitting forever. *)

val fold_conns : ('a -> Conn.t -> 'a) -> t -> 'a -> 'a
(** Fold over the live connections (diagnostics, e.g. the soak
    battery's stuck-connection census). *)

(** {1 Host-wide datapath memory counters}

    Sums over all live connections plus everything already torn down, so
    they are stable under connection churn. O(live connections). *)

val reasm_pending : t -> int
(** Bytes currently buffered out of order across live connections. *)

val reasm_drops : t -> int
(** Total out-of-order segments dropped at the reassembly cap. *)

val send_backlog : t -> int
(** Application bytes queued for transmission across live connections. *)

val send_drops : t -> int
(** Total writes discarded at the send-queue cap. *)
