(** A TCP connection (miniature, simulation-grade).

    Implements the mechanisms that produce the packet timing the paper's
    measurement technique depends on: the three-way handshake, a
    flow-control window that batches transmissions, cumulative
    acknowledgements with a configurable ACK policy (immediate or
    delayed), RTO-based retransmission, and FIN teardown. Congestion
    control is deliberately absent: intra-cluster flows in the paper's
    setting are window/application-limited, not congestion-limited.

    Connections are created through {!Endpoint}; this module exposes the
    per-connection API. *)

type ack_policy =
  | Ack_immediate  (** ACK every received data segment at once. *)
  | Ack_delayed of { every : int; timeout : Des.Time.t }
      (** ACK every [every]-th segment, or after [timeout] — the
          standard Linux delayed-ACK shape ([every = 2]). *)
  | Ack_paced of Des.Time.t
      (** Hold every ACK for a fixed pacing delay — a §5(2)
          timing-assumption violation used by the robustness benches. *)

type config = {
  mss : int;  (** Max payload bytes per segment. *)
  window : int;  (** Flow-control window, bytes in flight. *)
  ack_policy : ack_policy;
  rto_initial : Des.Time.t;
  rto_min : Des.Time.t;
  rto_max : Des.Time.t;
  reasm_cap : int;
      (** Max bytes buffered out of order on the receive side; segments
          past the cap are dropped (and recovered by retransmission), so
          a gap-flooding peer cannot grow memory without limit. *)
  send_queue_cap : int;
      (** Max application bytes queued for transmission; writes past the
          cap are discarded whole and counted ({!send_drops}). *)
  max_inflight_segments : int;
      (** Max retransmission-queue entries. The byte caps bound payload;
          this bounds per-segment overhead, which dominates when a peer
          sends or acknowledges a byte at a time (a full 64 KiB window
          of 1-byte segments is ~850k words of queue records). When the
          cap is reached, data waits in the send queue instead. *)
  send_queue_max_writes : int;
      (** Max send-queue entries, the write-count counterpart of
          [send_queue_cap]; writes past it are shed and counted in
          {!send_drops}. *)
}

val default_config : config
(** mss 1448, window 65535, delayed ACK (2, 500 µs), RTO floor 1 ms,
    reassembly cap 256 KiB, send-queue cap 1 MiB / 2048 writes, 256
    in-flight segments. *)

type state =
  | Syn_sent
  | Syn_received
  | Established
  | Fin_wait  (** We closed; waiting for our FIN to be acked / peer FIN. *)
  | Close_wait  (** Peer closed; we may still send. *)
  | Last_ack  (** Both closed; waiting for the final ACK. *)
  | Closed

type t

(** {1 Callbacks}

    Set these right after the connection is handed to you (on [connect]
    or in an accept handler); events only fire from later engine steps,
    so registration is race-free. *)

val set_on_connect : t -> (unit -> unit) -> unit
(** Fired once when the handshake completes. *)

val set_on_data : t -> (string -> unit) -> unit
(** Fired with each newly contiguous chunk of the peer's byte stream. *)

val set_on_drain : t -> (unit -> unit) -> unit
(** Fired when the send queue empties (all app bytes segmented and sent;
    a backlogged source refills from here). *)

val set_on_eof : t -> (unit -> unit) -> unit
(** Fired once when the peer's FIN is consumed (the peer will send no
    more data); the local side may keep sending until it calls
    {!close}. *)

val set_on_close : t -> (unit -> unit) -> unit
(** Fired once when the connection reaches [Closed]. *)

val set_on_rtt_sample : t -> (Des.Time.t -> unit) -> unit
(** Fired for every clean RTT sample (Karn's rule applied) — the
    sender-side ground truth used by the Fig. 2 experiments. *)

(** {1 Operations} *)

val send : t -> string -> unit
(** Queue application bytes for transmission.

    @raise Invalid_argument if the connection is closed or closing. *)

val close : t -> unit
(** Half-close: a FIN is sent once all queued bytes are out. Idempotent. *)

val abort : t -> unit
(** Send RST and drop to [Closed] immediately. *)

(** {1 Introspection} *)

val state : t -> state
val local_addr : t -> Netsim.Addr.t
val remote_addr : t -> Netsim.Addr.t
val srtt : t -> Des.Time.t option
val bytes_sent : t -> int
(** Application bytes handed to {!send} that have been acknowledged. *)

val retransmits : t -> int
val send_queue_len : t -> int
(** Application bytes queued but not yet on the wire. *)

val send_drops : t -> int
(** Writes discarded because the send queue was at [send_queue_cap]. *)

val reasm_pending : t -> int
(** Bytes buffered out of order on the receive side. *)

val reasm_drops : t -> int
(** Out-of-order segments dropped at the reassembly cap. *)

(**/**)

(* Internal constructors and packet input, used by Endpoint only. *)

val create_active :
  Des.Engine.t ->
  tx:(Netsim.Packet.t -> unit) ->
  config:config ->
  local:Netsim.Addr.t ->
  remote:Netsim.Addr.t ->
  on_teardown:(t -> unit) ->
  t

val create_passive :
  Des.Engine.t ->
  tx:(Netsim.Packet.t -> unit) ->
  config:config ->
  local:Netsim.Addr.t ->
  remote:Netsim.Addr.t ->
  peer_isn:int ->
  on_teardown:(t -> unit) ->
  t

val handle_packet : t -> Netsim.Packet.t -> unit
