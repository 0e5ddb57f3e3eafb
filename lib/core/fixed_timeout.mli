(** Algorithm 1 — FIXEDTIMEOUT.

    Separates one flow's client-to-server packets into batches using a
    fixed inter-batch timeout δ: a packet arriving more than δ after the
    previous packet starts a new batch, and the gap between the first
    packets of successive batches is reported as a response-latency
    sample [T_LB]. *)

type t

val create : delta:Des.Time.t -> now:Des.Time.t -> t
(** Per-flow state, initialised at the flow's first observed packet
    ([time_last_batch = time_last_pkt = now], no sample for that
    packet).

    @raise Invalid_argument if [delta <= 0]. *)

val on_packet : t -> now:Des.Time.t -> Des.Time.t option
(** Process one packet arrival; [Some t_lb] iff the packet started a new
    batch (Algorithm 1 lines 2–5). *)

val samples_produced : t -> int
(** Total samples returned so far. *)
