(** Per-server latency bookkeeping at the LB.

    Every in-band sample produced by the estimator is attributed to the
    server its flow is pinned to; the controller acts on the smoothed
    (EWMA) per-server estimates. *)

type t

val create : n:int -> ewma_alpha:float -> ?window:int -> unit -> t
(** [n] servers; EWMA smoothing factor for the estimates. With
    [window > 0] the estimate is instead the median of the last
    [window] samples — far more robust to the heavy queueing tails of
    in-band samples than the paper's EWMA (see the estimator ablation).

    @raise Invalid_argument if [window < 0]. *)

val record : t -> server:int -> sample:Des.Time.t -> at:Des.Time.t -> unit
(** Fold in one latency sample (ns) for [server]. *)

val estimate : t -> int -> float option
(** Smoothed latency estimate for a server, ns; [None] before its first
    sample. *)

val sample_count : t -> int -> int
val last_sample_at : t -> int -> Des.Time.t option
