(** Time-bucketed observation series.

    Figure 3 of the paper plots the 95th-percentile GET latency over
    wall-clock time; this module accumulates (timestamp, value) pairs
    into fixed-width buckets and extracts per-bucket quantile/mean/count
    series. Each non-empty bucket is one {!Histogram} (about 2k words),
    so a series suits many observations per bucket, such as a client's
    response latencies. *)

type t
(** A mutable bucketed series. *)

val create : bucket:Des.Time.t -> t
(** [create ~bucket] groups observations into consecutive windows of
    width [bucket].

    @raise Invalid_argument if [bucket <= 0]. *)

val record : t -> at:Des.Time.t -> int -> unit
(** [record t ~at v] files observation [v] (e.g. a latency in ns) under
    the bucket containing time [at]. *)

type row = {
  t_start : Des.Time.t;  (** Inclusive start of the bucket. *)
  count : int;
  mean : float;
  quantile : int;  (** The quantile requested when extracting. *)
}

val rows : t -> q:float -> row list
(** [rows t ~q] is the series in time order, one row per non-empty
    bucket, with [quantile] the per-bucket [q]-quantile. *)
