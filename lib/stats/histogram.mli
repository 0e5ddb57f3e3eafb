(** Log-linear latency histogram (HDR-histogram style).

    Values are non-negative integers (we use nanoseconds). Each power-of-
    two magnitude is split into a fixed number of linear sub-buckets, so
    relative quantile error is bounded by [1/sub_buckets] regardless of
    the value's magnitude — the standard structure used by latency
    measurement tools. *)

type t
(** Mutable histogram. *)

val create : ?sub_bucket_bits:int -> unit -> t
(** [create ()] covers the whole non-negative [int] range. Each octave
    has [2^sub_bucket_bits] linear buckets (default 5 bits = 32 buckets,
    i.e. ~3 % worst-case relative error). *)

val record : t -> int -> unit
(** [record t v] adds observation [v]. Negative values raise
    [Invalid_argument]. *)

val count : t -> int
(** Total observations recorded. *)

val min_value : t -> int
(** Exact minimum recorded value; 0 if empty. *)

val max_value : t -> int
(** Exact maximum recorded value; 0 if empty. *)

val mean : t -> float
(** Exact mean of recorded values ([nan] if empty): the histogram keeps
    the running sum, so the mean is not subject to bucketing error. *)

val quantile : t -> float -> int
(** [quantile t q] is an estimate of the [q]-quantile (0 <= q <= 1),
    accurate to the bucket width (~3 % by default). Returns 0 if empty. *)

val clear : t -> unit
(** Drop all recorded observations. *)

val fold_buckets : t -> init:'a -> f:('a -> lo:int -> hi:int -> count:int -> 'a) -> 'a
(** Fold over non-empty buckets in increasing value order. [lo]/[hi] are
    the inclusive value bounds of the bucket. *)
