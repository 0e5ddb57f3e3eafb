(** Small helpers over timestamped sample lists. *)

val in_window :
  Bulk_flow.sample list -> lo:Des.Time.t -> hi:Des.Time.t -> int list
(** Values of the samples with [lo <= at < hi]. *)

val percentile : int list -> q:float -> float
(** Nearest-rank percentile of a list of values; [nan] on empty input. *)

val median : int list -> float

val median_relative_error : estimates:int list -> truth:float -> float
(** [|median estimates - truth| / truth]; [nan] if inputs are empty or
    [truth <= 0]. *)

val median_float : float list -> float
(** Upper median — the [n/2]-th smallest value; [nan] on empty
    input. *)

val windowed_quantile_us :
  Stats.Timeseries.row list -> lo:Des.Time.t -> hi:Des.Time.t -> float
(** {!median_float}, in µs, of the per-bucket quantiles of the rows
    starting in [\[lo, hi)] — a windowed p95 over p95 rows. *)
