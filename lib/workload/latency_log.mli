(** Client-side ground-truth latency recording.

    This is the [T_client] of the paper: request-to-response latency as
    the client application observes it. The log keeps both a bucketed
    time series (for Fig. 3-style plots) and whole-run histograms per
    operation. *)

type op = Get | Set

val pp_op : Format.formatter -> op -> unit

type t

val create :
  Des.Engine.t -> ?bucket:Des.Time.t -> ?telemetry:Telemetry.Registry.t ->
  unit -> t
(** [bucket] is the time-series bucket width (default 500 ms).

    When [telemetry] is given, the log registers its metrics there: the
    [client.responses] counter and per-op latency histograms
    ([client.latency_get_ns]/[client.latency_set_ns]). The bucketed
    time series are read with {!series}. *)

val record : t -> op:op -> latency:Des.Time.t -> unit
(** Record one completed request at the current simulated time. *)

val retained_words : t -> int
(** Heap words held by the accumulated per-bucket series — measurement
    history that grows with run length by design. The soak battery
    subtracts it from live-memory flatness verdicts. *)

val count : t -> int
(** Total requests recorded. *)

val hist : t -> op -> Stats.Histogram.t
(** Whole-run latency histogram for one operation (ns). *)

val series : t -> op:op -> q:float -> Stats.Timeseries.row list
(** Per-bucket [q]-quantile rows for one operation over time. *)
