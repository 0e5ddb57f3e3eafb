(** Cross-layer metric registry.

    Every simulated component (balancer, controller, links, servers,
    clients) registers its counters, gauges and latency histograms here
    under a stable dotted name, so figures, reports and CSV dumps read
    one uniform substrate instead of per-module accessor plumbing.

    {2 Naming scheme}

    Names are [component.metric] in [lower_snake] segments, e.g.
    ["lb.pkts_forwarded"] or ["server.queue_depth"]. Per-instance
    metrics (one per backend server, client, link, ...) register the
    same name once per instance with [~index] set to the instance
    number; scalar metrics omit [index]. Latency-valued metrics carry a
    [_ns] suffix. Registering the same (name, index) twice raises
    [Invalid_argument] — a registry models one component tree. *)

type t
(** A mutable registry of named metrics. *)

type counter
(** Monotonically increasing integer metric. *)

type gauge
(** Instantaneous float metric: either pushed with {!Gauge.set} or
    polled from a callback ({!gauge_fn}). *)

module Counter : sig
  val incr : counter -> unit
  val add : counter -> int -> unit
  (** @raise Invalid_argument on a negative increment. *)

  val value : counter -> int
end

module Gauge : sig
  val set : gauge -> float -> unit
  val read : gauge -> float
  (** Current value: the last {!set}, or the callback's result for
      {!gauge_fn} gauges; [nan] when never set. *)
end

val create : unit -> t

val counter : t -> ?index:int -> string -> counter
(** Register and return a fresh counter starting at 0. *)

val gauge : t -> ?index:int -> string -> gauge
(** Register and return a push-style gauge (initially [nan]). *)

val gauge_fn : t -> ?index:int -> string -> (unit -> float) -> unit
(** Register a polled gauge: the callback is evaluated at read time
    (snapshots, reports). Return [nan] for "no value yet". *)

val histogram : t -> ?index:int -> string -> Stats.Histogram.t
(** Register and return a fresh latency histogram (values in ns). *)

val attach_histogram : t -> ?index:int -> string -> Stats.Histogram.t -> unit
(** Register an existing histogram a component already maintains. *)

val find_histogram : t -> ?index:int -> string -> Stats.Histogram.t option
val mem : t -> ?index:int -> string -> bool

val value : t -> ?index:int -> string -> float option
(** Current scalar reading of a counter or gauge; [None] for unknown
    names and for histogram metrics. *)

type sample = { metric : string; index : int option; value : float }
(** One scalar reading. Histograms read as three derived samples named
    [name.count], [name.mean_ns] and [name.p95_ns]. *)

val read : t -> sample list
(** Read every counter, gauge and histogram, in registration order. *)
