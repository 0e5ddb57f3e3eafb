(** Periodic sampler of a metric {!Registry}.

    A snapshotter reads every registered counter, gauge and histogram on
    a DES timer and accumulates the readings as a flat, chronological
    row stream (for CSV dumps and time-indexed lookups). *)

type row = {
  at : Des.Time.t;  (** Simulated time the reading was taken. *)
  metric : string;
  index : int option;
  value : float;
}

type t

val start : Des.Engine.t -> Registry.t -> interval:Des.Time.t -> t
(** [start engine registry ~interval] samples every metric each
    [interval], first at [interval]. Extra out-of-cadence snapshots can
    be taken with {!snap} (e.g. at a fault-injection instant).

    @raise Invalid_argument if [interval <= 0]. *)

val snap : t -> unit
(** Take one snapshot now, in addition to the periodic cadence. *)

val stop : t -> unit
(** Stop the periodic timer. Already-collected rows remain readable. *)

val retained_words : t -> int
(** Heap words retained by the collected row stream — inherently
    O(duration). A memory-flatness monitor (the soak battery) subtracts
    this from the live-word count so the monitoring's own history does
    not fail its verdicts. *)

val rows : t -> row list
(** All rows, chronological (metrics in registration order within one
    snapshot). *)

val snap_count : t -> int
(** Snapshots taken so far (periodic and manual). *)

