(** Plain-text tables and small formatting helpers for experiment
    output (the "rows/series the paper reports"). *)

val table : headers:string list -> string list list -> string
(** Render an aligned table with a header rule. Rows shorter than the
    header are padded with empty cells. *)

val pct : float -> string
(** Format a fraction as a percentage ("12.5%"). *)

val opt_ms : float option -> string
(** Format a duration in ms ("3.9ms"), or "-" when there is none. *)

val nan_us : float -> string
(** Format a duration in µs ("312.4us"), or "-" when it is nan: the
    median p95 of a window that holds no samples. *)

val registry : Telemetry.Registry.t -> string
(** Render a registry's current readings as a table (one row per
    metric, in registration order; [_ns]-suffixed metrics formatted
    with an adaptive unit, e.g. "187.3us"). *)

val section : string -> string
(** A banner line for experiment output. *)

val failed : (string * bool) list -> string list
(** An experiment contract's verdict: the names of the tripwires whose
    condition does not hold, in order; [[]] when the contract holds. *)
