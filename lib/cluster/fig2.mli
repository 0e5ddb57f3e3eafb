(** Figure 2 reproduction: estimator accuracy on a backlogged flow.

    (a) FIXEDTIMEOUT with each candidate δ, compared to the client
    ground truth, before and after a +1 ms RTT step at t = 3 s: too-low
    timeouts produce floods of (often low) samples, too-high timeouts
    produce few-but-huge samples.
    (b) ENSEMBLETIMEOUT with sample-cliff detection tracks the ground
    truth across the step, adapting its chosen δ. *)

type phase = { count : int; median_us : float; p10_us : float; p90_us : float }
(** Sample statistics over one window of the run ([nan] when empty). *)

type row = { label : string; before : phase; after : phase }

type result = {
  config : Bulk_flow.config;
  raw : Bulk_flow.result;
  truth : row;
  fixed : row list;  (** One per candidate δ. *)
  ensemble : row;
  chosen_timeline : (Des.Time.t * Des.Time.t) list;
  err_before : float;  (** Ensemble median relative error vs truth. *)
  err_after : float;
}

val run : ?config:Bulk_flow.config -> unit -> result

val summary_table : result -> string
(** The Fig. 2(a) table exactly as {!print} renders it. *)

val tracking_lines : result -> string list
(** The Fig. 2(b) summary exactly as {!print} renders it: the relative
    error line followed by the chosen-δ timeline, one line each. *)

val print : result -> unit
(** Write the Fig. 2(a) table, the Fig. 2(b) summary and the chosen-δ
    timeline to stdout. *)
