(** CSV renderings of experiment results, for external plotting.

    Each function returns the full file contents (header included);
    {!write_file} puts it on disk. The schemas are stable: figures in
    the paper can be re-plotted from these files alone. *)

val fig2_samples : Fig2.result -> string
(** Schema: [t_s,series,value_us] — one row per sample, where [series]
    is [truth], [fixed-<delta>us] or [ensemble]; plus [chosen] rows
    carrying the chosen-δ timeline (value is δ in µs). *)

val fig3_series : Fig3.result -> string
(** Schema: [policy,t_s,count,p95_us,mean_us]. *)

val fig3_metrics : Fig3.result -> string
(** A Fig. 3 result's telemetry snapshot streams as long-form CSV,
    labelled by policy. Schema: [label,t_s,metric,index,value] — one
    row per (snapshot, metric) reading; [index] is empty for scalar
    metrics. *)

val churn_faults : Churn.result -> string
(** Schema: [fault,applied_s,cleared_s,detection_ms,recovery_ms,recovered]
    — one row per ground-truth fault interval; the fault column is the
    timeline spec of the event. Empty cells mean "never". *)

val churn_metrics : Churn.result -> string
(** {!fig3_metrics}' schema over a churn run, labelled ["churn"]. *)

val write_file : path:string -> string -> unit
(** Write (truncate) [path]. Raises [Sys_error] on failure. *)
