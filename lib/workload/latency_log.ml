type op = Get | Set

let pp_op ppf = function
  | Get -> Fmt.string ppf "GET"
  | Set -> Fmt.string ppf "SET"

type t = {
  engine : Des.Engine.t;
  get_hist : Stats.Histogram.t;
  set_hist : Stats.Histogram.t;
  get_series : Stats.Timeseries.t;
  set_series : Stats.Timeseries.t;
  m_count : Telemetry.Registry.counter;
}

let create engine ?(bucket = Des.Time.ms 500) ?telemetry () =
  let registry =
    match telemetry with
    | Some r -> r
    | None -> Telemetry.Registry.create ()
  in
  let t =
    {
      engine;
      get_hist = Stats.Histogram.create ();
      set_hist = Stats.Histogram.create ();
      get_series = Stats.Timeseries.create ~bucket;
      set_series = Stats.Timeseries.create ~bucket;
      m_count = Telemetry.Registry.counter registry "client.responses";
    }
  in
  Telemetry.Registry.attach_histogram registry "client.latency_get_ns"
    t.get_hist;
  Telemetry.Registry.attach_histogram registry "client.latency_set_ns"
    t.set_hist;
  t

let record t ~op ~latency =
  let now = Des.Engine.now t.engine in
  Telemetry.Registry.Counter.incr t.m_count;
  match op with
  | Get ->
      Stats.Histogram.record t.get_hist latency;
      Stats.Timeseries.record t.get_series ~at:now latency
  | Set ->
      Stats.Histogram.record t.set_hist latency;
      Stats.Timeseries.record t.set_series ~at:now latency

let retained_words t =
  (* The bucketed series grow one histogram per bucket for the life of
     the run — measurement history, not system state. Exposed so the
     soak battery can subtract the monitoring's own footprint from its
     live-memory verdicts (the summary histograms are fixed-size and
     not worth counting). *)
  Obj.reachable_words (Obj.repr (t.get_series, t.set_series))

let count t = Telemetry.Registry.Counter.value t.m_count
let hist t = function Get -> t.get_hist | Set -> t.set_hist

let series t ~op ~q =
  match op with
  | Get -> Stats.Timeseries.rows t.get_series ~q
  | Set -> Stats.Timeseries.rows t.set_series ~q
