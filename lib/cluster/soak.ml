type config = {
  scenario : Scenario.config;
  timeline : Faults.Timeline.t;
  fault_period : Des.Time.t;
  duration : Des.Time.t;
  warmup : Des.Time.t;
  drain : Des.Time.t;
  windows : int;
  growth_tolerance : float;
  monotonic_tolerance : float;
  watched : (string * float option) list;
  pathologies : (Workload.Pathology.kind * int) list;
}

(* The churn cluster (3 latency-aware backends, one LB) with a coarser metric
   cadence: a soak holds thousands of snapshots, and the snapshot store
   itself is heap the flatness check must not mistake for a leak. *)
let default_scenario =
  let base = Churn.default_scenario in
  {
    base with
    Scenario.n_clients = 2;
    metrics_interval = Des.Time.sec 5;
    latency_bucket = Des.Time.sec 5;
    (* A short flow idle timeout keeps the flow-table working set (churn
       rate x timeout) small and lets it plateau inside the warmup
       window, so live-memory flatness measures steady state rather
       than the capacity ramp. *)
    lb =
      {
        base.Scenario.lb with
        Inband.Config.flow_idle_timeout = Des.Time.sec 2;
        sweep_interval = Des.Time.ms 500;
      };
    (* Reap server connections orphaned by lost client RSTs well inside
       the post-soak drain window. *)
    server =
      {
        base.Scenario.server with
        Memcache.Server.idle_timeout = Des.Time.sec 10;
      };
  }

(* Growth-checked gauges, plus two absolute bounds. Tombstones sawtooth
   between purge rebuilds and the flow table's capacity takes minutes of
   churn to find its plateau, so their windowed means never settle —
   what must hold is that the tombstone ratio stays clear of the 3/4
   resize threshold (purges keep happening) and that capacity plateaus
   at the churn × idle-timeout working set instead of doubling forever
   (the churn cluster's is ~7k flows; 64k = two runaway doublings). *)
let default_watched =
  [
    ("soak.live_words", None);
    ("soak.words_per_flow", None);
    (* Heap *size* is allocator policy, not a leak signal: it ramps for
       the first sim-minutes while the pacer finds its working set (a
       growth check on a short run flags pure warm-up) and it never
       shrinks. What it can catch — and corrected live words cannot —
       is a floating-garbage catastrophe, so it gets a blow-up ceiling:
       ~5x the default battery's steady-state heap (~6.5M words). *)
    ("soak.heap_words", Some 32_000_000.0);
    ("reasm.pending_bytes", None);
    ("conn.send_backlog", None);
    ("lb.flow_capacity", Some 65536.0);
    ("soak.tombstone_ratio", Some 0.80);
    ("des.pending", None);
    (* A fleet's control plane: snapshots sent but neither received nor
       dropped. Growth is a lost-wakeup bug in the plane; 0 without one. *)
    ("coord.backlog", None);
  ]

let default_pathologies =
  [
    (Workload.Pathology.Slowloris { drip = Des.Time.ms 5 }, 4);
    (Workload.Pathology.Pipeline_burst { burst = 32; gap = Des.Time.ms 20 }, 2);
    (Workload.Pathology.Reconnect_storm { hold = Des.Time.ms 50 }, 4);
    (Workload.Pathology.Gap_flood { rate = Des.Time.ms 2; segment = 512 }, 2);
    (Workload.Pathology.Rst_flood { rate = Des.Time.ms 1 }, 1);
  ]

let default_config =
  {
    scenario = default_scenario;
    timeline = Churn.default_timeline;
    fault_period = Des.Time.sec 20;
    duration = Des.Time.sec (30 * 60);
    warmup = Des.Time.sec 60;
    drain = Des.Time.sec 20;
    windows = 6;
    growth_tolerance = 0.35;
    monotonic_tolerance = 0.10;
    watched = default_watched;
    pathologies = default_pathologies;
  }

let kind_label : Workload.Pathology.kind -> string = function
  | Slowloris _ -> "slowloris"
  | Pipeline_burst _ -> "burst"
  | Reconnect_storm _ -> "reconnect"
  | Gap_flood _ -> "gap-flood"
  | Rst_flood _ -> "rst-flood"

type verdict = {
  metric : string;
  means : float array; (* per-window means; NaN marks an empty window *)
  growth : float;
  monotonic : bool;
  bound : float option;
  flat : bool;
}

(* Windowed flatness over snapshot rows: bucket the [from_, until] span
   into [windows] equal windows, average the metric (summed across
   indexes at each instant) per window, and compare the first and last
   non-empty windows. Growth is normalised by the series' own mean so a
   bounded gauge sitting at its cap reads flat while a leak that starts
   near zero and climbs does not. Strictly monotonic growth is flagged
   at a lower threshold — a slow leak never oscillates. An absolute
   [bound] replaces the growth checks and applies to every sampled
   instant, not the window means: a ceiling (a cap, a resize threshold)
   is breached by one excursion, which averaging would launder. *)
let flatness ?bound rows ~metric ~from_ ~until ~windows ~growth_tolerance
    ~monotonic_tolerance =
  if windows < 2 then invalid_arg "Soak.flatness: need at least 2 windows";
  if until <= from_ then invalid_arg "Soak.flatness: empty span";
  let totals = Hashtbl.create 97 in
  List.iter
    (fun (r : Telemetry.Snapshot.row) ->
      if String.equal r.metric metric && r.at >= from_ && r.at <= until then
        Hashtbl.replace totals r.at
          (Option.value ~default:0.0 (Hashtbl.find_opt totals r.at) +. r.value))
    rows;
  let span = until - from_ in
  let sums = Array.make windows 0.0 in
  let counts = Array.make windows 0 in
  Hashtbl.iter
    (fun at total ->
      let w = Stdlib.min (windows - 1) ((at - from_) * windows / span) in
      sums.(w) <- sums.(w) +. total;
      counts.(w) <- counts.(w) + 1)
    totals;
  let means =
    Array.init windows (fun i ->
        if counts.(i) = 0 then Float.nan
        else sums.(i) /. float_of_int counts.(i))
  in
  let filled =
    Array.to_list means |> List.filter (fun m -> not (Float.is_nan m))
  in
  match filled with
  | [] | [ _ ] ->
      { metric; means; growth = 0.0; monotonic = false; bound; flat = true }
  | first :: _ ->
      let last = List.nth filled (List.length filled - 1) in
      let avg =
        List.fold_left ( +. ) 0.0 filled /. float_of_int (List.length filled)
      in
      let growth = (last -. first) /. Stdlib.max (Float.abs avg) 1e-9 in
      let monotonic =
        let rec strictly_up = function
          | a :: (b :: _ as rest) -> a < b && strictly_up rest
          | _ -> true
        in
        strictly_up filled
      in
      let flat =
        match bound with
        | Some b ->
            Hashtbl.fold (fun _ total acc -> acc && total <= b) totals true
        | None ->
            growth <= growth_tolerance
            && not (monotonic && growth > monotonic_tolerance)
      in
      { metric; means; growth; monotonic; bound; flat }

(* Every post-warmup latency estimate must be finite: NaN (estimator
   lost all samples) or infinity (a diverged EWMA/median) on a backend
   that is still taking traffic is an estimator-health failure. *)
let estimator_healthy rows ~after =
  List.for_all
    (fun (r : Telemetry.Snapshot.row) ->
      (not (String.equal r.metric "lb.est_latency_ns" && r.at >= after))
      || Float.is_finite r.value)
    rows

(* Tile one period of faults across the soak. Events whose revert would
   land past [until] are dropped so every interval the injector records
   can complete. *)
let repeat_timeline timeline ~period ~until =
  if period <= 0 then invalid_arg "Soak: fault_period must be positive";
  let rec go k acc =
    let base = k * period in
    if base >= until then List.rev acc
    else begin
      let shifted =
        List.filter_map
          (fun (e : Faults.Timeline.event) ->
            let at = base + e.at in
            let finish = at + Option.value ~default:0 e.duration in
            if finish < until then
              Some
                (Faults.Timeline.event ~at ~target:e.target ~fault:e.fault
                   ?duration:e.duration ())
            else None)
          timeline
      in
      go (k + 1) (List.rev_append shifted acc)
    end
  in
  go 0 []

type result = {
  duration : Des.Time.t;
  sim_minutes : float;
  verdicts : verdict list;
  stuck_flows : int;
  stuck_conns : int;
  stuck_states : (string * int) list;
  estimator_ok : bool;
  pcc_checked : int;
  pcc_violations : int;
  reasm_drops : int;
  send_drops : int;
  fault_intervals : int;
  pathology_conns : int;
  gap_segments : int;
  rsts_sent : int;
  responses : int;
  p95_us : float;
  events_fired : int;
  coord_msgs : int;
  coord_suppressed : int;
  coord_imposed : int;
  coord_stale : int;
  rows : Telemetry.Snapshot.row list;
}

let check config result =
  let gap_flood =
    List.exists
      (function Workload.Pathology.Gap_flood _, conns -> conns > 0 | _ -> false)
      config.pathologies
  in
  Report.failed
    [
      ("flatness", List.for_all (fun v -> v.flat) result.verdicts);
      ("stuck", result.stuck_flows = 0 && result.stuck_conns = 0);
      ("estimator", result.estimator_ok);
      ("pcc", result.pcc_violations = 0);
      ("reasm-cap", (not gap_flood) || result.reasm_drops > 0);
    ]

let ok config result = check config result = []

(* Pathology clients live at IPs 200+, clear of the scenario's servers
   (10+) and memtier clients (100+). *)
let pathology_ip j = 200 + j

let run ?(config = default_config) () =
  let s = Scenario.build config.scenario in
  let engine = Scenario.engine s in
  let registry = Scenario.telemetry s in
  let balancers = Scenario.balancers s in
  (* Fleet gauges sum over the balancers; with one LB they are that
     LB's own. *)
  let sum_balancers f = Array.fold_left (fun acc b -> acc + f b) 0 balancers in
  (* The engine health gauge (des.pending) is registered by
     [Scenario.build] itself. *)
  (* The headline soak metric: live heap words, absolute and per
     tracked flow. [Gc.stat] (unlike [quick_stat]) runs a full major
     collection first, so this reads memory actually retained rather
     than floating garbage the pacer has not reclaimed yet. The
     monitor's own history (snapshot rows, latency series) is
     subtracted: collecting rows every interval is inherently
     O(duration), and the monitor must not fail its own flatness
     verdict. The same correction applies to [soak.heap_words] (total
     heap chunks): the raw heap size necessarily ratchets up as
     the monitor's live history grows — OCaml rarely returns chunks to
     the OS — so only the history-corrected figure can be
     growth-checked. Cached per instant so all gauges share one
     collection. *)
  let gc_sample =
    let cache = ref (-1, 0, 0) in
    fun () ->
      let now = Des.Engine.now engine in
      let cached_at, _, _ = !cache in
      if cached_at <> now then begin
        let st = Gc.stat () in
        let monitor = Scenario.retained_words s in
        cache := (now, st.Gc.live_words - monitor, st.Gc.heap_words - monitor)
      end;
      !cache
  in
  let live_words () =
    let _, live, _ = gc_sample () in
    live
  in
  Telemetry.Registry.gauge_fn registry "soak.live_words" (fun () ->
      float_of_int (live_words ()));
  Telemetry.Registry.gauge_fn registry "soak.heap_words" (fun () ->
      let _, _, heap = gc_sample () in
      float_of_int heap);
  Telemetry.Registry.gauge_fn registry "soak.words_per_flow" (fun () ->
      float_of_int (live_words ())
      /. float_of_int
           (Stdlib.max 1 (sum_balancers Inband.Balancer.active_flows)));
  Telemetry.Registry.gauge_fn registry "soak.tombstone_ratio" (fun () ->
      float_of_int (sum_balancers Inband.Balancer.flow_tombstones)
      /. float_of_int
           (Stdlib.max 1 (sum_balancers Inband.Balancer.flow_capacity)));
  let coord_count f =
    match Scenario.coordination s with Some c -> f c | None -> 0
  in
  Telemetry.Registry.gauge_fn registry "coord.backlog" (fun () ->
      float_of_int
        (coord_count Coordination.messages_sent
        - coord_count Coordination.messages_received
        - coord_count Coordination.dropped));
  let injector =
    Scenario.install_faults s
      (repeat_timeline config.timeline ~period:config.fault_period
         ~until:config.duration)
  in
  let oracles = Scenario.attach_pcc s in
  (* Adversaries round-robin over the fleet's VIPs: every LB gets
     attacked, not just the first. *)
  let pathologies =
    List.mapi
      (fun j (kind, connections) ->
        let lb = j mod Array.length balancers in
        let p =
          Workload.Pathology.create (Scenario.fabric s)
            ~host_ip:(pathology_ip j) ~vip:(Scenario.vip ~lb s)
            ~config:{ kind; connections; tcp = Tcpsim.Conn.default_config }
            ~telemetry:registry ~index:j
            ~rng:
              (Des.Rng.create
                 ~seed:(config.scenario.Scenario.seed + 7919 + j))
            ()
        in
        Scenario.wire_client_host ~lb s ~host_ip:(pathology_ip j);
        p)
      config.pathologies
  in
  List.iter Workload.Pathology.start pathologies;
  Scenario.run s ~until:config.duration;
  (* Quiesce: stop the attackers, then run on so FINs complete, RTO
     timers die out and the idle sweep reaps every flow. Anything still
     alive afterwards is stuck. *)
  List.iter Workload.Pathology.stop pathologies;
  Scenario.advance s ~until:(config.duration + config.drain);
  Scenario.snap_all s;
  let rows = Scenario.snap_rows s in
  let verdicts =
    List.map
      (fun (metric, bound) ->
        flatness ?bound rows ~metric ~from_:config.warmup
          ~until:config.duration ~windows:config.windows
          ~growth_tolerance:config.growth_tolerance
          ~monotonic_tolerance:config.monotonic_tolerance)
      config.watched
  in
  let estimator_ok =
    match Inband.Balancer.controller (Scenario.balancer s) with
    | None -> true
    | Some _ -> estimator_healthy rows ~after:config.warmup
  in
  let sum_servers f =
    Array.fold_left
      (fun acc srv -> acc + f (Memcache.Server.endpoint srv))
      0 (Scenario.servers s)
  in
  (* Which states the leftover server connections are stuck in — the
     first question a failing stuck-conns check asks. Sorted by name:
     the census folds hash tables, whose order is no contract. *)
  let stuck_states =
    let bump acc name =
      match List.assoc_opt name acc with
      | Some n -> (name, n + 1) :: List.remove_assoc name acc
      | None -> (name, 1) :: acc
    in
    Array.fold_left
      (fun acc srv ->
        Tcpsim.Endpoint.fold_conns
          (fun acc conn ->
            bump acc
              (match Tcpsim.Conn.state conn with
              | Syn_sent -> "syn_sent"
              | Syn_received -> "syn_received"
              | Established -> "established"
              | Fin_wait -> "fin_wait"
              | Close_wait -> "close_wait"
              | Last_ack -> "last_ack"
              | Closed -> "closed"))
          (Memcache.Server.endpoint srv)
          acc)
      [] (Scenario.servers s)
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let sum_path f = List.fold_left (fun acc p -> acc + f p) 0 pathologies in
  let sum_oracles f = Array.fold_left (fun acc o -> acc + f o) 0 oracles in
  let get_latency = Workload.Latency_log.(hist (Scenario.log s) Get) in
  let p95_us =
    float_of_int (Stats.Histogram.quantile get_latency 0.95) /. 1e3
  in
  let responses = Workload.Latency_log.count (Scenario.log s) in
  let result =
    {
      duration = config.duration;
      sim_minutes = Des.Time.to_float_s config.duration /. 60.0;
      verdicts;
      stuck_flows = sum_balancers Inband.Balancer.active_flows;
      stuck_conns = sum_servers Tcpsim.Endpoint.active_connections;
      stuck_states;
      estimator_ok;
      pcc_checked = sum_oracles Oracle.checked;
      pcc_violations = sum_oracles Oracle.violation_count;
      reasm_drops = sum_servers Tcpsim.Endpoint.reasm_drops;
      send_drops = sum_servers Tcpsim.Endpoint.send_drops;
      fault_intervals = List.length (Faults.Injector.intervals injector);
      pathology_conns = sum_path Workload.Pathology.conns_opened;
      gap_segments = sum_path Workload.Pathology.gap_segments;
      rsts_sent = sum_path Workload.Pathology.rsts_sent;
      responses;
      p95_us;
      events_fired = Scenario.events_fired s;
      coord_msgs = coord_count Coordination.messages_sent;
      coord_suppressed = coord_count Coordination.suppressed;
      coord_imposed = coord_count Coordination.imposed;
      coord_stale = coord_count Coordination.stale;
      rows;
    }
  in
  Scenario.shutdown s;
  result

let print ?(config = default_config) result =
  let scenario = config.scenario in
  let fleet =
    if scenario.Scenario.n_lbs = 1 then ""
    else
      Fmt.str "%d LBs (%s), " scenario.Scenario.n_lbs
        (Coordination.policy_to_string
           scenario.Scenario.coord.Coordination.policy)
  in
  print_endline
    (Report.section
       (Fmt.str "Soak: %s%.1f simulated minutes, %d fault intervals, %s" fleet
          result.sim_minutes result.fault_intervals
          (String.concat "+"
             (List.map (fun (k, _) -> kind_label k) config.pathologies))));
  let headers = [ "metric"; "first"; "last"; "growth"; "verdict" ] in
  let first_last means =
    let filled =
      Array.to_list means |> List.filter (fun m -> not (Float.is_nan m))
    in
    match filled with
    | [] -> (Float.nan, Float.nan)
    | first :: _ -> (first, List.nth filled (List.length filled - 1))
  in
  let rows =
    List.map
      (fun v ->
        let first, last = first_last v.means in
        [
          v.metric;
          Fmt.str "%.1f" first;
          Fmt.str "%.1f" last;
          (match v.bound with
          | Some b -> Fmt.str "bound %.2f" b
          | None ->
              Fmt.str "%+.1f%%%s" (100.0 *. v.growth)
                (if v.monotonic then " (monotonic)" else ""));
          (if v.flat then "flat" else "FAIL");
        ])
      result.verdicts
  in
  print_endline (Report.table ~headers rows);
  if scenario.Scenario.coord.Coordination.policy <> Coordination.Uncoordinated
  then
    Fmt.pr "control plane: %d msgs, %d suppressed, %d imposed, %d stale@."
      result.coord_msgs result.coord_suppressed result.coord_imposed
      result.coord_stale;
  Fmt.pr
    "stuck: flows=%d conns=%d%s  estimator=%s  pcc: %d checked, %d \
     violations@."
    result.stuck_flows result.stuck_conns
    (match result.stuck_states with
    | [] -> ""
    | states ->
        Fmt.str " (%s)"
          (String.concat ", "
             (List.map (fun (s, n) -> Fmt.str "%s=%d" s n) states)))
    (if result.estimator_ok then "finite" else "DIVERGED")
    result.pcc_checked result.pcc_violations;
  Fmt.pr
    "caps: reasm_drops=%d send_drops=%d  adversaries: %d conns, %d gap \
     segments, %d RSTs@."
    result.reasm_drops result.send_drops result.pathology_conns
    result.gap_segments result.rsts_sent;
  Fmt.pr "throughput: %d responses  p95=%.1fus  events=%d  verdict=%s@."
    result.responses result.p95_us result.events_fired
    (if ok config result then "PASS" else "FAIL")
