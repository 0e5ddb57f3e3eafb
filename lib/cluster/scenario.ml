type config = {
  n_lbs : int;
  n_servers : int;
  n_clients : int;
  policy : Inband.Policy.t;
  lb : Inband.Config.t;
  coord : Coordination.config;
  table_size : int;
  client_lb_delay : Des.Time.t;
  client_delay_overrides : (int * Des.Time.t) list;
  lb_server_delay : Des.Time.t;
  server_client_delay : Des.Time.t;
  return_jitter : Stats.Dist.t option;
  link_rate_bps : int;
  server : Memcache.Server.config;
  server_overrides : (int * Memcache.Server.config) list;
  interference : (int * Stats.Dist.t * Stats.Dist.t) list;
  memtier : Workload.Memtier.config;
  memtier_overrides : (int * Workload.Memtier.config) list;
  key_count : int;
  key_dist : Workload.Keyspace.dist;
  preload_value_size : int;
  latency_bucket : Des.Time.t;
  metrics_interval : Des.Time.t;
  seed : int;
  shards : int;
}

let default_config =
  {
    n_lbs = 1;
    n_servers = 2;
    n_clients = 1;
    policy = Inband.Policy.Static_maglev;
    lb = Inband.Config.default;
    coord = Coordination.default_config;
    table_size = 4099;
    client_lb_delay = Des.Time.us 30;
    client_delay_overrides = [];
    lb_server_delay = Des.Time.us 25;
    server_client_delay = Des.Time.us 55;
    return_jitter = Some (Stats.Dist.Exponential { mean = 10_000.0 });
    link_rate_bps = 10_000_000_000;
    server = Memcache.Server.default_config;
    server_overrides = [];
    interference = [];
    memtier = Workload.Memtier.default_config;
    memtier_overrides = [];
    key_count = 10_000;
    key_dist = Workload.Keyspace.Uniform;
    preload_value_size = 64;
    latency_bucket = Des.Time.ms 500;
    metrics_interval = Des.Time.ms 500;
    seed = 0xfeed;
    shards = 1;
  }

type t = {
  runtime : Des.Shard.t;
  engines : Des.Engine.t array;
  fabrics : Netsim.Fabric.t array;
  balancers : Inband.Balancer.t array;
  coordination : Coordination.t option;
  servers : Memcache.Server.t array;
  clients : Workload.Memtier.t array;
  logs : Workload.Latency_log.t option array;  (* indexed by shard *)
  config : config;
  client_lb_links : Netsim.Link.t array;
  lb_server_links : Netsim.Link.t array array;  (* .(l).(i): LB l → server i *)
  registries : Telemetry.Registry.t array;
      (* one per shard, then one per LB after the first *)
  snapshotters : Telemetry.Snapshot.t array;  (* one per registry *)
}

(* IP plan: VIPs = 1, 2, … (one per LB); servers = 10, 11, …; clients =
   100, 101, … *)
let vip_ip l = 1 + l
let server_ip i = 10 + i
let client_ip j = 100 + j
let service_port = 11211
let vip_addr l = Netsim.Addr.v (vip_ip l) service_port
let max_lbs = server_ip 0 - vip_ip 0

(* Registries beyond the shards' belong to the extra LBs, which live on
   shard 0: that is the engine their snapshotters run on. *)
let registry_engine engines k =
  engines.(if k < Array.length engines then k else 0)

(* LB 0 keeps the historical rng labels, so a one-LB build is exactly
   the single-balancer cluster; further LBs get suffixed streams. *)
let lb_label l name = if l = 0 then name else Fmt.str "%s-l%d" name l

(* Placement (DESIGN.md §15): the balancer, servers, fault injector and
   controller share shard 0 — every control-plane mutation stays on one
   domain — while clients spread round-robin over shards 1..K-1. The
   shard cut therefore runs through the client→LB request legs and the
   server→client DSR return legs; LB→server links are always local. At
   K=1 everything degenerates to the historical single-engine build. *)
let shard_of_client config j =
  if config.shards = 1 then 0 else 1 + (j mod (config.shards - 1))

let build config =
  if config.shards < 1 then invalid_arg "Scenario.build: shards must be >= 1";
  if config.n_lbs < 1 || config.n_lbs > max_lbs then
    invalid_arg (Fmt.str "Scenario.build: n_lbs must be in 1..%d" max_lbs);
  let shards = config.shards in
  (* The lookahead bound is derived from the cross-shard link set while
     wiring, below; create with a placeholder and tighten before [run]. *)
  let runtime = Des.Shard.create ~shards ~lookahead:(Des.Time.ms 1) () in
  let engines = Array.init shards (Des.Shard.engine runtime) in
  let engine = engines.(0) in
  let fabrics = Array.map Netsim.Fabric.create engines in
  let fabric = fabrics.(0) in
  (* Tagged cross-shard delivery: a packet rides the flat inbox as
     (tag = destination ip, payload = packet) — no closure per post. *)
  Array.iteri
    (fun k fab ->
      Des.Shard.set_sink runtime ~dst:k (fun ip payload ->
          Netsim.Fabric.deliver fab ~ip (Obj.obj payload : Netsim.Packet.t)))
    fabrics;
  let root_rng = Des.Rng.create ~seed:config.seed in
  let server_ips = Array.init config.n_servers server_ip in
  (* One registry per shard: a component registers its metrics with its
     owning shard's registry, and that shard's snapshotter samples them
     from its own domain, so polling never crosses a domain boundary.
     At K=1 this is the historical single cluster-wide registry. *)
  let registries = Array.init shards (fun _ -> Telemetry.Registry.create ()) in
  let telemetry = registries.(0) in
  (* GC counters are process-wide; registering them once keeps merged
     reads single-sourced. *)
  Telemetry.Registry.install_gc_metrics telemetry;
  (* Engine health gauges: a stuck-timer leak grows the pending count
     without bound; the wheel gauges catch cascade pathologies. Every
     scenario consumer (soak monitor, --metrics-csv) watches the engine
     through these. *)
  Array.iteri
    (fun k reg ->
      let engine_gauge name f =
        Telemetry.Registry.gauge_fn reg name (fun () ->
            float_of_int (f engines.(k)))
      in
      engine_gauge "des.pending" Des.Engine.pending;
      engine_gauge "des.queue_length" Des.Engine.queue_length;
      engine_gauge "des.wheel_size" Des.Engine.wheel_size)
    registries;
  (* Barrier-level health (windows, skipped windows, stall, inbox
     high-water) only exists under real sharding; K=1 keeps the
     historical metric set. *)
  if shards > 1 then Sharded.install_metrics runtime telemetry;
  (* Every LB lives on shard 0 with its own VIP. LB 0 reports into
     shard 0's registry; each further LB registers the same [lb.*],
     [ctl.*] and [link.lb_server.*] names, so it gets a registry of its
     own (summed by the merged readers). *)
  let lb_registries =
    Array.init config.n_lbs (fun l ->
        if l = 0 then telemetry else Telemetry.Registry.create ())
  in
  (* The balancers register their VIP hosts, so build them first. *)
  let balancers =
    Array.init config.n_lbs (fun l ->
        Inband.Balancer.create fabric ~vip:(vip_addr l) ~server_ips
          ~policy:config.policy ~config:config.lb
          ~table_size:config.table_size
          ~rng:(Des.Rng.split root_rng ~label:(lb_label l "p2c"))
          ~telemetry:lb_registries.(l) ())
  in
  let coordination =
    if config.coord.Coordination.policy = Coordination.Uncoordinated then None
    else
      let controllers =
        Array.map
          (fun b ->
            match Inband.Balancer.controller b with
            | Some c -> c
            | None ->
                invalid_arg
                  "Scenario.build: coordination needs the latency-aware policy")
          balancers
      in
      Some
        (Coordination.create ~engine ~config:config.coord ~controllers
           ~registries:lb_registries
           ~rng:(Des.Rng.split root_rng ~label:"coord")
           ())
  in
  (* Forward-path links carry an rng so the fault layer can turn on
     loss bursts; each gets its own label-split stream, so unused rngs
     don't perturb any other stream. A link lives on its *source* host's
     shard: transit timers run on the sending engine, and a remote
     receiving end hands the packet across the shard boundary. *)
  let plain_link ?telemetry ?metric ?index ?rng ~shard:k delay =
    Netsim.Link.create engines.(k) ~delay ~rate_bps:config.link_rate_bps
      ?telemetry ?metric ?index ?rng ()
  in
  let return_link ~shard:k delay ~rng =
    match config.return_jitter with
    | None -> plain_link ~shard:k delay
    | Some jitter ->
        Netsim.Link.create engines.(k) ~delay ~rate_bps:config.link_rate_bps
          ~jitter ~rng ()
  in
  (* The lookahead is the minimum base propagation delay over the cut
     (cross-shard) links — jitter and injected faults only ever add
     delay, so the base is a sound lower bound on any crossing. *)
  let min_cut = ref max_int in
  let wire fab ~src_shard ~dst_shard ~src ~dst ~delay link =
    if src_shard = dst_shard then Netsim.Fabric.add_link fab ~src ~dst link
    else begin
      min_cut := Stdlib.min !min_cut delay;
      Netsim.Fabric.add_remote_link fab ~src ~dst
        ~remote:(fun ~at pkt ->
          Des.Shard.post_remote_tagged runtime ~src:src_shard ~dst:dst_shard
            ~at ~tag:dst (Obj.repr pkt))
        link
    end
  in
  (* Servers: endpoint at its own IP, listening on the service port of
     any destination (DSR; a wildcard bind, like VIPs on loopback), so
     every LB's VIP reaches them. *)
  let servers =
    Array.init config.n_servers (fun i ->
        let rng =
          Des.Rng.split root_rng ~label:(Fmt.str "server-%d" i)
        in
        let interference =
          List.find_opt (fun (s, _, _) -> s = i) config.interference
          |> Option.map (fun (_, gap, duration) ->
                 Memcache.Interference.periodic engine
                   ~rng:(Des.Rng.split root_rng ~label:(Fmt.str "intf-%d" i))
                   ~gap ~duration)
        in
        let server_config =
          match List.assoc_opt i config.server_overrides with
          | Some c -> c
          | None -> config.server
        in
        Memcache.Server.create fabric ~host_ip:(server_ip i)
          ~listen_addr:(Netsim.Addr.v 0 service_port)
          ~config:server_config ?interference ~telemetry ~index:i ~rng ())
  in
  (* Preload every server's store so GETs hit immediately. *)
  let keyspace_names =
    Workload.Keyspace.create ~count:config.key_count
      ~dist:Workload.Keyspace.Uniform
      ~rng:(Des.Rng.split root_rng ~label:"preload")
      ()
  in
  Array.iter
    (fun server ->
      Memcache.Store.preload
        (Memcache.Server.store server)
        ~count:config.key_count
        ~key_of:(Workload.Keyspace.key_of keyspace_names)
        ~value_size:config.preload_value_size)
    servers;
  (* Clients and the latency logs: one log per client-hosting shard,
     registered with that shard's registry, so recording a latency stays
     a shard-local write. Readers merge (see [series]/[histogram]). *)
  let hosts_clients k =
    if shards = 1 then k = 0
    else
      let rec probe j =
        j < config.n_clients
        && (shard_of_client config j = k || probe (j + 1))
      in
      probe 0
  in
  let logs =
    Array.init shards (fun k ->
        if hosts_clients k then
          Some
            (Workload.Latency_log.create engines.(k)
               ~bucket:config.latency_bucket ~telemetry:registries.(k) ())
        else None)
  in
  let clients =
    Array.init config.n_clients (fun j ->
        let k = shard_of_client config j in
        let rng = Des.Rng.split root_rng ~label:(Fmt.str "client-%d" j) in
        let keyspace =
          Workload.Keyspace.create ~count:config.key_count
            ~dist:config.key_dist
            ~rng:(Des.Rng.split root_rng ~label:(Fmt.str "keys-%d" j))
            ()
        in
        let mconfig =
          match List.assoc_opt j config.memtier_overrides with
          | Some c -> c
          | None -> config.memtier
        in
        Workload.Memtier.create fabrics.(k) ~host_ip:(client_ip j)
          ~vip:(vip_addr (j mod config.n_lbs))
          ~keyspace
          ~log:(Option.get logs.(k))
          ~config:mconfig ~telemetry:registries.(k) ~index:j ~rng ())
  in
  (* Links. Request path: client→VIP (client j uses LB j mod n_lbs),
     VIP→server. Return path (DSR): server→client directly. *)
  let client_delay j =
    match List.assoc_opt j config.client_delay_overrides with
    | Some d -> d
    | None -> config.client_lb_delay
  in
  let client_lb_links =
    Array.init config.n_clients (fun j ->
        let k = shard_of_client config j in
        let link =
          plain_link ~shard:k ~telemetry:registries.(k)
            ~metric:"link.client_lb" ~index:j
            ~rng:(Des.Rng.split root_rng ~label:(Fmt.str "link-c%d" j))
            (client_delay j)
        in
        wire fabrics.(k) ~src_shard:k ~dst_shard:0 ~src:(client_ip j)
          ~dst:(vip_ip (j mod config.n_lbs))
          ~delay:(client_delay j) link;
        link)
  in
  let lb_server_links =
    Array.init config.n_lbs (fun l ->
        Array.init config.n_servers (fun i ->
            let link =
              plain_link ~shard:0 ~telemetry:lb_registries.(l)
                ~metric:"link.lb_server" ~index:i
                ~rng:
                  (Des.Rng.split root_rng
                     ~label:(lb_label l (Fmt.str "link-s%d" i)))
                config.lb_server_delay
            in
            Netsim.Fabric.add_link fabric ~src:(vip_ip l) ~dst:(server_ip i)
              link;
            link))
  in
  for i = 0 to config.n_servers - 1 do
    for j = 0 to config.n_clients - 1 do
      let rng =
        Des.Rng.split root_rng ~label:(Fmt.str "jitter-%d-%d" i j)
      in
      (* A far client is far in both directions. *)
      let extra = client_delay j - config.client_lb_delay in
      let delay = config.server_client_delay + extra in
      wire fabric ~src_shard:0 ~dst_shard:(shard_of_client config j)
        ~src:(server_ip i) ~dst:(client_ip j) ~delay
        (return_link ~shard:0 delay ~rng)
    done
  done;
  if shards > 1 && !min_cut < max_int then begin
    if !min_cut <= 0 then
      invalid_arg
        "Scenario.build: cross-shard link with non-positive base delay";
    Des.Shard.set_lookahead runtime !min_cut
  end;
  let registries =
    Array.append registries (Array.sub lb_registries 1 (config.n_lbs - 1))
  in
  let snapshotters =
    Array.mapi
      (fun k reg ->
        Telemetry.Snapshot.start (registry_engine engines k) reg
          ~interval:config.metrics_interval)
      registries
  in
  {
    runtime;
    engines;
    fabrics;
    balancers;
    coordination;
    servers;
    clients;
    logs;
    config;
    client_lb_links;
    lb_server_links;
    registries;
    snapshotters;
  }

let engine t = t.engines.(0)
let fabric t = t.fabrics.(0)
let balancer t = t.balancers.(0)
let balancers t = t.balancers
let coordination t = t.coordination
let servers t = t.servers
let clients t = t.clients

let log t =
  let rec find k =
    if k >= Array.length t.logs then
      invalid_arg "Scenario.log: no client-hosting shard"
    else match t.logs.(k) with Some l -> l | None -> find (k + 1)
  in
  find 0

let check_lb t lb =
  if lb < 0 || lb >= Array.length t.balancers then
    invalid_arg (Fmt.str "Scenario: no LB %d" lb)

let vip ?(lb = 0) t =
  check_lb t lb;
  vip_addr lb

let lb_server_link t i = t.lb_server_links.(0).(i)
let client_lb_link t j = t.client_lb_links.(j)
let telemetry t = t.registries.(0)
let shards t = t.config.shards
let shard_stats t = Des.Shard.stats t.runtime
let shutdown t = Des.Shard.shutdown t.runtime

(* LB 0 reports into shard 0's registry, LB l > 0 into the l-th one
   after the shards'. *)
let lb_registry t l = t.registries.(if l = 0 then 0 else shards t + l - 1)

let events_fired t =
  Array.fold_left (fun acc e -> acc + Des.Engine.events_fired e) 0 t.engines

let retained_words t =
  Array.fold_left
    (fun acc s -> acc + Telemetry.Snapshot.retained_words s)
    0 t.snapshotters
  + Array.fold_left
      (fun acc log ->
        match log with
        | Some l -> acc + Workload.Latency_log.retained_words l
        | None -> acc)
      0 t.logs

(* --- Merged telemetry reads (shard-order deterministic) --------------- *)

let metric_value t ?index name =
  let rec scan k =
    if k >= Array.length t.registries then None
    else
      match Telemetry.Registry.value t.registries.(k) ?index name with
      | Some v -> Some v
      | None -> scan (k + 1)
  in
  scan 0

let metric_sum t ?index name =
  Array.fold_left
    (fun acc reg ->
      match Telemetry.Registry.value reg ?index name with
      | Some v -> Some (Option.value acc ~default:0.0 +. v)
      | None -> acc)
    None t.registries

(* Single-registry hits are returned as-is (bit-identical to the K=1
   read); only genuinely split series/histograms pay a merge. *)
let series t ?index name =
  let hits =
    Array.to_list t.registries
    |> List.filter_map (fun reg -> Telemetry.Registry.series reg ?index name)
  in
  match hits with
  | [] -> None
  | [ ts ] -> Some ts
  | first :: _ ->
      let merged =
        Stats.Timeseries.create ~bucket:(Stats.Timeseries.bucket_width first)
      in
      List.iter (fun ts -> Stats.Timeseries.merge_into ~dst:merged ts) hits;
      Some merged

let histogram t ?index name =
  let hits =
    Array.to_list t.registries
    |> List.filter_map (fun reg ->
           Telemetry.Registry.find_histogram reg ?index name)
  in
  match hits with
  | [] -> None
  | [ h ] -> Some h
  | hits ->
      let merged = Stats.Histogram.create () in
      List.iter (fun h -> Stats.Histogram.merge_into ~dst:merged h) hits;
      Some merged

let snap_all t = Array.iter Telemetry.Snapshot.snap t.snapshotters

let snap_rows t =
  if Array.length t.snapshotters = 1 then
    Telemetry.Snapshot.rows t.snapshotters.(0)
  else
    Array.to_list t.snapshotters
    |> List.concat_map Telemetry.Snapshot.rows
    |> List.stable_sort (fun (a : Telemetry.Snapshot.row) b ->
           Int.compare a.Telemetry.Snapshot.at b.Telemetry.Snapshot.at)

let schedule_snap t ~at =
  Array.iteri
    (fun k snaps ->
      ignore
        (Des.Engine.schedule (registry_engine t.engines k) ~at (fun () ->
             Telemetry.Snapshot.snap snaps)))
    t.snapshotters

(* Wire an extra client host built after {!build} (e.g. a pathology
   client) into the DSR topology: host→VIP request link plus one
   server→host return link per server. The host must already be
   registered on the fabric (creating its endpoint does that). Such
   hosts always live on shard 0, next to the VIPs and the servers, so
   every leg is shard-local at any K. *)
let wire_client_host ?(lb = 0) t ~host_ip =
  check_lb t lb;
  let link delay =
    Netsim.Link.create (engine t) ~delay ~rate_bps:t.config.link_rate_bps ()
  in
  Netsim.Fabric.add_link (fabric t) ~src:host_ip ~dst:(vip_ip lb)
    (link t.config.client_lb_delay);
  Array.iteri
    (fun i _ ->
      Netsim.Fabric.add_link (fabric t) ~src:(server_ip i) ~dst:host_ip
        (link t.config.server_client_delay))
    t.servers

(* The server is slow from every LB's point of view: one event delays
   each LB's link to it. *)
let inject_server_delay t ~server ~at ~delay =
  let links = Array.map (fun links -> links.(server)) t.lb_server_links in
  ignore
    (Des.Engine.schedule (engine t) ~at (fun () ->
         Array.iter (fun link -> Netsim.Link.set_extra_delay link delay) links))

(* Timeline link names follow the topology: "lb->sN" is every LB's
   link to server N, "cN->lb" client N's request link. Under sharding
   the client→LB links belong to other shards' domains — the injector
   runs on shard 0 and cannot mutate them, so they don't resolve. *)
let resolve_link t name =
  let nth a i = if i >= 0 && i < Array.length a then [ a.(i) ] else [] in
  match Scanf.sscanf_opt name "lb->s%d%!" Fun.id with
  | Some i ->
      List.concat_map (fun links -> nth links i)
        (Array.to_list t.lb_server_links)
  | None -> begin
      match Scanf.sscanf_opt name "c%d->lb%!" Fun.id with
      | Some j when Array.length t.engines = 1 -> nth t.client_lb_links j
      | Some _ | None -> []
    end

let fault_env t =
  {
    Faults.Injector.link = resolve_link t;
    server =
      (fun i ->
        if i >= 0 && i < Array.length t.servers then Some t.servers.(i)
        else None);
    controller =
      (fun i ->
        if i >= 0 && i < Array.length t.servers then
          Inband.Balancer.controller (balancer t)
        else None);
  }

let install_faults t timeline =
  Faults.Injector.install (engine t) ~env:(fault_env t)
    ~telemetry:(telemetry t) timeline

let attach_pcc t =
  Array.mapi (fun l b -> Oracle.attach ~telemetry:(lb_registry t l) b)
    t.balancers

let advance t ~until = Des.Shard.run t.runtime ~until

let run t ~until =
  Array.iter Workload.Memtier.start t.clients;
  advance t ~until;
  Array.iter Workload.Memtier.stop t.clients
