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
  }

type t = {
  runtime : Des.Shard.t;  (* one shard: [advance] is a plain engine run *)
  engine : Des.Engine.t;
  fabric : Netsim.Fabric.t;
  balancers : Inband.Balancer.t array;
  coordination : Coordination.t option;
  servers : Memcache.Server.t array;
  clients : Workload.Memtier.t array;
  log : Workload.Latency_log.t;
  config : config;
  client_lb_links : Netsim.Link.t array;
  lb_server_links : Netsim.Link.t array array;  (* .(l).(i): LB l → server i *)
  registries : Telemetry.Registry.t array;  (* one per LB *)
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

(* LB 0 keeps the historical rng labels, so a one-LB build is exactly
   the single-balancer cluster; further LBs get suffixed streams. *)
let lb_label l name = if l = 0 then name else Fmt.str "%s-l%d" name l

let build config =
  if config.n_lbs < 1 || config.n_lbs > max_lbs then
    invalid_arg (Fmt.str "Scenario.build: n_lbs must be in 1..%d" max_lbs);
  (* One shard, so the lookahead is never consulted. *)
  let runtime = Des.Shard.create ~shards:1 ~lookahead:(Des.Time.ms 1) () in
  let engine = Des.Shard.engine runtime 0 in
  let fabric = Netsim.Fabric.create engine in
  let root_rng = Des.Rng.create ~seed:config.seed in
  let server_ips = Array.init config.n_servers server_ip in
  (* The cluster-wide registry: LB 0, servers, clients and their links. *)
  let telemetry = Telemetry.Registry.create () in
  (* Engine health gauge: a stuck-timer leak grows the pending count
     without bound. Every scenario consumer (soak monitor,
     --metrics-csv) watches the engine through it; the queue holds
     nothing but pending events, so this is its whole size. *)
  Telemetry.Registry.gauge_fn telemetry "des.pending" (fun () ->
      float_of_int (Des.Engine.pending engine));
  (* Every LB has its own VIP. LB 0 reports into the cluster registry;
     each further LB registers the same [lb.*], [ctl.*] and
     [link.lb_server.*] names, so it gets a registry of its own (summed
     by {!metric_sum}). *)
  let registries =
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
          ~telemetry:registries.(l) ())
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
           ~registries
           ~rng:(Des.Rng.split root_rng ~label:"coord")
           ())
  in
  (* Forward-path links carry an rng so the fault layer can turn on
     loss bursts; each gets its own label-split stream, so unused rngs
     don't perturb any other stream. *)
  let plain_link ?telemetry ?metric ?index ?rng delay =
    Netsim.Link.create engine ~delay ~rate_bps:config.link_rate_bps
      ?telemetry ?metric ?index ?rng ()
  in
  let return_link delay ~rng =
    match config.return_jitter with
    | None -> plain_link delay
    | Some jitter ->
        Netsim.Link.create engine ~delay ~rate_bps:config.link_rate_bps
          ~jitter ~rng ()
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
  (* Clients, and the latency log they all record into. *)
  let log =
    Workload.Latency_log.create engine ~bucket:config.latency_bucket
      ~telemetry ()
  in
  let clients =
    Array.init config.n_clients (fun j ->
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
        Workload.Memtier.create fabric ~host_ip:(client_ip j)
          ~vip:(vip_addr (j mod config.n_lbs))
          ~keyspace ~log ~config:mconfig ~telemetry ~index:j ~rng ())
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
        let link =
          plain_link ~telemetry ~metric:"link.client_lb" ~index:j
            ~rng:(Des.Rng.split root_rng ~label:(Fmt.str "link-c%d" j))
            (client_delay j)
        in
        Netsim.Fabric.add_link fabric ~src:(client_ip j)
          ~dst:(vip_ip (j mod config.n_lbs)) link;
        link)
  in
  let lb_server_links =
    Array.init config.n_lbs (fun l ->
        Array.init config.n_servers (fun i ->
            let link =
              plain_link ~telemetry:registries.(l) ~metric:"link.lb_server"
                ~index:i
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
      Netsim.Fabric.add_link fabric ~src:(server_ip i) ~dst:(client_ip j)
        (return_link (config.server_client_delay + extra) ~rng)
    done
  done;
  let snapshotters =
    Array.map
      (fun reg ->
        Telemetry.Snapshot.start engine reg ~interval:config.metrics_interval)
      registries
  in
  {
    runtime;
    engine;
    fabric;
    balancers;
    coordination;
    servers;
    clients;
    log;
    config;
    client_lb_links;
    lb_server_links;
    registries;
    snapshotters;
  }

let engine t = t.engine
let fabric t = t.fabric
let balancer t = t.balancers.(0)
let balancers t = t.balancers
let coordination t = t.coordination
let servers t = t.servers
let clients t = t.clients
let log t = t.log

let check_lb t lb =
  if lb < 0 || lb >= Array.length t.balancers then
    invalid_arg (Fmt.str "Scenario: no LB %d" lb)

let vip ?(lb = 0) t =
  check_lb t lb;
  vip_addr lb

let lb_server_link t i = t.lb_server_links.(0).(i)
let client_lb_link t j = t.client_lb_links.(j)
let telemetry t = t.registries.(0)
let shard_stats t = Des.Shard.stats t.runtime
let shutdown t = Des.Shard.shutdown t.runtime
let events_fired t = Des.Engine.events_fired t.engine

let retained_words t =
  Array.fold_left
    (fun acc s -> acc + Telemetry.Snapshot.retained_words s)
    (Workload.Latency_log.retained_words t.log)
    t.snapshotters

(* --- Telemetry reads (LB order) ----------------------------------------- *)

let metric_sum t ?index name =
  Array.fold_left
    (fun acc reg ->
      match Telemetry.Registry.value reg ?index name with
      | Some v -> Some (Option.value acc ~default:0.0 +. v)
      | None -> acc)
    None t.registries

let histogram t ?index name =
  Telemetry.Registry.find_histogram (telemetry t) ?index name

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
  Array.iter
    (fun snaps ->
      ignore
        (Des.Engine.schedule t.engine ~at (fun () ->
             Telemetry.Snapshot.snap snaps)))
    t.snapshotters

(* Wire an extra client host built after {!build} (e.g. a pathology
   client) into the DSR topology: host→VIP request link plus one
   server→host return link per server. The host must already be
   registered on the fabric (creating its endpoint does that). *)
let wire_client_host ?(lb = 0) t ~host_ip =
  check_lb t lb;
  let link delay =
    Netsim.Link.create t.engine ~delay ~rate_bps:t.config.link_rate_bps ()
  in
  Netsim.Fabric.add_link t.fabric ~src:host_ip ~dst:(vip_ip lb)
    (link t.config.client_lb_delay);
  Array.iteri
    (fun i _ ->
      Netsim.Fabric.add_link t.fabric ~src:(server_ip i) ~dst:host_ip
        (link t.config.server_client_delay))
    t.servers

(* Every LB's controller records its first shift at or after a fault
   instant, for [Controller.first_action_after]. *)
let register_fault_instant t at =
  Array.iter
    (fun b ->
      Option.iter
        (fun c -> Inband.Controller.register_instant c at)
        (Inband.Balancer.controller b))
    t.balancers

(* The server is slow from every LB's point of view: one event delays
   each LB's link to it. *)
let inject_server_delay t ~server ~at ~delay =
  let links = Array.map (fun links -> links.(server)) t.lb_server_links in
  register_fault_instant t at;
  ignore
    (Des.Engine.schedule t.engine ~at (fun () ->
         Array.iter (fun link -> Netsim.Link.set_extra_delay link delay) links))

(* Timeline link names follow the topology: "lb->sN" is every LB's
   link to server N, "cN->lb" client N's request link. *)
let resolve_link t name =
  let nth a i = if i >= 0 && i < Array.length a then [ a.(i) ] else [] in
  match Scanf.sscanf_opt name "lb->s%d%!" Fun.id with
  | Some i ->
      List.concat_map (fun links -> nth links i)
        (Array.to_list t.lb_server_links)
  | None -> begin
      match Scanf.sscanf_opt name "c%d->lb%!" Fun.id with
      | Some j -> nth t.client_lb_links j
      | None -> []
    end

(* A backend is drained fleet-wide: every LB's controller pins it. *)
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
          List.filter_map Inband.Balancer.controller
            (Array.to_list t.balancers)
        else []);
  }

let install_faults t timeline =
  let injector =
    Faults.Injector.install t.engine ~env:(fault_env t)
      ~telemetry:(telemetry t) timeline
  in
  List.iter
    (fun (e : Faults.Timeline.event) -> register_fault_instant t e.at)
    timeline;
  injector

let attach_pcc t =
  Array.mapi (fun l b -> Oracle.attach ~telemetry:t.registries.(l) b)
    t.balancers

let advance t ~until = Des.Shard.run t.runtime ~until

let run t ~until =
  Array.iter Workload.Memtier.start t.clients;
  advance t ~until;
  Array.iter Workload.Memtier.stop t.clients
