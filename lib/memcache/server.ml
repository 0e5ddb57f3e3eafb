type config = {
  workers : int;
  service_get : Stats.Dist.t;
  service_set : Stats.Dist.t;
  tcp : Tcpsim.Conn.config;
  idle_timeout : Des.Time.t;
}

let default_config =
  {
    workers = 2;
    (* ~50 us median with a modest tail: granular compute (§2.1). *)
    service_get = Stats.Dist.Lognormal { mu = log 50_000.0; sigma = 0.25 };
    service_set = Stats.Dist.Lognormal { mu = log 60_000.0; sigma = 0.25 };
    tcp = Tcpsim.Conn.default_config;
    idle_timeout = Des.Time.sec 60;
  }

(* The persistent client of a server with an upstream: one TCP
   connection, opened on first use and reopened as soon as it closes.
   Responses come back in request order, so each goes to the oldest
   waiting continuation. When the upstream closes its side (its idle
   reaper, say), no answer can follow: this side closes too, and calls
   fail as misses until the connection is reopened. *)
module Upstream = struct
  type t = {
    endpoint : Tcpsim.Endpoint.t;
    host_ip : int;
    remote : Netsim.Addr.t;
    tcp : Tcpsim.Conn.config;
    mutable conn : Tcpsim.Conn.t option;
    mutable reader : Protocol.response Protocol.Reader.t;
    pending : (Protocol.response -> unit) Queue.t;
    mutable next_port : int;
  }

  let create endpoint ~host_ip ~remote ~tcp =
    {
      endpoint;
      host_ip;
      remote;
      tcp;
      conn = None;
      reader = Protocol.Reader.responses ();
      pending = Queue.create ();
      next_port = 30_000;
    }

  let rec ensure_conn t =
    match t.conn with
    | Some conn -> conn
    | None ->
        let port = t.next_port in
        t.next_port <- t.next_port + 1;
        let conn =
          Tcpsim.Endpoint.connect t.endpoint ~config:t.tcp
            ~local:(Netsim.Addr.v t.host_ip port) ~remote:t.remote ()
        in
        t.conn <- Some conn;
        t.reader <- Protocol.Reader.responses ();
        Tcpsim.Conn.set_on_data conn (fun chunk ->
            match Protocol.Reader.feed t.reader chunk with
            | Ok responses ->
                List.iter
                  (fun response ->
                    match Queue.take_opt t.pending with
                    | Some k -> k response
                    | None -> ())
                  responses
            | Error _ -> Tcpsim.Conn.abort conn);
        Tcpsim.Conn.set_on_eof conn (fun () -> Tcpsim.Conn.close conn);
        Tcpsim.Conn.set_on_close conn (fun () ->
            t.conn <- None;
            (* Fail outstanding calls as misses: each caller answers its
               client with what it got. *)
            Queue.iter (fun k -> k Protocol.Miss) t.pending;
            Queue.clear t.pending;
            ignore (ensure_conn t));
        conn

  and call t request k =
    let conn = ensure_conn t in
    match Tcpsim.Conn.state conn with
    | Established | Syn_sent | Syn_received ->
        Queue.add k t.pending;
        Tcpsim.Conn.send conn (Protocol.encode_request request)
    | Close_wait | Fin_wait | Last_ack | Closed -> k Protocol.Miss
end

type job = { request : Protocol.request; arrived : Des.Time.t }

let no_job = { request = Protocol.Get { key = "" }; arrived = 0 }

type conn_state = {
  server : t;
  conn : Tcpsim.Conn.t;
  reader : Protocol.request Protocol.Reader.t;
  jobs : job Queue.t;
  mutable in_service : bool;
  (* The job in service while [in_service]: a connection is served in
     order, one job at a time. *)
  mutable serving : job;
  mutable queued : bool; (* present in the ready queue *)
  mutable close_requested : bool; (* peer sent FIN *)
  mutable last_activity : Des.Time.t; (* last byte received *)
}

and t = {
  engine : Des.Engine.t;
  config : config;
  rng : Des.Rng.t;
  interference : Interference.t;
  store : Store.t;
  ready : conn_state Queue.t;
  mutable free_workers : int;
  mutable queue_depth : int;
  mutable slow_factor : float; (* service-time multiplier, >= epsilon *)
  m_gets : Telemetry.Registry.counter;
  m_sets : Telemetry.Registry.counter;
  sojourn : Stats.Histogram.t;
  live : (int, conn_state) Hashtbl.t; (* for the idle-connection reaper *)
  mutable next_conn_id : int;
  endpoint : Tcpsim.Endpoint.t;
  upstream : Upstream.t option;
}

let count t = function
  | Protocol.Get _ -> Telemetry.Registry.Counter.incr t.m_gets
  | Protocol.Set _ -> Telemetry.Registry.Counter.incr t.m_sets

let local_response t = function
  | Protocol.Get { key } -> begin
      match Store.get t.store ~key with
      | Some (flags, value) -> Protocol.Value { key; flags; value }
      | None -> Protocol.Miss
    end
  | Protocol.Set { key; flags; value; _ } ->
      Store.set t.store ~key ~flags ~value;
      Protocol.Stored

let service_time t request =
  let dist =
    match request with
    | Protocol.Get _ -> t.config.service_get
    | Protocol.Set _ -> t.config.service_set
  in
  let base = Des.Time.ns (int_of_float (Stats.Dist.draw dist t.rng)) in
  let scaled = int_of_float (float_of_int base *. t.slow_factor) in
  Int.max 1 scaled + Interference.extra_delay t.interference

let conn_sendable cs =
  match Tcpsim.Conn.state cs.conn with
  | Established | Close_wait -> true
  | Syn_sent | Syn_received | Fin_wait | Last_ack | Closed -> false

let maybe_close cs =
  if
    cs.close_requested && (not cs.in_service)
    && Queue.is_empty cs.jobs
    && conn_sendable cs
  then Tcpsim.Conn.close cs.conn

(* Hand ready connections to free workers. Each worker serves exactly one
   job, then re-queues the connection if it has more. *)
let rec dispatch t =
  if t.free_workers > 0 && not (Queue.is_empty t.ready) then begin
    let cs = Queue.pop t.ready in
    cs.queued <- false;
    if not (Queue.is_empty cs.jobs) then begin
      let job = Queue.pop cs.jobs in
      t.queue_depth <- t.queue_depth - 1;
      t.free_workers <- t.free_workers - 1;
      cs.in_service <- true;
      cs.serving <- job;
      let at = Des.Engine.now t.engine + service_time t job.request in
      Des.Engine.post_call t.engine ~at complete cs
    end;
    dispatch t
  end

(* A service completion: a [post_call] of this one function on the
   connection, so posting it builds no closure. A server with an
   upstream forwards the request now and holds the worker until the
   upstream answers. *)
and complete cs =
  match cs.server.upstream with
  | None -> finish cs None
  | Some up ->
      Upstream.call up cs.serving.request (fun answer ->
          finish cs (Some answer))

(* Free the worker and answer the client: with the upstream's [answer],
   or from the store. *)
and finish cs answer =
  let t = cs.server and job = cs.serving in
  t.free_workers <- t.free_workers + 1;
  cs.in_service <- false;
  cs.serving <- no_job;
  if conn_sendable cs then begin
    count t job.request;
    let response =
      match answer with Some r -> r | None -> local_response t job.request
    in
    Tcpsim.Conn.send cs.conn (Protocol.encode_response response);
    Stats.Histogram.record t.sojourn (Des.Engine.now t.engine - job.arrived)
  end;
  if not (Queue.is_empty cs.jobs) then enqueue_ready t cs else maybe_close cs;
  dispatch t

and enqueue_ready t cs =
  if not cs.queued then begin
    cs.queued <- true;
    Queue.add cs t.ready
  end


(* memcached-style idle reaper. A client that vanishes without its RST
   surviving the network (aborts during a loss burst, a crashed host)
   leaves a server-side connection in [Established] with no traffic to
   trigger any TCP-level recovery: nothing is in flight, so nothing
   retransmits and nothing elicits a stray-segment reset. Only an
   application-level idle timeout reclaims these; without it a soak
   accumulates stuck connections linearly with fault count. *)
let reap t =
  let now = Des.Engine.now t.engine in
  let idle cs = now - cs.last_activity >= t.config.idle_timeout in
  let victims =
    Hashtbl.fold
      (fun _ cs acc ->
        if (not cs.in_service) && Queue.is_empty cs.jobs && idle cs then
          cs :: acc
        else acc)
      t.live []
  in
  List.iter
    (fun cs ->
      match Tcpsim.Conn.state cs.conn with
      | Established | Close_wait -> Tcpsim.Conn.close cs.conn
      | Syn_received -> Tcpsim.Conn.abort cs.conn
      (* A graceful close above can wedge: a gap-flooding peer ACKs our
         FIN but never closes its side, parking the connection in
         [Fin_wait] with a reassembly buffer pinned at the full cap
         (its segments keep arriving out of order, so nothing delivers
         and [last_activity] never advances). Still idle a timeout
         later means the peer is gone or hostile — abort reclaims the
         buffer. *)
      | Fin_wait | Last_ack -> Tcpsim.Conn.abort cs.conn
      | Syn_sent | Closed -> ())
    victims

let on_request t cs request =
  Queue.add { request; arrived = Des.Engine.now t.engine } cs.jobs;
  t.queue_depth <- t.queue_depth + 1;
  if not cs.in_service then enqueue_ready t cs;
  dispatch t

let accept t conn =
  let cs =
    {
      server = t;
      conn;
      reader = Protocol.Reader.requests ();
      jobs = Queue.create ();
      in_service = false;
      serving = no_job;
      queued = false;
      close_requested = false;
      last_activity = Des.Engine.now t.engine;
    }
  in
  if t.config.idle_timeout > 0 then begin
    let id = t.next_conn_id in
    t.next_conn_id <- id + 1;
    Hashtbl.replace t.live id cs;
    Tcpsim.Conn.set_on_close conn (fun () -> Hashtbl.remove t.live id)
  end;
  Tcpsim.Conn.set_on_data conn (fun chunk ->
      cs.last_activity <- Des.Engine.now t.engine;
      match Protocol.Reader.feed cs.reader chunk with
      | Ok requests -> List.iter (on_request t cs) requests
      | Error _ -> Tcpsim.Conn.abort conn);
  Tcpsim.Conn.set_on_eof conn (fun () ->
      cs.close_requested <- true;
      maybe_close cs)

let create fabric ~host_ip ~listen_addr ?(config = default_config)
    ?interference ?telemetry ?index ?upstream ~rng () =
  let engine = Netsim.Fabric.engine fabric in
  let interference =
    match interference with Some i -> i | None -> Interference.none engine
  in
  let registry =
    match telemetry with
    | Some r -> r
    | None -> Telemetry.Registry.create ()
  in
  let endpoint = Tcpsim.Endpoint.create fabric ~host_ip in
  let t =
    {
      engine;
      config;
      rng;
      interference;
      store = Store.create ();
      ready = Queue.create ();
      free_workers = config.workers;
      queue_depth = 0;
      slow_factor = 1.0;
      m_gets = Telemetry.Registry.counter registry ?index "server.gets";
      m_sets = Telemetry.Registry.counter registry ?index "server.sets";
      sojourn = Stats.Histogram.create ();
      live = Hashtbl.create 64;
      next_conn_id = 0;
      endpoint;
      upstream =
        Option.map
          (fun remote ->
            Upstream.create endpoint ~host_ip ~remote ~tcp:config.tcp)
          upstream;
    }
  in
  if config.idle_timeout > 0 then
    ignore
      (Des.Timer.every engine
         ~period:(Stdlib.max (Des.Time.ms 500) (config.idle_timeout / 4))
         (fun () -> reap t));
  Telemetry.Registry.gauge_fn registry ?index "server.queue_depth" (fun () ->
      float_of_int t.queue_depth);
  Telemetry.Registry.gauge_fn registry ?index "server.live_conns" (fun () ->
      float_of_int (Hashtbl.length t.live));
  Telemetry.Registry.gauge_fn registry ?index "server.busy_workers" (fun () ->
      float_of_int (t.config.workers - t.free_workers));
  Telemetry.Registry.attach_histogram registry ?index "server.sojourn_ns"
    t.sojourn;
  Tcpsim.Endpoint.listen endpoint ~addr:listen_addr ~config:config.tcp
    (fun conn -> accept t conn);
  (* Bounded-datapath gauges: how much memory the TCP stack is holding
     for this server and how often the caps fired. A leak (or a
     gap-flood attack breaching the reassembly cap) shows up here in any
     metrics CSV or soak flatness window. *)
  let ep_gauge name f =
    Telemetry.Registry.gauge_fn registry ?index name (fun () ->
        float_of_int (f endpoint))
  in
  ep_gauge "reasm.pending_bytes" Tcpsim.Endpoint.reasm_pending;
  ep_gauge "reasm.drops" Tcpsim.Endpoint.reasm_drops;
  ep_gauge "conn.send_backlog" Tcpsim.Endpoint.send_backlog;
  ep_gauge "conn.send_drops" Tcpsim.Endpoint.send_drops;
  ep_gauge "conn.active" Tcpsim.Endpoint.active_connections;
  t

let store t = t.store
let endpoint t = t.endpoint

let set_slow_factor t f =
  if not (f > 0.0) || Float.is_nan f then
    invalid_arg "Server.set_slow_factor: factor must be > 0";
  t.slow_factor <- f

let slow_factor t = t.slow_factor
let pause t ~until = Interference.force t.interference ~until
let resume t = Interference.clear t.interference
let gets_served t = Telemetry.Registry.Counter.value t.m_gets
let sets_served t = Telemetry.Registry.Counter.value t.m_sets
let requests_served t = gets_served t + sets_served t
let busy_workers t = t.config.workers - t.free_workers
let sojourn t = t.sojourn
