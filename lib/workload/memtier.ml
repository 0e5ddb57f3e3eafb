type config = {
  connections : int;
  pipeline : int;
  get_ratio : float;
  value_size : Stats.Dist.t;
  requests_per_conn : int;
  reconnect_delay : Des.Time.t;
  think_time : Stats.Dist.t;
  tcp : Tcpsim.Conn.config;
}

let default_config =
  {
    connections = 4;
    pipeline = 2;
    get_ratio = 0.5;
    value_size = Stats.Dist.Constant 64.0;
    requests_per_conn = 200;
    reconnect_delay = Des.Time.us 100;
    think_time = Stats.Dist.Constant 2_000.0;
    tcp = Tcpsim.Conn.default_config;
  }

type pending = { op : Latency_log.op; issued_at : Des.Time.t }

type slot = {
  index : int;
  mutable conn : Tcpsim.Conn.t option;
  mutable reader : Memcache.Protocol.response Memcache.Protocol.Reader.t;
  outstanding : pending Queue.t;
  mutable sent_on_conn : int;
  mutable closing : bool;
  (* [issue] on this slot, the think-time event: built once by
     [start], so posting it builds no closure. *)
  mutable issue_next : unit -> unit;
}

type t = {
  fabric : Netsim.Fabric.t;
  engine : Des.Engine.t;
  endpoint : Tcpsim.Endpoint.t;
  host_ip : int;
  vip : Netsim.Addr.t;
  keyspace : Keyspace.t;
  log : Latency_log.t;
  config : config;
  rng : Des.Rng.t;
  slots : slot array;
  (* Last Set value, reused while the drawn size repeats (always, under
     the default constant size distribution). Strings are immutable so
     sharing one across requests is safe. *)
  mutable value_memo : string;
  mutable next_port : int;
  mutable running : bool;
  m_sent : Telemetry.Registry.counter;
  m_received : Telemetry.Registry.counter;
  m_reconnects : Telemetry.Registry.counter;
  m_errors : Telemetry.Registry.counter;
}

let create fabric ~host_ip ~vip ~keyspace ~log ?(config = default_config)
    ?telemetry ?index ~rng () =
  if config.connections <= 0 || config.pipeline <= 0 then
    invalid_arg "Memtier.create: connections/pipeline must be positive";
  let registry =
    match telemetry with
    | Some r -> r
    | None -> Telemetry.Registry.create ()
  in
  let endpoint = Tcpsim.Endpoint.create fabric ~host_ip in
  {
    fabric;
    engine = Netsim.Fabric.engine fabric;
    endpoint;
    host_ip;
    vip;
    keyspace;
    log;
    config;
    rng;
    slots =
      Array.init config.connections (fun index ->
          {
            index;
            conn = None;
            reader = Memcache.Protocol.Reader.responses ();
            outstanding = Queue.create ();
            sent_on_conn = 0;
            closing = false;
            issue_next = ignore;
          });
    value_memo = "";
    next_port = 10_000;
    running = false;
    m_sent = Telemetry.Registry.counter registry ?index "client.sent";
    m_received = Telemetry.Registry.counter registry ?index "client.received";
    m_reconnects =
      Telemetry.Registry.counter registry ?index "client.reconnects";
    m_errors = Telemetry.Registry.counter registry ?index "client.errors";
  }

let make_request t =
  if Des.Rng.float t.rng 1.0 < t.config.get_ratio then
    Memcache.Protocol.Get { key = Keyspace.sample t.keyspace }
  else begin
    let size = Int.max 1 (int_of_float (Stats.Dist.draw t.config.value_size t.rng)) in
    let value =
      if String.length t.value_memo = size then t.value_memo
      else begin
        let v = String.make size 'x' in
        t.value_memo <- v;
        v
      end
    in
    Memcache.Protocol.Set
      { key = Keyspace.sample t.keyspace; flags = 0; exptime = 0; value }
  end

let conn_usable slot =
  match slot.conn with
  | None -> false
  | Some conn -> begin
      match Tcpsim.Conn.state conn with
      | Established -> true
      | Syn_sent | Syn_received | Fin_wait | Close_wait | Last_ack | Closed ->
          false
    end

(* Issue one request on the slot if the closed-loop budget allows. *)
let rec issue t slot =
  if t.running && (not slot.closing) && conn_usable slot then begin
    match slot.conn with
    | None -> ()
    | Some conn ->
        let request = make_request t in
        let op : Latency_log.op =
          match request with Get _ -> Get | Set _ -> Set
        in
        Queue.add { op; issued_at = Des.Engine.now t.engine } slot.outstanding;
        Tcpsim.Conn.send conn (Memcache.Protocol.encode_request request);
        Telemetry.Registry.Counter.incr t.m_sent;
        slot.sent_on_conn <- slot.sent_on_conn + 1
  end

and maybe_trigger_next t slot =
  (* A response just arrived: this transmission is causally triggered. *)
  let limit = t.config.requests_per_conn in
  if not t.running then begin
    if Queue.is_empty slot.outstanding then close_slot t slot
  end
  else if limit > 0 && slot.sent_on_conn >= limit then begin
    if Queue.is_empty slot.outstanding then close_slot t slot
  end
  else begin
    let think =
      Int.max 0 (int_of_float (Stats.Dist.draw t.config.think_time t.rng))
    in
    if think = 0 then issue t slot
    else
      Des.Engine.post_call t.engine
        ~at:(Des.Engine.now t.engine + think)
        slot.issue_next ()
  end

and close_slot _t slot =
  if not slot.closing then begin
    slot.closing <- true;
    match slot.conn with
    | Some conn -> Tcpsim.Conn.close conn
    | None -> ()
  end

and on_response t slot response =
  (match response with
  | Memcache.Protocol.Error _ -> Telemetry.Registry.Counter.incr t.m_errors
  | Value _ | Miss | Stored -> ());
  match Queue.take_opt slot.outstanding with
  | None -> Telemetry.Registry.Counter.incr t.m_errors
  | Some { op; issued_at } ->
      Telemetry.Registry.Counter.incr t.m_received;
      Latency_log.record t.log ~op
        ~latency:(Des.Engine.now t.engine - issued_at);
      maybe_trigger_next t slot

and open_slot t slot =
  if t.running then begin
    let port = t.next_port in
    t.next_port <- t.next_port + 1;
    let local = Netsim.Addr.v t.host_ip port in
    let conn =
      Tcpsim.Endpoint.connect t.endpoint ~config:t.config.tcp ~local
        ~remote:t.vip ()
    in
    slot.conn <- Some conn;
    slot.reader <- Memcache.Protocol.Reader.responses ();
    Queue.clear slot.outstanding;
    slot.sent_on_conn <- 0;
    slot.closing <- false;
    Tcpsim.Conn.set_on_connect conn (fun () ->
        (* Prime the pipeline: the initial burst of the closed loop. *)
        for _ = 1 to t.config.pipeline do
          issue t slot
        done);
    Tcpsim.Conn.set_on_data conn (fun chunk ->
        match Memcache.Protocol.Reader.feed slot.reader chunk with
        | Ok responses -> List.iter (on_response t slot) responses
        | Error _ ->
            Telemetry.Registry.Counter.incr t.m_errors;
            Tcpsim.Conn.abort conn);
    Tcpsim.Conn.set_on_close conn (fun () ->
        slot.conn <- None;
        if t.running then begin
          Telemetry.Registry.Counter.incr t.m_reconnects;
          Des.Engine.post_after t.engine ~delay:t.config.reconnect_delay
            (fun () -> open_slot t slot)
        end)
  end

let start t =
  if not t.running then begin
    t.running <- true;
    Array.iter
      (fun slot ->
        slot.issue_next <- (fun () -> issue t slot);
        open_slot t slot)
      t.slots
  end

let stop t =
  if t.running then begin
    t.running <- false;
    Array.iter
      (fun slot ->
        match slot.conn with
        | Some _ ->
            (* If the pipeline is idle close now; otherwise the response
               handler closes the slot once the outstanding responses
               drain ([running] is already false). *)
            if Queue.is_empty slot.outstanding then close_slot t slot
        | None -> ())
      t.slots
  end

let requests_sent t = Telemetry.Registry.Counter.value t.m_sent
let responses_received t = Telemetry.Registry.Counter.value t.m_received
let reconnects t = Telemetry.Registry.Counter.value t.m_reconnects
let protocol_errors t = Telemetry.Registry.Counter.value t.m_errors
