type config = {
  workers : int;
  own_service : Stats.Dist.t;
  dependency_ratio : float;
  tcp : Tcpsim.Conn.config;
}

let default_config =
  {
    workers = 2;
    own_service = Stats.Dist.Lognormal { mu = log 20_000.0; sigma = 0.25 };
    dependency_ratio = 1.0;
    tcp = Tcpsim.Conn.default_config;
  }

(* --- The persistent upstream connection ------------------------------- *)

module Upstream = struct
  type t = {
    engine : Des.Engine.t;
    endpoint : Tcpsim.Endpoint.t;
    host_ip : int;
    remote : Netsim.Addr.t;
    tcp : Tcpsim.Conn.config;
    mutable conn : Tcpsim.Conn.t option;
    mutable reader : Protocol.response Protocol.Reader.t;
    pending : (Protocol.response -> unit) Queue.t; (* FIFO matching *)
    mutable next_port : int;
    mutable calls : int;
  }

  let create engine endpoint ~host_ip ~remote ~tcp =
    {
      engine;
      endpoint;
      host_ip;
      remote;
      tcp;
      conn = None;
      reader = Protocol.Reader.responses ();
      pending = Queue.create ();
      next_port = 30_000;
      calls = 0;
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
        Tcpsim.Conn.set_on_close conn (fun () ->
            t.conn <- None;
            (* Fail outstanding calls as misses; callers just answer the
               client with what they got. *)
            Queue.iter (fun k -> k Protocol.Miss) t.pending;
            Queue.clear t.pending;
            (* Reconnect eagerly for the next call. *)
            ignore (ensure_conn t));
        conn

  and fetch t request k =
    let conn = ensure_conn t in
    t.calls <- t.calls + 1;
    match Tcpsim.Conn.state conn with
    | Established | Syn_sent | Syn_received | Close_wait ->
        Queue.add k t.pending;
        Tcpsim.Conn.send conn (Protocol.encode_request request)
    | Fin_wait | Last_ack | Closed ->
        (* Connection died between checks; answer with a miss. *)
        k Protocol.Miss
end

(* --- The frontend itself ----------------------------------------------- *)

type job = { request : Protocol.request; arrived : Des.Time.t }

type conn_state = {
  conn : Tcpsim.Conn.t;
  reader : Protocol.request Protocol.Reader.t;
  jobs : job Queue.t;
  mutable in_service : bool;
  mutable queued : bool;
  mutable close_requested : bool;
}

type t = {
  engine : Des.Engine.t;
  config : config;
  rng : Des.Rng.t;
  store : Store.t;
  upstream : Upstream.t;
  ready : conn_state Queue.t;
  mutable free_workers : int;
  mutable served : int;
}

let local_response t = function
  | Protocol.Get { key } -> begin
      match Store.get t.store ~key with
      | Some (flags, value) -> Protocol.Value { key; flags; value }
      | None -> Protocol.Miss
    end
  | Protocol.Set { key; flags; value; _ } ->
      Store.set t.store ~key ~flags ~value;
      Protocol.Stored

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

let rec dispatch t =
  if t.free_workers > 0 && not (Queue.is_empty t.ready) then begin
    let cs = Queue.pop t.ready in
    cs.queued <- false;
    if not (Queue.is_empty cs.jobs) then begin
      let job = Queue.pop cs.jobs in
      t.free_workers <- t.free_workers - 1;
      cs.in_service <- true;
      let own =
        Int.max 1 (int_of_float (Stats.Dist.draw t.config.own_service t.rng))
      in
      Des.Engine.post_after t.engine ~delay:own (fun () ->
          after_own_service t cs job)
    end;
    dispatch t
  end

and after_own_service t cs job =
  if Des.Rng.float t.rng 1.0 < t.config.dependency_ratio then
    (* The worker blocks on the synchronous downstream call. *)
    Upstream.fetch t.upstream job.request (fun response ->
        finish t cs response)
  else finish t cs (local_response t job.request)

and finish t cs response =
  t.free_workers <- t.free_workers + 1;
  cs.in_service <- false;
  if conn_sendable cs then begin
    t.served <- t.served + 1;
    Tcpsim.Conn.send cs.conn (Protocol.encode_response response)
  end;
  if not (Queue.is_empty cs.jobs) then enqueue_ready t cs else maybe_close cs;
  dispatch t

and enqueue_ready t cs =
  if not cs.queued then begin
    cs.queued <- true;
    Queue.add cs t.ready
  end

let on_request t cs request =
  Queue.add { request; arrived = Des.Engine.now t.engine } cs.jobs;
  if not cs.in_service then enqueue_ready t cs;
  dispatch t

let accept t conn =
  let cs =
    {
      conn;
      reader = Protocol.Reader.requests ();
      jobs = Queue.create ();
      in_service = false;
      queued = false;
      close_requested = false;
    }
  in
  Tcpsim.Conn.set_on_data conn (fun chunk ->
      match Protocol.Reader.feed cs.reader chunk with
      | Ok requests -> List.iter (on_request t cs) requests
      | Error _ -> Tcpsim.Conn.abort conn);
  Tcpsim.Conn.set_on_eof conn (fun () ->
      cs.close_requested <- true;
      maybe_close cs)

let create fabric ~host_ip ~listen_addr ~upstream ?(config = default_config)
    ~rng () =
  let engine = Netsim.Fabric.engine fabric in
  let endpoint = Tcpsim.Endpoint.create fabric ~host_ip in
  let t =
    {
      engine;
      config;
      rng;
      store = Store.create ();
      upstream =
        Upstream.create engine endpoint ~host_ip ~remote:upstream
          ~tcp:config.tcp;
      ready = Queue.create ();
      free_workers = config.workers;
      served = 0;
    }
  in
  Tcpsim.Endpoint.listen endpoint ~addr:listen_addr ~config:config.tcp
    (fun conn -> accept t conn);
  t

let requests_served t = t.served
let upstream_calls t = t.upstream.Upstream.calls
let upstream_outstanding t = Queue.length t.upstream.Upstream.pending
let store t = t.store
