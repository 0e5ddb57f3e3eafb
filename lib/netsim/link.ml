(* A link's receiving end is either a host on the same engine (the
   normal case: propagation is one more pooled event on this engine) or
   a host owned by another shard. A remote sink is handed the absolute
   arrival time instead of an event: the shard runtime buffers the
   packet in an inbox and the *destination* engine schedules it, so no
   domain ever touches another domain's event queue. *)
type sink =
  | Local of (Packet.t -> unit)
  | Remote of (at:Des.Time.t -> Packet.t -> unit)

type t = {
  engine : Des.Engine.t;
  delay : Des.Time.t;
  rate_bps : int;
  queue_capacity : int;
  mutable loss_prob : float;
  jitter : Stats.Dist.t option;
  rng : Des.Rng.t option;
  (* FIFO ring of [len] packets from [head], capacity a power of two.
     While [len > 0] the head is on the wire and the rest wait; a
     vacated slot holds [Packet.none], so the ring keeps no packet
     alive after it has left. *)
  mutable ring : Packet.t array;
  mutable head : int;
  mutable len : int;
  mutable sink : sink option;
  mutable tx_done : unit -> unit; (* the transmit-complete event *)
  mutable extra : Des.Time.t;
  m_sent : Telemetry.Registry.counter;
  m_bytes : Telemetry.Registry.counter;
  m_queue_drops : Telemetry.Registry.counter;
  m_loss_drops : Telemetry.Registry.counter;
}

let tx_time t pkt =
  if t.rate_bps = 0 then 0
  else Packet.wire_size pkt * 8 * 1_000_000_000 / t.rate_bps

let lost t =
  t.loss_prob > 0.0
  &&
  match t.rng with
  | Some rng -> Des.Rng.float rng 1.0 < t.loss_prob
  | None -> false

let jitter_of t =
  match (t.jitter, t.rng) with
  | Some dist, Some rng ->
      Des.Time.ns (int_of_float (Stats.Dist.draw dist rng))
  | _, _ -> 0

(* Put the ring head on the wire. Both per-packet events are pooled
   fire-and-forget posts that allocate nothing: the transmit-complete
   event is the link's one preallocated [tx_done] (the packet it
   finishes is the ring head), and propagation is a [post_call] of the
   receiver on the packet. On a rate-0 link the transmit-complete event
   is due now, so it takes the engine's same-instant lane rather than
   the heap. A remote sink replaces the propagation event with a
   handoff at the arrival timestamp — the destination shard's engine
   schedules it. *)
let start_tx t =
  Des.Engine.post_call t.engine
    ~at:(Des.Engine.now t.engine + tx_time t (Array.unsafe_get t.ring t.head))
    t.tx_done ()

(* The head's last bit has left: start propagation (or drop it if the
   loss process says so) and move on to the next queued packet. *)
let transmitted t =
  let pkt = Array.unsafe_get t.ring t.head in
  Array.unsafe_set t.ring t.head Packet.none;
  t.head <- (t.head + 1) land (Array.length t.ring - 1);
  t.len <- t.len - 1;
  if lost t then Telemetry.Registry.Counter.incr t.m_loss_drops
  else begin
    let prop = t.delay + t.extra + jitter_of t in
    Telemetry.Registry.Counter.incr t.m_sent;
    Telemetry.Registry.Counter.add t.m_bytes (Packet.wire_size pkt);
    match t.sink with
    | Some (Local deliver) ->
        Des.Engine.post_call t.engine ~at:(Des.Engine.now t.engine + prop)
          deliver pkt
    | Some (Remote sink) -> sink ~at:(Des.Engine.now t.engine + prop) pkt
    | None -> assert false (* [send] requires a sink *)
  end;
  if t.len > 0 then start_tx t

let create engine ~delay ?(rate_bps = 10_000_000_000) ?(queue_capacity = 1024)
    ?(loss_prob = 0.0) ?jitter ?rng ?telemetry ?(metric = "link") ?index () =
  if delay < 0 then invalid_arg "Link.create: negative delay";
  if rate_bps < 0 then invalid_arg "Link.create: negative rate";
  if loss_prob < 0.0 || loss_prob >= 1.0 then
    invalid_arg "Link.create: loss_prob must be in [0, 1)";
  if (loss_prob > 0.0 || jitter <> None) && rng = None then
    invalid_arg "Link.create: loss/jitter require an rng";
  let registry =
    match telemetry with
    | Some r -> r
    | None -> Telemetry.Registry.create ()
  in
  let t =
    {
      engine;
      delay;
      rate_bps;
      queue_capacity;
      loss_prob;
      jitter;
      rng;
      ring = [||];
      head = 0;
      len = 0;
      sink = None;
      tx_done = ignore;
      extra = 0;
      m_sent = Telemetry.Registry.counter registry ?index (metric ^ ".sent");
      m_bytes = Telemetry.Registry.counter registry ?index (metric ^ ".bytes");
      m_queue_drops =
        Telemetry.Registry.counter registry ?index (metric ^ ".queue_drops");
      m_loss_drops =
        Telemetry.Registry.counter registry ?index (metric ^ ".loss_drops");
    }
  in
  t.tx_done <- (fun () -> transmitted t);
  (* Congestion (queue overflow) and loss-process drops are distinct
     signals — a loss burst fault must not read as congestion — but the
     historical [.drops] total stays available as their sum. *)
  Telemetry.Registry.gauge_fn registry ?index (metric ^ ".drops") (fun () ->
      float_of_int
        (Telemetry.Registry.Counter.value t.m_queue_drops
        + Telemetry.Registry.Counter.value t.m_loss_drops));
  Telemetry.Registry.gauge_fn registry ?index (metric ^ ".queue") (fun () ->
      float_of_int t.len);
  t

let connect t sink =
  if t.sink <> None then invalid_arg "Link.connect: already connected";
  t.sink <- Some (Local sink)

let connect_remote t sink =
  if t.sink <> None then invalid_arg "Link.connect_remote: already connected";
  t.sink <- Some (Remote sink)

(* Double the ring, unrolling it from [head]. *)
let grow t =
  let cap = Array.length t.ring in
  let ring = Array.make (if cap = 0 then 4 else 2 * cap) Packet.none in
  for k = 0 to t.len - 1 do
    Array.unsafe_set ring k
      (Array.unsafe_get t.ring ((t.head + k) land (cap - 1)))
  done;
  t.ring <- ring;
  t.head <- 0

let send t pkt =
  if t.sink = None then invalid_arg "Link.send: not connected";
  (* Packets waiting behind the one on the wire. *)
  let waiting = if t.len = 0 then 0 else t.len - 1 in
  if waiting >= t.queue_capacity then
    Telemetry.Registry.Counter.incr t.m_queue_drops
  else begin
    if t.len = Array.length t.ring then grow t;
    let tail = (t.head + t.len) land (Array.length t.ring - 1) in
    Array.unsafe_set t.ring tail pkt;
    t.len <- t.len + 1;
    if t.len = 1 then start_tx t
  end

let set_extra_delay t d =
  if d < 0 then invalid_arg "Link.set_extra_delay: negative";
  t.extra <- d

let set_loss_prob t p =
  if p < 0.0 || p >= 1.0 then
    invalid_arg "Link.set_loss_prob: loss_prob must be in [0, 1)";
  if p > 0.0 && t.rng = None then
    invalid_arg "Link.set_loss_prob: link has no rng";
  t.loss_prob <- p

let extra_delay t = t.extra
let loss_prob t = t.loss_prob
let has_rng t = t.rng <> None
let packets_sent t = Telemetry.Registry.Counter.value t.m_sent
let bytes_sent t = Telemetry.Registry.Counter.value t.m_bytes
let queue_drops t = Telemetry.Registry.Counter.value t.m_queue_drops
let loss_drops t = Telemetry.Registry.Counter.value t.m_loss_drops
let drops t = queue_drops t + loss_drops t
let queue_len t = t.len
