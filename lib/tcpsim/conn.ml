type ack_policy =
  | Ack_immediate
  | Ack_delayed of { every : int; timeout : Des.Time.t }
  | Ack_paced of Des.Time.t

type config = {
  mss : int;
  window : int;
  ack_policy : ack_policy;
  rto_initial : Des.Time.t;
  rto_min : Des.Time.t;
  rto_max : Des.Time.t;
  reasm_cap : int;
  send_queue_cap : int;
  max_inflight_segments : int;
  send_queue_max_writes : int;
}

let default_config =
  {
    mss = 1448;
    window = 65535;
    ack_policy = Ack_delayed { every = 2; timeout = Des.Time.us 500 };
    rto_initial = Des.Time.ms 10;
    rto_min = Des.Time.ms 1;
    rto_max = Des.Time.sec 2;
    (* Both caps are far above anything polite traffic reaches (the
       64 KiB window bounds ooo buffering for a well-behaved peer);
       they exist so a gapped or firehosing peer is bounded too. *)
    reasm_cap = 256 * 1024;
    send_queue_cap = 1024 * 1024;
    (* The byte caps above bound *payload*; these bound *entries*. A
       peer that writes or acknowledges one byte at a time pays tens of
       words of queue overhead per payload byte, so a byte cap alone
       lets a stalled connection retain ~60x more memory than its
       nominal limit (a 64 KiB window of 1-byte segments is ~850k
       words). Count caps are the truesize accounting: defaults sit
       far above anything a well-behaved flow reaches (window/mss is
       ~46 in-flight segments), so only degenerate senders feel them. *)
    max_inflight_segments = 256;
    send_queue_max_writes = 2048;
  }

type state =
  | Syn_sent
  | Syn_received
  | Established
  | Fin_wait
  | Close_wait
  | Last_ack
  | Closed

type segment = {
  seq : int;
  payload : string;
  syn : bool;
  fin : bool;
  mutable sent_at : Des.Time.t;
  mutable retx : bool;
}

let seg_span s =
  String.length s.payload + (if s.syn then 1 else 0) + if s.fin then 1 else 0

let max_head_retransmits = 12
(* Attempts before the connection gives up on the unacked head segment. *)

type t = {
  engine : Des.Engine.t;
  tx : Netsim.Packet.t -> unit;
  config : config;
  key : Netsim.Flow_key.t; (* (local, remote): every packet we send *)
  on_teardown : t -> unit;
  mutable state : state;
  (* Send side. *)
  mutable snd_una : int;
  mutable snd_nxt : int;
  pending : string Queue.t;
  mutable pending_head_off : int;
  mutable pending_bytes : int;
  inflight : segment Queue.t;
  mutable fin_queued : bool;
  mutable fin_sent : bool;
  mutable our_fin_acked : bool;
  (* Receive side. *)
  mutable reasm : Reassembly.t option; (* set once the peer ISN is known *)
  mutable peer_fin_received : bool;
  mutable unacked_rx : int;
  (* Timers and estimators. Both timers are created with the
     connection and live for its whole life; the fields are mutable
     only so construction can tie the callback/record knot. *)
  rto : Rto.t;
  mutable rto_timer : Des.Timer.t;
  mutable delack_timer : Des.Timer.t;
  (* Counters. *)
  mutable bytes_sent_acked : int;
  mutable retransmit_count : int;
  mutable head_retx_count : int;
  mutable send_drop_count : int;
  (* Callbacks. *)
  mutable on_connect : unit -> unit;
  mutable on_data : string -> unit;
  mutable on_drain : unit -> unit;
  mutable on_eof : unit -> unit;
  mutable on_close : unit -> unit;
  mutable on_rtt_sample : Des.Time.t -> unit;
}

let nop () = ()

let set_on_connect t f = t.on_connect <- f
let set_on_data t f = t.on_data <- f
let set_on_drain t f = t.on_drain <- f
let set_on_eof t f = t.on_eof <- f
let set_on_close t f = t.on_close <- f
let set_on_rtt_sample t f = t.on_rtt_sample <- f
let state t = t.state
let local_addr t = t.key.src
let remote_addr t = t.key.dst
let srtt t = Rto.srtt t.rto
let bytes_sent t = t.bytes_sent_acked
let retransmits t = t.retransmit_count
let send_queue_len t = t.pending_bytes
let send_drops t = t.send_drop_count
let reasm_pending t =
  match t.reasm with None -> 0 | Some r -> Reassembly.pending r
let reasm_drops t =
  match t.reasm with None -> 0 | Some r -> Reassembly.drops r

(* The cumulative acknowledgement we advertise: contiguous stream bytes
   plus one for the peer's FIN once consumed. *)
let rcv_ack_value t =
  match t.reasm with
  | None -> 0
  | Some r -> Reassembly.rcv_nxt r + if t.peer_fin_received then 1 else 0

let cancel_delack t =
  Des.Timer.stop t.delack_timer;
  t.unacked_rx <- 0

let emit t ~seq ~flags ~payload =
  let ack = rcv_ack_value t in
  t.tx (Netsim.Packet.make_on t.key ~seq ~ack ~flags ~payload);
  cancel_delack t

let to_closed t =
  if t.state <> Closed then begin
    t.state <- Closed;
    Des.Timer.stop t.rto_timer;
    Des.Timer.stop t.delack_timer;
    t.on_close ();
    t.on_teardown t
  end

(* --- RTO management ------------------------------------------------ *)

let arm_rto t = Des.Timer.arm t.rto_timer ~delay:(Rto.current t.rto)

let on_rto t =
  match Queue.peek_opt t.inflight with
  | None -> ()
  | Some seg ->
      t.head_retx_count <- t.head_retx_count + 1;
      if t.head_retx_count > max_head_retransmits then
        (* Give up, as a real stack eventually does; without this a lost
           final ACK would leave the peer retransmitting forever. *)
        to_closed t
      else begin
        seg.retx <- true;
        seg.sent_at <- Des.Engine.now t.engine;
        t.retransmit_count <- t.retransmit_count + 1;
        Rto.backoff t.rto;
        let flags =
          if seg.syn || seg.fin || t.reasm = None then
            {
              Netsim.Packet.syn = seg.syn;
              ack = t.reasm <> None;
              fin = seg.fin;
              rst = false;
            }
          else Netsim.Packet.flag_ack
        in
        emit t ~seq:seg.seq ~flags ~payload:seg.payload;
        arm_rto t
      end

let rto_after_ack t =
  if Queue.is_empty t.inflight then Des.Timer.stop t.rto_timer
  else arm_rto t

(* --- Send side ------------------------------------------------------ *)

let transmit_segment t seg =
  Queue.add seg t.inflight;
  t.snd_nxt <- t.snd_nxt + seg_span seg;
  let flags =
    (* Plain data segments — the overwhelming majority — share the
       preallocated flag record instead of building one per packet. *)
    if seg.syn || seg.fin then
      { Netsim.Packet.syn = seg.syn; ack = true; fin = seg.fin; rst = false }
    else Netsim.Packet.flag_ack
  in
  emit t ~seq:seg.seq ~flags ~payload:seg.payload;
  if not (Des.Timer.is_armed t.rto_timer) then arm_rto t

let take_pending_slow t n =
  let buf = Buffer.create n in
  let remaining = ref n in
  while !remaining > 0 && not (Queue.is_empty t.pending) do
    let head = Queue.peek t.pending in
    let avail = String.length head - t.pending_head_off in
    let take = Int.min avail !remaining in
    Buffer.add_substring buf head t.pending_head_off take;
    remaining := !remaining - take;
    if take = avail then begin
      ignore (Queue.pop t.pending);
      t.pending_head_off <- 0
    end
    else t.pending_head_off <- t.pending_head_off + take
  done;
  t.pending_bytes <- t.pending_bytes - (n - !remaining);
  Buffer.contents buf

(* Pop up to [n] bytes off the pending queue. When the head string is
   exactly the [n] bytes wanted — one application write per segment, the
   common case — it is reused without copying. *)
let take_pending t n =
  if
    t.pending_head_off = 0
    && (not (Queue.is_empty t.pending))
    && String.length (Queue.peek t.pending) = n
  then begin
    let head = Queue.pop t.pending in
    t.pending_bytes <- t.pending_bytes - n;
    head
  end
  else take_pending_slow t n

let can_carry_data t =
  match t.state with Established | Close_wait -> true | _ -> false

let rec try_send t =
  if can_carry_data t then begin
    let window_used () = t.snd_nxt - t.snd_una in
    let sent_something = ref false in
    let continue = ref true in
    while
      !continue && t.pending_bytes > 0
      && window_used () < t.config.window
      (* Segment-count brake: a receiver that stops acknowledging tiny
         segments would otherwise let [inflight] grow to one record per
         byte of window. Data waits in [pending] instead, where the
         write caps shed it. *)
      && Queue.length t.inflight < t.config.max_inflight_segments
    do
      let room = t.config.window - window_used () in
      let len = Int.min (Int.min t.config.mss t.pending_bytes) room in
      if len <= 0 then continue := false
      else begin
        let payload = take_pending t len in
        let seg =
          {
            seq = t.snd_nxt;
            payload;
            syn = false;
            fin = false;
            sent_at = Des.Engine.now t.engine;
            retx = false;
          }
        in
        transmit_segment t seg;
        sent_something := true
      end
    done;
    if !sent_something && t.pending_bytes = 0 then t.on_drain ();
    maybe_send_fin t
  end

and maybe_send_fin t =
  if
    t.fin_queued && (not t.fin_sent) && t.pending_bytes = 0 && can_carry_data t
  then begin
    t.fin_sent <- true;
    let seg =
      {
        seq = t.snd_nxt;
        payload = "";
        syn = false;
        fin = true;
        sent_at = Des.Engine.now t.engine;
        retx = false;
      }
    in
    transmit_segment t seg;
    t.state <- (match t.state with Close_wait -> Last_ack | _ -> Fin_wait)
  end

let send t data =
  (match t.state with
  | Closed | Fin_wait | Last_ack ->
      invalid_arg "Conn.send: connection closed or closing"
  | Syn_sent | Syn_received | Established | Close_wait -> ());
  if t.fin_queued then invalid_arg "Conn.send: close already requested";
  if String.length data > 0 then begin
    if
      t.pending_bytes + String.length data > t.config.send_queue_cap
      || Queue.length t.pending >= t.config.send_queue_max_writes
    then
      (* Backpressure cap: a writer that keeps pushing while the window
         is stalled is shed (whole writes, newest first) instead of
         growing the queue without limit. The dropped bytes truncate the
         application stream — a pathological sender's problem, counted
         so it fails loudly. *)
      t.send_drop_count <- t.send_drop_count + 1
    else begin
      Queue.add data t.pending;
      t.pending_bytes <- t.pending_bytes + String.length data;
      try_send t
    end
  end

let close t =
  if (not t.fin_queued) && t.state <> Closed then begin
    t.fin_queued <- true;
    maybe_send_fin t;
    try_send t
  end

let abort t =
  if t.state <> Closed then begin
    let flags = Netsim.Packet.flag_rst in
    t.tx
      (Netsim.Packet.make_on t.key ~seq:t.snd_nxt ~ack:(rcv_ack_value t)
         ~flags ~payload:"");
    to_closed t
  end

(* --- ACK processing ------------------------------------------------- *)

let process_ack t ack =
  if ack > t.snd_una then begin
    t.snd_una <- ack;
    let continue = ref true in
    while !continue && not (Queue.is_empty t.inflight) do
      let seg = Queue.peek t.inflight in
      if seg.seq + seg_span seg <= ack then begin
        ignore (Queue.pop t.inflight);
        t.head_retx_count <- 0;
        if not seg.retx then begin
          let sample = Des.Engine.now t.engine - seg.sent_at in
          Rto.observe t.rto sample;
          t.on_rtt_sample sample
        end;
        t.bytes_sent_acked <- t.bytes_sent_acked + String.length seg.payload;
        if seg.fin then t.our_fin_acked <- true
      end
      else continue := false
      (* Partial segment coverage cannot happen: the receiver only ever
         acknowledges whole segments. *)
    done;
    rto_after_ack t;
    (* Completion transitions driven by our FIN being acknowledged. *)
    (match t.state with
    | Fin_wait when t.our_fin_acked && t.peer_fin_received -> to_closed t
    | Last_ack when t.our_fin_acked -> to_closed t
    | _ -> ());
    if t.state <> Closed then try_send t
  end

(* --- Receive side --------------------------------------------------- *)

let ack_now t = emit t ~seq:t.snd_nxt ~flags:Netsim.Packet.flag_ack ~payload:""

let note_rx_segment t =
  t.unacked_rx <- t.unacked_rx + 1;
  match t.config.ack_policy with
  | Ack_immediate -> ack_now t
  | Ack_delayed { every; timeout } ->
      if t.unacked_rx >= every then ack_now t
      else if not (Des.Timer.is_armed t.delack_timer) then
        Des.Timer.arm t.delack_timer ~delay:timeout
  | Ack_paced delay ->
      if not (Des.Timer.is_armed t.delack_timer) then
        Des.Timer.arm t.delack_timer ~delay

let process_payload t (pkt : Netsim.Packet.t) =
  if String.length pkt.payload > 0 then begin
    match t.reasm with
    | None -> ()
    | Some reasm ->
        let delivered = Reassembly.insert reasm ~seq:pkt.seq pkt.payload in
        if String.length delivered > 0 then t.on_data delivered;
        note_rx_segment t
  end

let process_fin t (pkt : Netsim.Packet.t) =
  if pkt.flags.fin && not t.peer_fin_received then begin
    match t.reasm with
    | None -> ()
    | Some reasm ->
        let fin_seq = pkt.seq + String.length pkt.payload in
        if fin_seq = Reassembly.rcv_nxt reasm then begin
          t.peer_fin_received <- true;
          (* Acknowledge the FIN before any state transition: the peer
             needs this ACK to leave Last_ack even if we close now. *)
          ack_now t;
          t.on_eof ();
          match t.state with
          | Established -> t.state <- Close_wait
          | Fin_wait when t.our_fin_acked -> to_closed t
          | Syn_sent | Syn_received | Fin_wait | Close_wait | Last_ack
          | Closed ->
              ()
        end
  end

(* --- Packet input --------------------------------------------------- *)

let handle_packet t (pkt : Netsim.Packet.t) =
  if t.state <> Closed then begin
    if pkt.flags.rst then to_closed t
    else begin
      match t.state with
      | Syn_sent ->
          if pkt.flags.syn && pkt.flags.ack && pkt.ack >= t.snd_una + 1 then begin
            t.reasm <-
              Some
                (Reassembly.create ~cap:t.config.reasm_cap
                   ~rcv_nxt:(pkt.seq + 1) ());
            process_ack t pkt.ack;
            t.state <- Established;
            ack_now t;
            t.on_connect ();
            try_send t
          end
      | Syn_received ->
          (* The handshake-completing ACK may carry data. *)
          if pkt.flags.ack && pkt.ack > t.snd_una then begin
            process_ack t pkt.ack;
            if t.state = Syn_received then begin
              t.state <- Established;
              t.on_connect ();
              try_send t
            end
          end;
          if t.state = Established then begin
            process_payload t pkt;
            process_fin t pkt
          end
      | Established | Fin_wait | Close_wait | Last_ack ->
          if pkt.flags.ack then process_ack t pkt.ack;
          if t.state <> Closed then begin
            process_payload t pkt;
            process_fin t pkt
          end
      | Closed -> ()
    end
  end

let make engine ~tx ~config ~local ~remote ~on_teardown ~state =
  (* Both timers are pre-created here — no lazy [option] + [ensure_*]
     on the ack path. A throwaway placeholder ties the record/callback
     knot; the real timers replace it before [t] escapes. *)
  let placeholder = Des.Timer.create engine ~f:nop in
  let t =
    {
      engine;
      tx;
      config;
      key = Netsim.Flow_key.v ~src:local ~dst:remote;
      on_teardown;
      state;
      snd_una = 0;
      snd_nxt = 0;
      pending = Queue.create ();
      pending_head_off = 0;
      pending_bytes = 0;
      inflight = Queue.create ();
      fin_queued = false;
      fin_sent = false;
      our_fin_acked = false;
      reasm = None;
      peer_fin_received = false;
      unacked_rx = 0;
      rto =
        Rto.create ~initial:config.rto_initial ~min_rto:config.rto_min
          ~max_rto:config.rto_max ();
      rto_timer = placeholder;
      delack_timer = placeholder;
      bytes_sent_acked = 0;
      retransmit_count = 0;
      head_retx_count = 0;
      send_drop_count = 0;
      on_connect = nop;
      on_data = ignore;
      on_drain = nop;
      on_eof = nop;
      on_close = nop;
      on_rtt_sample = ignore;
    }
  in
  t.rto_timer <- Des.Timer.create engine ~f:(fun () -> on_rto t);
  t.delack_timer <- Des.Timer.create engine ~f:(fun () -> ack_now t);
  t

(* --- Constructors ---------------------------------------------------- *)

let create_active engine ~tx ~config ~local ~remote ~on_teardown =
  let t = make engine ~tx ~config ~local ~remote ~on_teardown ~state:Syn_sent in
  let seg =
    {
      seq = 0;
      payload = "";
      syn = true;
      fin = false;
      sent_at = Des.Engine.now engine;
      retx = false;
    }
  in
  (* The initial SYN must not carry the ACK flag. *)
  Queue.add seg t.inflight;
  t.snd_nxt <- 1;
  t.tx
    (Netsim.Packet.make_on t.key ~seq:0 ~ack:0 ~flags:Netsim.Packet.flag_syn
       ~payload:"");
  arm_rto t;
  t

let create_passive engine ~tx ~config ~local ~remote ~peer_isn ~on_teardown =
  let t =
    make engine ~tx ~config ~local ~remote ~on_teardown ~state:Syn_received
  in
  t.reasm <-
    Some (Reassembly.create ~cap:config.reasm_cap ~rcv_nxt:(peer_isn + 1) ());
  let seg =
    {
      seq = 0;
      payload = "";
      syn = true;
      fin = false;
      sent_at = Des.Engine.now engine;
      retx = false;
    }
  in
  Queue.add seg t.inflight;
  t.snd_nxt <- 1;
  emit t ~seq:0 ~flags:Netsim.Packet.flag_syn_ack ~payload:"";
  arm_rto t;
  t
