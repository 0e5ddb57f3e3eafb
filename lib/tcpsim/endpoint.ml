type listener = { config : Conn.config; accept : Conn.t -> unit }

type t = {
  fabric : Netsim.Fabric.t;
  host_ip : int;
  (* Connection [i] is [conns.(i)], found by the key of the packets it
     receives, (remote, local): a lookup takes the incoming packet's own
     key and runs no hash or equality through a closure. *)
  index : Netsim.Flow_table.t;
  mutable conns : Conn.t option array; (* [None]: a free index *)
  mutable free : int list;
  listeners : (Netsim.Addr.t, listener) Hashtbl.t;
  mutable strays : int;
  (* Drop counters carried over from torn-down connections, so the
     host-wide totals below survive connection churn. *)
  mutable retired_reasm_drops : int;
  mutable retired_send_drops : int;
}

let tx t pkt = Netsim.Fabric.send t.fabric ~from:t.host_ip pkt

let rx_key ~local ~remote = Netsim.Flow_key.v ~src:remote ~dst:local

let add_conn t key conn =
  let i =
    match t.free with
    | i :: rest ->
        t.free <- rest;
        i
    | [] ->
        let n = Array.length t.conns in
        let grown = Array.make (2 * n) None in
        Array.blit t.conns 0 grown 0 n;
        t.conns <- grown;
        t.free <- List.init (n - 1) (fun k -> n + 1 + k);
        n
  in
  t.conns.(i) <- Some conn;
  Netsim.Flow_table.add t.index key i

let teardown t conn =
  let key =
    rx_key ~local:(Conn.local_addr conn) ~remote:(Conn.remote_addr conn)
  in
  t.retired_reasm_drops <- t.retired_reasm_drops + Conn.reasm_drops conn;
  t.retired_send_drops <- t.retired_send_drops + Conn.send_drops conn;
  let i = Netsim.Flow_table.find t.index key in
  if i >= 0 then begin
    Netsim.Flow_table.remove t.index key;
    t.conns.(i) <- None;
    t.free <- i :: t.free
  end

let find_listener t (dst : Netsim.Addr.t) =
  match Hashtbl.find_opt t.listeners dst with
  | Some l -> Some l
  | None -> Hashtbl.find_opt t.listeners (Netsim.Addr.v 0 dst.Netsim.Addr.port)

(* RFC 793: a segment for a nonexistent connection elicits a reset (never
   reset-on-reset), so a peer retransmitting into a dead connection —
   a SYN-ACK or FIN whose other side was aborted mid-handshake — gives
   up instead of retrying forever. Without this, connection churn leaves
   a residue of stuck retransmitting connections. Hosts with no return
   route simply drop, like a real network. *)
let reset_stray t (pkt : Netsim.Packet.t) =
  if not pkt.flags.rst then begin
    let rst =
      Netsim.Packet.make ~src:pkt.dst ~dst:pkt.src ~seq:pkt.ack ~ack:pkt.seq
        ~flags:Netsim.Packet.flag_rst ~payload:""
    in
    try tx t rst with Invalid_argument _ -> ()
  end

(* A packet no connection claims: a SYN for a listener opens one,
   anything else is a stray. *)
let unclaimed t (pkt : Netsim.Packet.t) =
  match
    if pkt.flags.syn && not pkt.flags.ack then find_listener t pkt.dst
    else None
  with
  | Some { config; accept } ->
      let engine = Netsim.Fabric.engine t.fabric in
      let conn =
        Conn.create_passive engine ~tx:(tx t) ~config ~local:pkt.dst
          ~remote:pkt.src ~peer_isn:pkt.seq
          ~on_teardown:(fun c -> teardown t c)
      in
      add_conn t pkt.flow_key conn;
      accept conn
  | None ->
      t.strays <- t.strays + 1;
      reset_stray t pkt

let handle t (pkt : Netsim.Packet.t) =
  let i = Netsim.Flow_table.find t.index pkt.flow_key in
  if i < 0 then unclaimed t pkt
  else
    match t.conns.(i) with
    | Some conn -> Conn.handle_packet conn pkt
    | None -> () (* a bound index always holds its connection *)

let create fabric ~host_ip =
  let t =
    {
      fabric;
      host_ip;
      index = Netsim.Flow_table.create ();
      conns = [| None |];
      free = [ 0 ];
      listeners = Hashtbl.create 4;
      strays = 0;
      retired_reasm_drops = 0;
      retired_send_drops = 0;
    }
  in
  Netsim.Fabric.register fabric ~ip:host_ip (handle t);
  t

let listen t ~addr ?(config = Conn.default_config) accept =
  if Hashtbl.mem t.listeners addr then
    invalid_arg (Fmt.str "Endpoint.listen: %a already bound" Netsim.Addr.pp addr);
  Hashtbl.add t.listeners addr { config; accept }

let connect t ?(config = Conn.default_config) ~local ~remote () =
  let key = rx_key ~local ~remote in
  if Netsim.Flow_table.mem t.index key then
    invalid_arg
      (Fmt.str "Endpoint.connect: %a->%a already open" Netsim.Addr.pp local
         Netsim.Addr.pp remote);
  let engine = Netsim.Fabric.engine t.fabric in
  let conn =
    Conn.create_active engine ~tx:(tx t) ~config ~local ~remote
      ~on_teardown:(fun c -> teardown t c)
  in
  add_conn t key conn;
  conn

let active_connections t = Netsim.Flow_table.length t.index
let stray_packets t = t.strays

let fold_conns f t init =
  Array.fold_left
    (fun acc c -> match c with Some conn -> f acc conn | None -> acc)
    init t.conns

let sum_conns t f base = fold_conns (fun acc conn -> acc + f conn) t base

let reasm_pending t = sum_conns t Conn.reasm_pending 0
let reasm_drops t = sum_conns t Conn.reasm_drops t.retired_reasm_drops
let send_backlog t = sum_conns t Conn.send_queue_len 0
let send_drops t = sum_conns t Conn.send_drops t.retired_send_drops
