type ip = int

(* Links are keyed by [(src lsl 20) lor dst] — one immediate int —
   and hosts by their ip. [register]/[add_link] enforce the 20-bit
   address range that makes the packing injective. *)
let max_ip = (1 lsl 20) - 1
let link_key ~src ~dst = (src lsl 20) lor dst

(* An int-keyed open-addressed table: linear probing from a
   multiplicative hash, load at most 1/2. Keys are >= 0 and never
   removed, so a probe for an absent key stops at the first empty slot,
   whose value is [None]. A lookup runs no polymorphic hash or compare
   and no closure, and allocates nothing: a hit returns the stored
   [Some]. *)
type 'a table = {
  mutable keys : int array; (* -1 = empty *)
  mutable vals : 'a option array;
  mutable shift : int; (* 63 - log2 capacity *)
  mutable count : int;
}

let table_create () =
  {
    keys = Array.make 16 (-1);
    vals = Array.make 16 None;
    shift = 59;
    count = 0;
  }

let rec probe keys key i =
  let k = Array.unsafe_get keys i in
  if k = key || k < 0 then i
  else probe keys key ((i + 1) land (Array.length keys - 1))

(* The slot holding [key], or the empty slot where it would go. *)
let slot tbl key = probe tbl.keys key ((key * 0x2545F4914F6CDD1D) lsr tbl.shift)
let find tbl key = Array.unsafe_get tbl.vals (slot tbl key)

(* [key] must be absent. *)
let rec add tbl key v =
  let cap = Array.length tbl.keys in
  if 2 * (tbl.count + 1) > cap then begin
    let keys = tbl.keys and vals = tbl.vals in
    tbl.keys <- Array.make (2 * cap) (-1);
    tbl.vals <- Array.make (2 * cap) None;
    tbl.shift <- tbl.shift - 1;
    tbl.count <- 0;
    Array.iteri
      (fun i k -> match vals.(i) with Some v -> add tbl k v | None -> ())
      keys;
    add tbl key v
  end
  else begin
    let i = slot tbl key in
    tbl.keys.(i) <- key;
    tbl.vals.(i) <- Some v;
    tbl.count <- tbl.count + 1
  end

(* [add_link] connects a link to its destination's receive handler
   itself, so delivery does no lookup. *)
type t = {
  engine : Des.Engine.t;
  hosts : (Packet.t -> unit) table;
  links : Link.t table;
}

let create engine = { engine; hosts = table_create (); links = table_create () }
let engine t = t.engine

let check_ip ~who ip =
  if ip < 0 || ip > max_ip then
    invalid_arg (Fmt.str "%s: ip %d out of range [0, %d]" who ip max_ip)

let register t ~ip handler =
  if ip = 0 then invalid_arg "Fabric.register: ip 0 is reserved";
  check_ip ~who:"Fabric.register" ip;
  if find t.hosts ip <> None then
    invalid_arg (Fmt.str "Fabric.register: ip %d already registered" ip);
  add t.hosts ip handler

let add_link t ~src ~dst link =
  check_ip ~who:"Fabric.add_link" src;
  check_ip ~who:"Fabric.add_link" dst;
  if find t.links (link_key ~src ~dst) <> None then
    invalid_arg (Fmt.str "Fabric.add_link: link %d->%d exists" src dst);
  match find t.hosts dst with
  | None ->
      invalid_arg
        (Fmt.str "Fabric.add_link: destination %d not registered" dst)
  | Some handler ->
      Link.connect link handler;
      add t.links (link_key ~src ~dst) link

(* A cross-shard link: [dst] lives on another shard's fabric, so there
   is no local handler to connect. The remote sink (typically
   [Des.Shard.post_remote_tagged] with the destination ip as tag, and
   the destination fabric's [deliver] as that shard's sink) carries the
   packet across the shard boundary at its arrival time. *)
let add_remote_link t ~src ~dst ~remote link =
  check_ip ~who:"Fabric.add_remote_link" src;
  check_ip ~who:"Fabric.add_remote_link" dst;
  if find t.links (link_key ~src ~dst) <> None then
    invalid_arg (Fmt.str "Fabric.add_remote_link: link %d->%d exists" src dst);
  Link.connect_remote link remote;
  add t.links (link_key ~src ~dst) link

let deliver t ~ip pkt =
  match find t.hosts ip with
  | Some handler -> handler pkt
  | None -> invalid_arg (Fmt.str "Fabric.deliver: ip %d not registered" ip)

let link_between t ~src ~dst =
  match find t.links (link_key ~src ~dst) with
  | Some link -> link
  | None -> raise Not_found

let[@inline] forward t ~from ~hop pkt =
  match find t.links (link_key ~src:from ~dst:hop) with
  | Some link -> Link.send link pkt
  | None ->
      invalid_arg
        (Fmt.str "Fabric.send: no link %d->%d for packet %a" from hop Packet.pp
           pkt)

let send t ~from pkt = forward t ~from ~hop:pkt.Packet.dst.Addr.ip pkt
