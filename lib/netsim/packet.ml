type flags = { syn : bool; ack : bool; fin : bool; rst : bool }

let flags_none = { syn = false; ack = false; fin = false; rst = false }
let flag_syn = { flags_none with syn = true }
let flag_ack = { flags_none with ack = true }
let flag_syn_ack = { flags_none with syn = true; ack = true }
let flag_fin_ack = { flags_none with fin = true; ack = true }
let flag_rst = { flags_none with rst = true }

type t = {
  src : Addr.t;
  dst : Addr.t;
  seq : int;
  ack : int;
  flags : flags;
  payload : string;
  flow_key : Flow_key.t;
}

let[@inline] make_on (flow_key : Flow_key.t) ~seq ~ack ~flags ~payload =
  {
    src = flow_key.src;
    dst = flow_key.dst;
    seq;
    ack;
    flags;
    payload;
    flow_key;
  }

let make ~src ~dst ~seq ~ack ~flags ~payload =
  make_on (Flow_key.v ~src ~dst) ~seq ~ack ~flags ~payload

let none =
  let src = Addr.v 0 0 in
  make ~src ~dst:src ~seq:0 ~ack:0 ~flags:flags_none ~payload:""

let header_bytes = 54
let wire_size t = header_bytes + String.length t.payload
let payload_len t = String.length t.payload
let flow t = t.flow_key

let is_pure_ack t =
  String.length t.payload = 0
  && t.flags.ack
  && (not t.flags.syn)
  && (not t.flags.fin)
  && not t.flags.rst

let pp_flags ppf f =
  let tag b c = if b then c else "" in
  Fmt.pf ppf "%s%s%s%s" (tag f.syn "S") (tag f.ack ".") (tag f.fin "F")
    (tag f.rst "R")

let pp ppf t =
  Fmt.pf ppf "%a>%a seq=%d ack=%d [%a] len=%d" Addr.pp t.src Addr.pp t.dst
    t.seq t.ack pp_flags t.flags (String.length t.payload)
