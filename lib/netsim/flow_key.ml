(* The hash is mixed once at construction and carried in the key, so the
   Maglev lookup and every hash-table probe on the datapath reuse it
   instead of re-finalizing four words per operation. *)
type t = { src : Addr.t; dst : Addr.t; hash : int }

(* splitmix-style finalizer over the four components; stable across runs
   (no use of the polymorphic/seeded stdlib hash). *)
let[@inline] mix h v =
  let h = h lxor (v * 0x9e3779b1) in
  let h = (h lxor (h lsr 16)) * 0x45d9f3b in
  (h lxor (h lsr 13)) land max_int

let hash_parts ~src_ip ~src_port ~dst_ip ~dst_port =
  mix (mix (mix (mix 0x1234567 src_ip) src_port) dst_ip) dst_port

let v ~src ~dst =
  {
    src;
    dst;
    hash =
      hash_parts ~src_ip:src.Addr.ip ~src_port:src.Addr.port
        ~dst_ip:dst.Addr.ip ~dst_port:dst.Addr.port;
  }

let equal a b =
  a.hash = b.hash && Addr.equal a.src b.src && Addr.equal a.dst b.dst

let hash t = t.hash
let pp ppf t = Fmt.pf ppf "%a->%a" Addr.pp t.src Addr.pp t.dst

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
