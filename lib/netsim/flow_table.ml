(* Open-addressed flow-to-slot map: linear probing over a power-of-two
   bucket array from the hash cached in {!Flow_key.t}. Keys are kept
   inline, not as records: a bucket is three consecutive ints of one
   flat array, the value and then the packed source and destination
   addresses, so the table holds no heap block per key and a probe
   touches one cache line. The value doubles as the bucket's state:
   [-1] empty, [-2] tombstone, anything else occupied (values are
   non-negative flow slab slots). Lookups allocate nothing and a miss
   is reported as [-1] rather than an [option].

   An address packs to [ip lsl 32 lor port]. That is injective for
   ip < 2^30 and port < 2^32, and only such addresses are accepted, so
   two keys are equal exactly when their packed words are: a probe is
   two int compares, with no hash check and no pointer chased. Empty
   buckets and tombstones carry -1 in both key words, which no packed
   address is, so only an occupied bucket can match.

   Deletions leave tombstones so probe chains stay intact; an insert
   reuses the first tombstone it passed once the key is known to be
   absent. When occupied + tombstone buckets reach 3/4 of capacity the
   table is rebuilt — doubling if the live count alone justifies it,
   at the same size if tombstones were the problem (purge). A rebuild
   rehashes each key from its unpacked words with
   {!Flow_key.hash_parts}, the key's own hash. *)

type t = {
  mutable cells : int array; (* per bucket: value, src, dst *)
  mutable mask : int; (* capacity - 1; capacity is a power of two *)
  mutable len : int; (* occupied buckets *)
  mutable tombs : int; (* tombstone buckets *)
}

let empty = -1
let tombstone = -2
let port_bits = 32
let port_mask = (1 lsl port_bits) - 1

(* An ip below 2^30 keeps [ip lsl 32] under [max_int], so a packed
   word is non-negative. [-1] for an address outside the range: [lsr]
   sends a negative field to a huge value, so one test per field
   covers both ends. *)
let[@inline] pack (a : Addr.t) =
  if a.ip lsr 30 = 0 && a.port lsr port_bits = 0 then
    (a.ip lsl port_bits) lor a.port
  else -1

let[@inline] unpack w = Addr.v (w lsr port_bits) (w land port_mask)

let[@inline] hash_packed s d =
  Flow_key.hash_parts ~src_ip:(s lsr port_bits) ~src_port:(s land port_mask)
    ~dst_ip:(d lsr port_bits) ~dst_port:(d land port_mask)

let rec pow2_at_least n c = if c >= n then c else pow2_at_least n (c * 2)

let create ?(initial = 16) () =
  let cap = pow2_at_least (Stdlib.max 16 initial) 16 in
  { cells = Array.make (3 * cap) empty; mask = cap - 1; len = 0; tombs = 0 }

let length t = t.len
let capacity t = t.mask + 1
let tombstones t = t.tombs

(* The probe loops are top-level functions over explicit arguments, so
   no call builds a closure. *)
let rec probe cells mask s d i =
  let b = 3 * i in
  if Array.unsafe_get cells (b + 1) = s && Array.unsafe_get cells (b + 2) = d
  then Array.unsafe_get cells b
  else if Array.unsafe_get cells b = empty then -1
  else probe cells mask s d ((i + 1) land mask)

let find t (key : Flow_key.t) =
  let s = pack key.src and d = pack key.dst in
  if s lor d < 0 then -1
  else probe t.cells t.mask s d (Flow_key.hash key land t.mask)

let mem t key = find t key >= 0

(* Annotated: a store into an array of unknown element type is a
   [caml_modify] call. *)
let[@inline] set (cells : int array) b v s d =
  Array.unsafe_set cells b v;
  Array.unsafe_set cells (b + 1) s;
  Array.unsafe_set cells (b + 2) d

(* Raw insert into a table known not to contain the key and to have no
   tombstones and a free bucket; used after a rebuild. *)
let rec insert_fresh cells mask s d v i =
  let b = 3 * i in
  if Array.unsafe_get cells b = empty then set cells b v s d
  else insert_fresh cells mask s d v ((i + 1) land mask)

let resize t cap =
  let cells = Array.make (3 * cap) empty in
  let mask = cap - 1 in
  let old = t.cells in
  for i = 0 to t.mask do
    let b = 3 * i in
    let v = old.(b) in
    if v >= 0 then begin
      let s = old.(b + 1) and d = old.(b + 2) in
      insert_fresh cells mask s d v (hash_packed s d land mask)
    end
  done;
  t.cells <- cells;
  t.mask <- mask;
  t.tombs <- 0

let maybe_grow t =
  let cap = t.mask + 1 in
  if 4 * (t.len + t.tombs) >= 3 * cap then
    (* Double when genuinely full; rebuild in place (purging
       tombstones) when churn, not growth, filled the table. *)
    resize t (if 2 * t.len >= cap then cap * 2 else cap)

(* The grow check runs only once the probe has proven the key absent:
   updating an existing key at 3/4 load must not trigger a spurious
   resize (and a steady-state update must stay allocation-free). The
   occupancy invariant is unchanged — every true insert still checks
   the pre-insert load, so occupied + tombstone buckets never exceed
   3/4 of capacity plus the one insert in flight, and probe loops
   always find an empty bucket. [tomb] is the first tombstone passed,
   or -1. *)
let rec add_at t s d v h i tomb =
  let cells = t.cells in
  let b = 3 * i in
  let c = Array.unsafe_get cells b in
  if Array.unsafe_get cells (b + 1) = s && Array.unsafe_get cells (b + 2) = d
  then Array.unsafe_set cells b v
  else if c = empty then begin
    (* True insert. Grow/purge first if this key would push the table
       past 3/4 load; the rebuilt table has no tombstones and no key,
       so a fresh probe suffices. *)
    if 4 * (t.len + t.tombs) >= 3 * (t.mask + 1) then begin
      maybe_grow t;
      insert_fresh t.cells t.mask s d v (h land t.mask)
    end
    else if tomb >= 0 then begin
      t.tombs <- t.tombs - 1;
      set cells (3 * tomb) v s d
    end
    else set cells b v s d;
    t.len <- t.len + 1
  end
  else
    add_at t s d v h
      ((i + 1) land t.mask)
      (if tomb < 0 && c = tombstone then i else tomb)

let add t (key : Flow_key.t) v =
  if v < 0 then invalid_arg "Flow_table.add: negative value";
  let s = pack key.src and d = pack key.dst in
  if s lor d < 0 then invalid_arg "Flow_table.add: address out of range";
  let h = Flow_key.hash key in
  add_at t s d v h (h land t.mask) (-1)

let vacate t b =
  set t.cells b tombstone (-1) (-1);
  t.len <- t.len - 1;
  t.tombs <- t.tombs + 1

let rec remove_at t s d i =
  let cells = t.cells in
  let b = 3 * i in
  if Array.unsafe_get cells (b + 1) = s && Array.unsafe_get cells (b + 2) = d
  then vacate t b
  else if Array.unsafe_get cells b <> empty then
    remove_at t s d ((i + 1) land t.mask)

let remove t (key : Flow_key.t) =
  let s = pack key.src and d = pack key.dst in
  if s lor d >= 0 then remove_at t s d (Flow_key.hash key land t.mask)

(* A value is non-negative and the state markers are not, so [c = v]
   holds only in an occupied bucket. *)
let rec remove_value_at t v i =
  let b = 3 * i in
  let c = Array.unsafe_get t.cells b in
  if c = v then vacate t b
  else if c <> empty then remove_value_at t v ((i + 1) land t.mask)

let remove_value t ~hash v =
  if v >= 0 then remove_value_at t v (hash land t.mask)

let iter f t =
  let cells = t.cells in
  for i = 0 to t.mask do
    let b = 3 * i in
    let v = cells.(b) in
    if v >= 0 then
      f (Flow_key.v ~src:(unpack cells.(b + 1)) ~dst:(unpack cells.(b + 2))) v
  done
