(* Open-addressed flow-to-slot map: linear probing over a power-of-two
   array, reusing the hash cached in {!Flow_key.t} so a probe is an int
   compare plus at most one key equality per visited bucket. Values are
   plain ints (flow slab slots), so lookups allocate nothing and a miss
   is reported as [-1] rather than an [option].

   Deletions leave tombstones so probe chains stay intact; an insert
   reuses the first tombstone it passed once the key is known to be
   absent. When occupied + tombstone buckets reach 3/4 of capacity the
   table is rebuilt — doubling if the live count alone justifies it,
   at the same size if tombstones were the problem (purge). *)

type t = {
  mutable keys : Flow_key.t array;
  mutable vals : int array;
  mutable state : Bytes.t; (* per bucket: '\000' empty, '\001' occupied,
                              '\002' tombstone *)
  mutable mask : int; (* capacity - 1; capacity is a power of two *)
  mutable len : int; (* occupied buckets *)
  mutable tombs : int; (* tombstone buckets *)
}

let empty = '\000'
let occupied = '\001'
let tombstone = '\002'

(* Fills empty and tombstone key buckets. IP 0 is reserved by Fabric,
   so the dummy can never equal a real key — but correctness never
   relies on that: state bytes discriminate. A plain value, not a
   [lazy]: domains building tables at once (a [Parallel.map] of
   scenarios) would race to force it, and OCaml 5 raises
   [CamlinternalLazy.Undefined] in the loser. *)
let dummy_key = Flow_key.v ~src:(Addr.v 0 0) ~dst:(Addr.v 0 0)

let rec pow2_at_least n c = if c >= n then c else pow2_at_least n (c * 2)

let create ?(initial = 16) () =
  let cap = pow2_at_least (Stdlib.max 16 initial) 16 in
  {
    keys = Array.make cap dummy_key;
    vals = Array.make cap 0;
    state = Bytes.make cap empty;
    mask = cap - 1;
    len = 0;
    tombs = 0;
  }

let length t = t.len
let capacity t = t.mask + 1
let tombstones t = t.tombs

let find t key =
  let mask = t.mask in
  let i = ref (Flow_key.hash key land mask) in
  let v = ref (-1) in
  let continue = ref true in
  while !continue do
    match Bytes.unsafe_get t.state !i with
    | c when c = empty -> continue := false
    | c when c = occupied && Flow_key.equal (Array.unsafe_get t.keys !i) key
      ->
        v := Array.unsafe_get t.vals !i;
        continue := false
    | _ -> i := (!i + 1) land mask
  done;
  !v

let mem t key = find t key >= 0

(* Raw insert into a table known not to contain [key] and to have a free
   bucket; used by [resize] (no tombstones to consider). *)
let insert_fresh keys vals state mask key v =
  let i = ref (Flow_key.hash key land mask) in
  while Bytes.unsafe_get state !i = occupied do
    i := (!i + 1) land mask
  done;
  Bytes.unsafe_set state !i occupied;
  Array.unsafe_set keys !i key;
  Array.unsafe_set vals !i v

let resize t cap =
  let keys = Array.make cap dummy_key in
  let vals = Array.make cap 0 in
  let state = Bytes.make cap empty in
  let mask = cap - 1 in
  for i = 0 to t.mask do
    if Bytes.unsafe_get t.state i = occupied then
      insert_fresh keys vals state mask t.keys.(i) t.vals.(i)
  done;
  t.keys <- keys;
  t.vals <- vals;
  t.state <- state;
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
   always find an empty bucket. *)
let add t key v =
  let mask = t.mask in
  let i = ref (Flow_key.hash key land mask) in
  let slot = ref (-1) in (* first tombstone passed *)
  let continue = ref true in
  while !continue do
    match Bytes.unsafe_get t.state !i with
    | c when c = empty ->
        (* True insert. Grow/purge first if this key would push the
           table past 3/4 load; the rebuilt table has no tombstones and
           no [key], so a fresh probe suffices. *)
        if 4 * (t.len + t.tombs) >= 3 * (t.mask + 1) then begin
          maybe_grow t;
          insert_fresh t.keys t.vals t.state t.mask key v
        end
        else begin
          let j = if !slot >= 0 then !slot else !i in
          if !slot >= 0 then t.tombs <- t.tombs - 1;
          Bytes.unsafe_set t.state j occupied;
          Array.unsafe_set t.keys j key;
          Array.unsafe_set t.vals j v
        end;
        t.len <- t.len + 1;
        continue := false
    | c when c = occupied ->
        if Flow_key.equal (Array.unsafe_get t.keys !i) key then begin
          Array.unsafe_set t.vals !i v;
          continue := false
        end
        else i := (!i + 1) land mask
    | _ ->
        if !slot < 0 then slot := !i;
        i := (!i + 1) land mask
  done

let remove t key =
  let mask = t.mask in
  let i = ref (Flow_key.hash key land mask) in
  let continue = ref true in
  while !continue do
    match Bytes.unsafe_get t.state !i with
    | c when c = empty -> continue := false
    | c when c = occupied && Flow_key.equal (Array.unsafe_get t.keys !i) key
      ->
        Bytes.unsafe_set t.state !i tombstone;
        (* Drop the key record so expired flows don't pin it. *)
        Array.unsafe_set t.keys !i dummy_key;
        t.len <- t.len - 1;
        t.tombs <- t.tombs + 1;
        continue := false
    | _ -> i := (!i + 1) land mask
  done

let iter f t =
  for i = 0 to t.mask do
    if Bytes.unsafe_get t.state i = occupied then f t.keys.(i) t.vals.(i)
  done
