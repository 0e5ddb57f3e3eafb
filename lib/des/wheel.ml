(* Varghese–Lauck hierarchical timing wheel.

   The wheel is a holding area for cancellable timers in front of the
   engine's 4-ary heap: arming is O(1) (cons onto a slot's intrusive
   doubly-linked list), cancelling is O(1) (unlink — no heap tombstone,
   no compaction debt), and entries only ever reach the heap when the
   clock is about to enter their slot. Because an entry is emitted into
   the heap *before* any event of its tick can fire, and the heap orders
   by exact (time, seq), wheel-scheduled timers fire in precisely the
   order a pure heap would have produced — the wheel changes where
   pending timers wait, never when they run.

   Geometry: [levels] levels of [1 lsl slot_bits] slots over a base tick
   of [1 lsl tick_bits] ns. Level 0 resolves single ticks; each higher
   level covers [slot_bits] more bits of the tick and cascades one slot
   down whenever the clock crosses its boundary. Entries beyond the
   whole wheel's span are refused by [offer] and overflow to the
   caller's heap, which stays the single source of firing order.

   The structure is intrusive: the engine's event records ({!Event})
   carry the next/prev/slot fields, so parking a timer allocates
   nothing and relinking one is a few direct stores. Entries in a slot
   are kept LIFO — emission order within a tick is arbitrary by
   contract, since the heap re-establishes (time, seq) order. *)

let tick_bits = 16
let slot_bits = 8
let levels = 3
let tick_ns = 1 lsl tick_bits
let slots_per_level = 1 lsl slot_bits
let slot_mask = slots_per_level - 1
let span_ticks = 1 lsl (slot_bits * levels)
let span_ns = span_ticks * tick_ns

type 'o entry = 'o Event.t

type 'o t = {
  nil : 'o entry;
  (* [levels * slots_per_level] list heads; absolute slot index
     [level lsl slot_bits lor idx], [nil] = empty. *)
  slots : 'o entry array;
  counts : int array; (* physical entries per level *)
  mutable live : int;
  mutable wt : int; (* next tick to flush; every tick below is done *)
  mutable cascades : int;
}

let create ~nil () =
  {
    nil;
    slots = Array.make (levels * slots_per_level) nil;
    counts = Array.make levels 0;
    live = 0;
    wt = 0;
    cascades = 0;
  }

let live t = t.live
let cascades t = t.cascades
let current_tick t = t.wt

(* Link [e] into the slot its tick falls in relative to [t.wt]. The
   caller guarantees [tick >= t.wt] and [tick - t.wt < span_ticks]. *)
let place t e tick =
  let d = tick - t.wt in
  let level =
    if d < slots_per_level then 0
    else if d < slots_per_level * slots_per_level then 1
    else 2
  in
  let idx = (tick lsr (level * slot_bits)) land slot_mask in
  let s = (level lsl slot_bits) lor idx in
  let head = t.slots.(s) in
  e.Event.wnext <- head;
  e.wprev <- t.nil;
  e.wslot <- s;
  if head != t.nil then head.wprev <- e;
  t.slots.(s) <- e;
  t.counts.(level) <- t.counts.(level) + 1

let offer t (e : _ entry) =
  let tick = e.time asr tick_bits in
  if tick < t.wt || tick - t.wt >= span_ticks then false
  else begin
    place t e tick;
    t.live <- t.live + 1;
    true
  end

let remove t (e : _ entry) =
  let s = e.wslot in
  let p = e.wprev and n = e.wnext in
  if p == t.nil then t.slots.(s) <- n else p.wnext <- n;
  if n != t.nil then n.wprev <- p;
  e.wslot <- -1;
  e.wnext <- t.nil;
  e.wprev <- t.nil;
  t.counts.(s lsr slot_bits) <- t.counts.(s lsr slot_bits) - 1;
  t.live <- t.live - 1

(* Detach every entry of slot [s] (level 0) and hand it to [emit]. *)
let flush t s ~emit =
  let e = ref t.slots.(s) in
  if !e != t.nil then begin
    t.slots.(s) <- t.nil;
    while !e != t.nil do
      let e' = !e in
      let n = e'.Event.wnext in
      e'.wslot <- -1;
      e'.wnext <- t.nil;
      e'.wprev <- t.nil;
      t.counts.(0) <- t.counts.(0) - 1;
      t.live <- t.live - 1;
      emit e';
      e := n
    done
  end

(* Re-place every entry of slot [s] at level [lvl] one level down
   (relative to the advanced [t.wt]); all of them now land within the
   lower level's window by construction. *)
let cascade t lvl s ~emit:_ =
  let s = (lvl lsl slot_bits) lor s in
  let e = ref t.slots.(s) in
  if !e != t.nil then begin
    t.slots.(s) <- t.nil;
    t.cascades <- t.cascades + 1;
    while !e != t.nil do
      let n = !e.Event.wnext in
      t.counts.(lvl) <- t.counts.(lvl) - 1;
      place t !e (!e.time asr tick_bits);
      e := n
    done
  end

(* Process tick [t.wt]: cascade any higher-level slot whose boundary
   this tick opens, flush the level-0 slot, move to the next tick. *)
let step t ~emit =
  let wt = t.wt in
  if wt land slot_mask = 0 then begin
    if wt land (slots_per_level * slots_per_level - 1) = 0 && t.counts.(2) > 0
    then cascade t 2 ((wt lsr (2 * slot_bits)) land slot_mask) ~emit;
    if t.counts.(1) > 0 then
      cascade t 1 ((wt lsr slot_bits) land slot_mask) ~emit
  end;
  flush t (wt land slot_mask) ~emit;
  t.wt <- wt + 1

(* When level 0 is empty the clock can jump straight to the next
   cascade boundary that could repopulate it (or past the target). *)
let skip_target t =
  if t.counts.(1) > 0 then ((t.wt lsr slot_bits) + 1) lsl slot_bits
  else ((t.wt lsr (2 * slot_bits)) + 1) lsl (2 * slot_bits)

let advance t ~upto ~emit =
  let target = upto asr tick_bits in
  while t.wt <= target && t.live > 0 do
    if t.counts.(0) = 0 && t.wt land slot_mask <> 0 then
      t.wt <- Int.min (skip_target t) (target + 1)
    else step t ~emit
  done;
  if t.wt <= target then t.wt <- target + 1

(* Heap-empty case: flush up to (and including) the next occupied tick,
   so at least one entry is emitted. Requires [live t > 0]. *)
let advance_next t ~emit =
  let live0 = t.live in
  while t.live = live0 && t.live > 0 do
    if t.counts.(0) = 0 && t.wt land slot_mask <> 0 then
      t.wt <- skip_target t
    else step t ~emit
  done

(* With no entries parked, ticks can be dropped wholesale — called by
   the engine to keep the wheel origin near the clock so freshly armed
   timers land in low levels. Requires [live t = 0]. *)
let catch_up t ~upto = t.wt <- Int.max t.wt (upto asr tick_bits)

(* Lower bound on the earliest parked entry's time, without flushing
   anything. Level 0 resolves single ticks, so the first occupied slot
   at or after [wt] is the minimum level-0 tick and walking its (short)
   list gives that level's exact minimum. Higher levels only yield their
   first occupied slot's base time: entries inside the slot may be up to
   a slot-width later, and a wrapped slot (group base + slots_per_level
   sharing a physical index with group base) may make the bound earlier
   than any real entry — both errors are on the conservative side, which
   is all the adaptive shard barrier needs. O(slots) worst case, no
   allocation, no mutation. *)
let next_time_lower_bound t =
  if t.live = 0 then max_int
  else begin
    let best = ref max_int in
    if t.counts.(0) > 0 then begin
      let tick = ref (-1) in
      let d = ref 0 in
      while !tick < 0 && !d < slots_per_level do
        if t.slots.((t.wt + !d) land slot_mask) != t.nil then
          tick := t.wt + !d;
        incr d
      done;
      (match !tick with
      | -1 -> () (* unreachable: counts.(0) > 0 *)
      | tick ->
          let e = ref t.slots.(tick land slot_mask) in
          while !e != t.nil do
            let tm = !e.Event.time in
            if tm < !best then best := tm;
            e := !e.wnext
          done)
    end;
    for lvl = 1 to levels - 1 do
      if t.counts.(lvl) > 0 then begin
        let shift = lvl * slot_bits in
        let base = t.wt lsr shift in
        let g = ref (-1) in
        let d = ref 0 in
        while !g < 0 && !d < slots_per_level do
          let cand = base + !d in
          if t.slots.((lvl lsl slot_bits) lor (cand land slot_mask)) != t.nil
          then g := cand;
          incr d
        done;
        if !g >= 0 then begin
          (* Ticks to ns; entries never sit below [wt]. *)
          let bound = Stdlib.max (!g lsl shift) t.wt lsl tick_bits in
          if bound < !best then best := bound
        end
      end
    done;
    !best
  end
