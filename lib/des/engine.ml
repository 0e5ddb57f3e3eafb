(* The event queue is a 4-ary min-heap of unboxed int triples (fire
   time, sequence number, slot) kept in heap order in three flat
   [int array]s, so the heap holds no pointers. A sift moves a hole and
   compares (time, seq) as ints: it never dereferences an event record
   and never runs the write barrier ([caml_modify]) that swapping record
   pointers in a major-heap array costs. A per-engine [records] table
   maps each slot to its event record; it is written when an event
   enters the heap and read when it leaves. The 4-ary layout halves the
   sift depth of a binary heap and puts a node's four child times in 32
   contiguous bytes. Five further disciplines keep the queue lean:

   - Cancelled events stay in the heap as tombstones but are counted
     exactly ([tombstones] is incremented by [cancel] and decremented
     whenever a cancelled head is drained). When tombstones exceed half
     the queue (heap and in-order FIFO) the heap is compacted in place
     and re-heapified, so cancel-heavy workloads keep the queue
     proportional to the live event count instead of accumulating
     garbage until the original expiry times come around.

   - [post] / [post_after] / [post_call] / [post_tagged] serve the
     dominant schedule-then-fire pattern (link transmissions, service
     completions, think times): they return no handle, so the event
     record provably cannot be cancelled or referenced after firing.
     Such pooled records own a permanent slot, and the idle ones are an
     int stack of slots, so warm fire-and-forget scheduling allocates
     nothing beyond the caller's closure ([post_call] with a
     preallocated function, and [post_tagged]: nothing at all). A
     [schedule] record is a live handle left to the GC: it borrows a
     slot when it enters the heap and returns it when it leaves (fired,
     drained as a tombstone, or compacted away).

   - Pooled posts made in time order skip the heap: they join one of
     two FIFO rings of (time, seq, slot) beside it. A post for the
     current instant joins the same-instant lane; a later one whose
     time is at or after the in-order FIFO's tail joins that FIFO; only
     the rest enter the heap. Seqs only grow, so each ring is in
     (time, seq) order by construction, and the clock cannot pass a
     pending entry, so every lane entry is due [now]. [step] fires the
     least (time, seq) of the lane head, the FIFO head and the heap
     root, which merges the three exactly. Zero-delay hops (rate-0
     links, replies posted from a handler) and constant-delay
     deliveries (a link's propagation) thus cost a few int stores
     instead of a sift through a deep heap. Cancellable events never
     enter a ring, so the rings hold no tombstones.

   - Cancellable events more than one wheel tick in the future park in a
     hierarchical timing wheel ({!Wheel}) instead of the heap: O(1) arm,
     O(1) cancel with no tombstone debt, and a slot flush into the heap
     just before the clock can enter their tick. The queue alone decides
     firing order — a flushed record is pushed with its original
     (time, seq), so wheel-routed timers fire exactly as if they had
     been heap-resident all along. TCP RTO and delayed-ack timers,
     re-armed and cancelled once per packet, never touch the heap at
     all. Events beyond the wheel's span overflow to the heap.

   - [rearm] moves a timer's own record instead of cancelling it and
     minting another. A parked record is unlinked and offered again;
     one that has left the queue (fired, or cancelled out of the wheel)
     is queued again. Only a record still in the heap, live or a
     tombstone, is cancelled and replaced, since the heap holds its
     slot. The seq is drawn exactly where a cancel plus [schedule] would
     draw it, so the (time, seq) order, and with it every firing, is
     that of the old path. *)

open Event

(* A FIFO of (time, seq, slot) int triples: entry [k] of
   [head .. head + size) (mod the power-of-two capacity) is
   ([times.(k)], [seqs.(k)], [slots.(k)]). Callers append in
   (time, seq) order only, so the head is the least entry. *)
module Ring = struct
  type t = {
    mutable times : int array;
    mutable seqs : int array;
    mutable slots : int array;
    mutable head : int;
    mutable size : int;
  }

  let create () =
    { times = [||]; seqs = [||]; slots = [||]; head = 0; size = 0 }

  (* Double the capacity, unrolling the entries from [head]. *)
  let grow r =
    let cap = Array.length r.times in
    let ncap = if cap = 0 then 64 else cap * 2 in
    let unroll a =
      let b = Array.make ncap 0 in
      for k = 0 to r.size - 1 do
        Array.unsafe_set b k (Array.unsafe_get a ((r.head + k) land (cap - 1)))
      done;
      b
    in
    r.times <- unroll r.times;
    r.seqs <- unroll r.seqs;
    r.slots <- unroll r.slots;
    r.head <- 0

  let[@inline] push r tm sq sl =
    if r.size = Array.length r.times then grow r;
    let k = (r.head + r.size) land (Array.length r.times - 1) in
    Array.unsafe_set r.times k tm;
    Array.unsafe_set r.seqs k sq;
    Array.unsafe_set r.slots k sl;
    r.size <- r.size + 1

  (* The head's time and seq; the ring must not be empty. *)
  let[@inline] time r = Array.unsafe_get r.times r.head
  let[@inline] seq r = Array.unsafe_get r.seqs r.head

  (* The tail's time; the ring must not be empty. *)
  let[@inline] last_time r =
    let k = (r.head + r.size - 1) land (Array.length r.times - 1) in
    Array.unsafe_get r.times k

  (* Remove the head and return its slot. *)
  let pop r =
    let sl = Array.unsafe_get r.slots r.head in
    r.head <- (r.head + 1) land (Array.length r.slots - 1);
    r.size <- r.size - 1;
    sl
end

type event = t Event.t

(* The six arrays share one capacity, at least [nslots]: a heap entry,
   a ring entry, an idle pooled slot and a spare slot each name a
   distinct slot, so only handing out a new slot ever needs to grow
   them. The rings grow on their own. *)
and t = {
  mutable now : Time.t;
  mutable next_seq : int;
  mutable fired : int;
  (* Heap entry [i] is ([times.(i)], [seqs.(i)], [slots.(i)]). *)
  mutable times : int array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable len : int;
  mutable tombstones : int; (* cancelled events still in the heap *)
  lane : Ring.t; (* pooled posts due [now] *)
  fifo : Ring.t; (* later pooled posts, appended in time order *)
  mutable records : event array; (* slot -> record; [nil] if unbound *)
  mutable nslots : int; (* slots handed out so far *)
  mutable idle : int array; (* stack of slots holding idle pooled records *)
  mutable nidle : int;
  mutable spare : int array; (* stack of unbound slots *)
  mutable nspare : int;
  mutable compactions : int;
  nil : event; (* wheel list terminator and unbound slot, never queued *)
  mutable wheel : t Wheel.t option; (* Some after [create] *)
  mutable emit : event -> unit; (* preallocated wheel->heap push *)
  mutable tagged_sink : Obj.t -> Obj.t -> unit; (* [fn] of tagged events *)
}

type handle = event

let null_arg = Obj.repr 0
let in_heap = -2

(* The [fn] of every call event: [a] is the function, [b] its argument. *)
let apply a b = (Obj.obj a : Obj.t -> unit) b

let no_sink (_ : Obj.t) (_ : Obj.t) =
  failwith "Engine: tagged event fired with no sink installed"

let wheel_of t =
  match t.wheel with Some w -> w | None -> assert false

let now t = t.now

(* Entry (tm, sq) sorts strictly before heap entry [i]: earlier time,
   or the same time scheduled earlier. Seq never repeats within an
   engine, and [seqs] is read only on a time tie. The annotations
   matter: on values not known to be ints, [<] compiles to the
   polymorphic [caml_lessthan]. *)
let[@inline] precedes (tm : int) (sq : int) (times : int array)
    (seqs : int array) i =
  let ti = Array.unsafe_get times i in
  tm < ti || (tm = ti && sq < Array.unsafe_get seqs i)

let[@inline] place t i tm sq sl =
  Array.unsafe_set t.times i tm;
  Array.unsafe_set t.seqs i sq;
  Array.unsafe_set t.slots i sl

let[@inline] move t ~src ~dst =
  place t dst
    (Array.unsafe_get t.times src)
    (Array.unsafe_get t.seqs src)
    (Array.unsafe_get t.slots src)

(* Node [i]'s children are [4i+1 .. 4i+4]; parent is [(i-1)/4]. Both
   sifts carry the entry (tm, sq, sl) in registers and move a hole at
   [i], filling it once the entry fits. Indices stay in [0, len). *)
let rec sift_up t i tm sq sl =
  let p = (i - 1) asr 2 in
  if i > 0 && precedes tm sq t.times t.seqs p then begin
    move t ~src:p ~dst:i;
    sift_up t p tm sq sl
  end
  else place t i tm sq sl

let rec sift_down t len i tm sq sl =
  let c = (i lsl 2) + 1 in
  if c >= len then place t i tm sq sl
  else begin
    let times = t.times and seqs = t.seqs in
    let last = if c + 3 < len then c + 3 else len - 1 in
    let m = ref c and mt = ref (Array.unsafe_get times c) in
    for j = c + 1 to last do
      let jt = Array.unsafe_get times j in
      if
        jt < !mt
        || (jt = !mt && Array.unsafe_get seqs j < Array.unsafe_get seqs !m)
      then begin
        m := j;
        mt := jt
      end
    done;
    let m = !m in
    if precedes tm sq times seqs m then place t i tm sq sl
    else begin
      move t ~src:m ~dst:i;
      sift_down t len m tm sq sl
    end
  end

let push t tm sq sl =
  let i = t.len in
  t.len <- i + 1;
  sift_up t i tm sq sl

(* Remove the root and return its slot. *)
let pop t =
  let sl = Array.unsafe_get t.slots 0 in
  let n = t.len - 1 in
  t.len <- n;
  if n > 0 then
    sift_down t n 0
      (Array.unsafe_get t.times n)
      (Array.unsafe_get t.seqs n)
      (Array.unsafe_get t.slots n);
  sl

let grow t =
  let cap = Array.length t.records in
  let ncap = if cap = 0 then 256 else cap * 2 in
  let extend a fill =
    let b = Array.make ncap fill in
    Array.blit a 0 b 0 cap;
    b
  in
  t.times <- extend t.times 0;
  t.seqs <- extend t.seqs 0;
  t.slots <- extend t.slots 0;
  t.idle <- extend t.idle 0;
  t.spare <- extend t.spare 0;
  t.records <- extend t.records t.nil

(* An unbound slot: a spare one if any, else a new one. *)
let take_slot t =
  if t.nspare > 0 then begin
    t.nspare <- t.nspare - 1;
    Array.unsafe_get t.spare t.nspare
  end
  else begin
    if t.nslots = Array.length t.records then grow t;
    let s = t.nslots in
    t.nslots <- s + 1;
    s
  end

(* A [schedule] record enters the heap on a borrowed slot... *)
let enter t ev =
  let s = take_slot t in
  t.records.(s) <- ev;
  ev.wslot <- in_heap;
  push t ev.time ev.seq s

(* ...and gives it back when it leaves, unbinding it so the engine
   keeps no dead record (or its closure) alive. *)
let release t s =
  (Array.unsafe_get t.records s).wslot <- -1;
  t.records.(s) <- t.nil;
  Array.unsafe_set t.spare t.nspare s;
  t.nspare <- t.nspare + 1

(* A fired pooled record keeps its slot and waits for the next post. *)
let recycle t s =
  Array.unsafe_set t.idle t.nidle s;
  t.nidle <- t.nidle + 1

let create () =
  let rec nil =
    {
      time = 0;
      seq = -1;
      cancelled = false;
      pooled = false;
      fn = apply;
      a = null_arg;
      b = null_arg;
      owner = t;
      wnext = nil;
      wprev = nil;
      wslot = -1;
    }
  and t =
    {
      now = Time.zero;
      next_seq = 0;
      fired = 0;
      times = [||];
      seqs = [||];
      slots = [||];
      len = 0;
      tombstones = 0;
      lane = Ring.create ();
      fifo = Ring.create ();
      records = [||];
      nslots = 0;
      idle = [||];
      nidle = 0;
      spare = [||];
      nspare = 0;
      compactions = 0;
      nil;
      wheel = None;
      emit = ignore;
      tagged_sink = no_sink;
    }
  in
  t.wheel <- Some (Wheel.create ~nil ());
  t.emit <- (fun ev -> enter t ev);
  t

(* Drop the payload a record would otherwise keep alive (and, for a
   record in the major heap, promote at the next minor collection). *)
let[@inline] clear ev =
  ev.a <- null_arg;
  if ev.b != null_arg then ev.b <- null_arg

(* Drop every tombstone, returning its slot, and restore the heap
   invariant bottom-up (Floyd). *)
let compact t =
  let j = ref 0 in
  for i = 0 to t.len - 1 do
    let s = t.slots.(i) in
    let ev = t.records.(s) in
    if ev.cancelled then begin
      clear ev;
      release t s
    end
    else begin
      move t ~src:i ~dst:!j;
      incr j
    end
  done;
  t.len <- !j;
  t.tombstones <- 0;
  t.compactions <- t.compactions + 1;
  for i = (t.len - 2) asr 2 downto 0 do
    sift_down t t.len i t.times.(i) t.seqs.(i) t.slots.(i)
  done

(* The FIFO counts as heap here and in [drain_cancelled_heads]: the
   queue keeps exactly the tombstones one heap holding both would keep,
   so [queue_length] reads as if one heap held both, and the bound
   [queue_length <= max 64 (2 * pending)] holds with a small heap. *)
let maybe_compact t =
  let n = t.len + t.fifo.size in
  if n >= 64 && 2 * t.tombstones > n then compact t

let in_the_past t at =
  invalid_arg
    (Fmt.str "Engine.schedule: at=%a is before now=%a" Time.pp at Time.pp
       t.now)

(* Kept apart from the error branch so that every post and [schedule]
   inlines the compare instead of calling it. *)
let[@inline] check_future t at = if at < t.now then in_the_past t at

let schedule t ~at f =
  check_future t at;
  let nil = t.nil in
  let ev =
    { time = at; seq = t.next_seq; cancelled = false; pooled = false;
      fn = apply; a = Obj.repr f; b = Obj.repr (); owner = t; wnext = nil;
      wprev = nil; wslot = -1 }
  in
  t.next_seq <- t.next_seq + 1;
  if not (Wheel.offer (wheel_of t) ev) then enter t ev;
  ev

let schedule_after t ~delay f =
  if delay < 0 then invalid_arg "Engine.schedule_after: negative delay";
  schedule t ~at:(t.now + delay) f

(* Queue an idle pooled record at [at] — in the lane when [at] is the
   current instant, in the FIFO when no earlier than its tail, else in
   the heap — minting one if none is idle, and load its payload
   [fn a b]. [fn] ([apply] or the sink) and often [a]
   (the function of a call) are long-lived, so each is only written
   when it changes: a store into a major-heap record is a
   [caml_modify]. *)
let post_pooled t ~at fn a b =
  check_future t at;
  let s =
    if t.nidle > 0 then begin
      t.nidle <- t.nidle - 1;
      Array.unsafe_get t.idle t.nidle
    end
    else begin
      let s = take_slot t and nil = t.nil in
      t.records.(s) <-
        { time = 0; seq = -1; cancelled = false; pooled = true; fn = apply;
          a = null_arg; b = null_arg; owner = t; wnext = nil; wprev = nil;
          wslot = -1 };
      s
    end
  in
  let sq = t.next_seq in
  t.next_seq <- sq + 1;
  let fifo = t.fifo in
  if at = t.now then Ring.push t.lane at sq s
  else if fifo.size = 0 || at >= Ring.last_time fifo then Ring.push fifo at sq s
  else push t at sq s;
  let ev = Array.unsafe_get t.records s in
  if ev.fn != fn then ev.fn <- fn;
  if ev.a != a then ev.a <- a;
  if b != null_arg then ev.b <- b

let post_call t ~at f x = post_pooled t ~at apply (Obj.repr f) (Obj.repr x)

(* A posted thunk is the argument of this one function, so firing
   drops it as it drops any argument. *)
let run_thunk (f : unit -> unit) = f ()
let post t ~at f = post_call t ~at run_thunk f

let post_after t ~delay f =
  if delay < 0 then invalid_arg "Engine.post_after: negative delay";
  post t ~at:(t.now + delay) f

let set_tagged_sink t (f : int -> Obj.t -> unit) =
  t.tagged_sink <- (Obj.magic f : Obj.t -> Obj.t -> unit)

(* A call of the sink on (tag, arg): an immediate int travels as an
   [Obj.t] unchanged, so the sink itself is the record's [fn]. *)
let post_tagged t ~at ~tag arg =
  if tag < 0 then invalid_arg "Engine.post_tagged: tag must be >= 0";
  post_pooled t ~at t.tagged_sink (Obj.repr tag) arg

let cancel (ev : handle) =
  (* Events are marked cancelled when they fire, so late cancels of
     fired handles are no-ops and never skew the tombstone count. *)
  if not ev.cancelled then begin
    ev.cancelled <- true;
    let t = ev.owner in
    if ev.wslot >= 0 then
      (* Parked in the wheel: unlink outright — no tombstone, no
         compaction debt, the heap never hears of it. *)
      Wheel.remove (wheel_of t) ev
    else begin
      t.tombstones <- t.tombstones + 1;
      maybe_compact t
    end
  end

let unscheduled t =
  let nil = t.nil in
  { time = 0; seq = -1; cancelled = true; pooled = false; fn = apply;
    a = null_arg; b = Obj.repr (); owner = t; wnext = nil; wprev = nil;
    wslot = -1 }

let scheduled (ev : handle) = not ev.cancelled

(* [cancel ev] then [schedule_after ~delay f], reusing [ev] unless the
   heap still holds it. [f] is restored because [compact] clears the
   payload of the tombstones it drops. *)
let rearm (ev : handle) ~delay f =
  if delay < 0 then invalid_arg "Engine.rearm: negative delay";
  let t = ev.owner in
  let at = t.now + delay in
  if ev.wslot = in_heap then begin
    cancel ev;
    schedule t ~at f
  end
  else begin
    let sq = t.next_seq in
    t.next_seq <- sq + 1;
    let f = Obj.repr f in
    if ev.a != f then ev.a <- f;
    let w = wheel_of t in
    if ev.wslot >= 0 then Wheel.remove w ev else ev.cancelled <- false;
    ev.time <- at;
    ev.seq <- sq;
    if not (Wheel.offer w ev) then enter t ev;
    ev
  end

(* The heap root precedes the head of ring [r]; neither may be empty. *)
let[@inline] root_precedes t (r : Ring.t) =
  precedes (Array.unsafe_get t.times 0) (Array.unsafe_get t.seqs 0) r.times
    r.seqs r.head

(* Only [schedule] records have handles, so every tombstone holds a
   borrowed slot. [tombstones] is exact, so with none the root record
   is not even read. A tombstone leaves once it is due before the FIFO
   head, as it would from the root of a heap holding both. *)
let rec drain_cancelled_heads t =
  if
    t.tombstones > 0
    && t.records.(t.slots.(0)).cancelled
    && (t.fifo.size = 0 || root_precedes t t.fifo)
  then begin
    release t (pop t);
    t.tombstones <- t.tombstones - 1;
    drain_cancelled_heads t
  end

(* Fire time of the next queued event once heads are drained: the
   lane's entries are all due now, and nothing queued is earlier.
   [max_int] when all three are empty (the wheel aside). *)
let head_time t =
  if t.lane.size > 0 then t.now
  else
    let h = if t.len > 0 then Array.unsafe_get t.times 0 else max_int in
    if t.fifo.size > 0 then Int.min h (Ring.time t.fifo) else h

(* Make the next queued event the globally next one: flush every wheel
   tick at or below its time (wheel entries are never cancelled —
   [cancel] unlinks them — so everything emitted is live). Tombstoned
   heads are drained first so the flush target is a live time. With
   nothing queued, flush through the next occupied tick; with an empty
   wheel, just keep its origin tracking the clock. *)
let settle t =
  drain_cancelled_heads t;
  let w = wheel_of t in
  if Wheel.live w = 0 then Wheel.catch_up w ~upto:t.now
  else
    let head = head_time t in
    if head < max_int then Wheel.advance w ~upto:head ~emit:t.emit
    else Wheel.advance_next w ~emit:t.emit

(* Bounded variant for [run ~until]: only ticks at or below the limit
   may be flushed, so timers parked beyond the stopping point stay in
   the wheel (and keep their O(1) cancel) across run/schedule cycles. *)
let settle_until t limit =
  drain_cancelled_heads t;
  let w = wheel_of t in
  if Wheel.live w = 0 then Wheel.catch_up w ~upto:t.now
  else
    let head = head_time t in
    Wheel.advance w ~upto:(if head <= limit then head else limit) ~emit:t.emit

(* Fire the record in slot [s]. Its slot is returned before the
   callback runs, so the callback may post again straight away. A
   pooled record drops its argument (a packet, a posted thunk) but
   keeps the function of a [post_call] until its next post, which then
   skips the store when the function is the same one: a link's
   receiver, a server's completion. A schedule record keeps both, for
   [rearm]. *)
let[@inline] fire t s =
  let ev = Array.unsafe_get t.records s in
  t.fired <- t.fired + 1;
  let fn = ev.fn and a = ev.a and b = ev.b in
  if ev.pooled then begin
    if b != null_arg then ev.b <- null_arg;
    recycle t s
  end
  else begin
    ev.cancelled <- true;
    release t s
  end;
  (* A call fires as a one-argument application: [fn a b] on an unknown
     [fn] would go through [caml_apply2]. *)
  if fn == apply then (Obj.obj a : Obj.t -> unit) b else fn a b

(* After [settle] no wheel entry is due before the next queued event,
   and the heap root is live unless the FIFO head precedes it. Of the
   lane head, the FIFO head and the heap root, the least (time, seq)
   fires: [r] is the ring with the lesser head (the lane's is due now,
   so it is never later than the FIFO's), and the heap root goes first
   only if it precedes that. *)
let step t =
  settle t;
  let lane = t.lane and fifo = t.fifo in
  let r =
    if lane.size = 0 then fifo
    else if
      fifo.size = 0
      || Ring.time fifo > t.now
      || Ring.seq lane < Ring.seq fifo
    then lane
    else fifo
  in
  if r.size > 0 then begin
    if t.len > 0 && root_precedes t r then begin
      t.now <- Array.unsafe_get t.times 0;
      fire t (pop t)
    end
    else begin
      t.now <- Ring.time r;
      fire t (Ring.pop r)
    end;
    true
  end
  else if t.len = 0 then false
  else begin
    t.now <- Array.unsafe_get t.times 0;
    fire t (pop t);
    true
  end

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some limit ->
      let continue = ref true in
      while !continue do
        settle_until t limit;
        if head_time t <= limit then ignore (step t)
        else begin
          t.now <- Time.max t.now limit;
          continue := false
        end
      done

(* Lower bound on the next live event's fire time, [None] when idle.
   The ring and heap heads are exact once tombstoned heads are
   drained (a local mutation, safe between runs); the wheel contributes
   its conservative slot bound. The shard barrier feeds the fleet-wide
   minimum of these into the adaptive window horizon, so "lower bound"
   is the contract — never later than the true next event. *)
let next_event_time t =
  drain_cancelled_heads t;
  let bound = Wheel.next_time_lower_bound (wheel_of t) in
  let head = head_time t in
  let bound = if head < bound then head else bound in
  if bound = max_int then None else Some bound

let pending t =
  t.len - t.tombstones + t.lane.size + t.fifo.size + Wheel.live (wheel_of t)

let queue_length t = t.len + t.lane.size + t.fifo.size
let wheel_size t = Wheel.live (wheel_of t)
let wheel_cascades t = Wheel.cascades (wheel_of t)
let compactions t = t.compactions
let events_fired t = t.fired
