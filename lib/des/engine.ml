(* The event queue is a 4-ary min-heap of unboxed int triples (fire
   time, sequence number, slot) kept in heap order in three flat
   [int array]s, so the heap holds no pointers. A sift moves a hole and
   compares (time, seq) as ints: it never dereferences an event record
   and never runs the write barrier ([caml_modify]) that swapping record
   pointers in a major-heap array costs. A per-engine [records] table
   maps each slot to its event record; it is written when an event
   enters the queue and read when it leaves. The 4-ary layout halves
   the sift depth of a binary heap and puts a node's four child times
   in 32 contiguous bytes. Three further disciplines keep the queue
   lean:

   - A second table, [pos], maps each slot in the heap to its heap
     index. [place], the one function that writes a heap entry, keeps
     it current, so [cancel] removes a [schedule] record's own entry at
     once (the last entry fills the hole and sifts up or down) and
     [rearm] gives the entry a new (time, seq) where it stands and
     sifts it up or down. The heap holds no cancelled entry, and a
     [Timer] keeps one record, and one slot while armed. [rearm] draws
     its seq exactly where a cancel plus [schedule] would, so the
     (time, seq) order, and with it every firing, is that of the
     cancel-and-reschedule path.

   - [post] / [post_after] / [post_call] / [post_tagged] serve the
     dominant schedule-then-fire pattern (link transmissions, service
     completions, think times): they return no handle, so the event
     record provably cannot be cancelled or referenced after firing.
     Such pooled records own a permanent slot, and the idle ones are an
     int stack of slots, so warm fire-and-forget scheduling allocates
     nothing beyond the caller's closure ([post_call] with a
     preallocated function, and [post_tagged]: nothing at all). A
     [schedule] record is a live handle left to the GC: it borrows a
     slot when it enters the heap and returns it when it leaves (fired
     or cancelled).

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
     enter a ring. *)

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

(* An event record. Firing applies [fn a b]. A call ([post_call f x];
   [post] and [schedule] are calls of a thunk on [()]) stores [apply],
   [f] and [x]; a tagged event stores the engine's sink, the tag and
   the payload. Either way no closure is built per event. The heap
   keeps the record's (time, seq), so the record holds neither. *)
type event = {
  pooled : bool;
  mutable fn : Obj.t -> Obj.t -> unit;
  mutable a : Obj.t;
  mutable b : Obj.t;
  owner : t; (* for [cancel] and [rearm], which get only the record *)
  mutable slot : int; (* a [schedule] record's slot while queued, else -1 *)
}

(* The seven slot-indexed arrays share one capacity, at least
   [nslots]: a heap entry, a ring entry, an idle pooled slot and a
   spare slot each name a distinct slot, so only handing out a new slot
   ever needs to grow them. The rings grow on their own. *)
and t = {
  mutable now : Time.t;
  mutable next_seq : int;
  mutable fired : int;
  (* Heap entry [i] is ([times.(i)], [seqs.(i)], [slots.(i)]). *)
  mutable times : int array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable pos : int array; (* slot -> heap index, while in the heap *)
  mutable len : int;
  lane : Ring.t; (* pooled posts due [now] *)
  fifo : Ring.t; (* later pooled posts, appended in time order *)
  mutable records : event array; (* slot -> record; [nil] if unbound *)
  mutable nslots : int; (* slots handed out so far *)
  mutable idle : int array; (* stack of slots holding idle pooled records *)
  mutable nidle : int;
  mutable spare : int array; (* stack of unbound slots *)
  mutable nspare : int;
  nil : event; (* fills unbound slots, never queued *)
  mutable tagged_sink : Obj.t -> Obj.t -> unit; (* [fn] of tagged events *)
}

type handle = event

let null_arg = Obj.repr 0

(* The [fn] of every call event: [a] is the function, [b] its argument. *)
let apply a b = (Obj.obj a : Obj.t -> unit) b

let no_sink (_ : Obj.t) (_ : Obj.t) =
  failwith "Engine: tagged event fired with no sink installed"

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
  Array.unsafe_set t.slots i sl;
  Array.unsafe_set t.pos sl i

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

(* Fill the hole at heap index [i] with (tm, sq, sl): it sifts up if it
   precedes [i]'s parent, else down. *)
let resift t i tm sq sl =
  if i > 0 && precedes tm sq t.times t.seqs ((i - 1) asr 2) then
    sift_up t i tm sq sl
  else sift_down t t.len i tm sq sl

let push t tm sq sl =
  let i = t.len in
  t.len <- i + 1;
  sift_up t i tm sq sl

(* Remove heap entry [i]; the last entry fills its hole. *)
let remove t i =
  let n = t.len - 1 in
  t.len <- n;
  if i < n then
    resift t i
      (Array.unsafe_get t.times n)
      (Array.unsafe_get t.seqs n)
      (Array.unsafe_get t.slots n)

(* Remove the root and return its slot. *)
let pop t =
  let sl = Array.unsafe_get t.slots 0 in
  remove t 0;
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
  t.pos <- extend t.pos 0;
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
let enter t ev at sq =
  let s = take_slot t in
  t.records.(s) <- ev;
  ev.slot <- s;
  push t at sq s

(* ...and gives it back when it leaves, unbinding it so the engine
   keeps no dead record (or its closure) alive. *)
let release t s =
  (Array.unsafe_get t.records s).slot <- -1;
  t.records.(s) <- t.nil;
  Array.unsafe_set t.spare t.nspare s;
  t.nspare <- t.nspare + 1

(* A fired pooled record keeps its slot and waits for the next post. *)
let recycle t s =
  Array.unsafe_set t.idle t.nidle s;
  t.nidle <- t.nidle + 1

let create () =
  let rec nil =
    { pooled = false; fn = apply; a = null_arg; b = null_arg; owner = t;
      slot = -1 }
  and t =
    {
      now = Time.zero;
      next_seq = 0;
      fired = 0;
      times = [||];
      seqs = [||];
      slots = [||];
      pos = [||];
      len = 0;
      lane = Ring.create ();
      fifo = Ring.create ();
      records = [||];
      nslots = 0;
      idle = [||];
      nidle = 0;
      spare = [||];
      nspare = 0;
      nil;
      tagged_sink = no_sink;
    }
  in
  t

let in_the_past t at =
  invalid_arg
    (Fmt.str "Engine.schedule: at=%a is before now=%a" Time.pp at Time.pp
       t.now)

(* Kept apart from the error branch so that every post and [schedule]
   inlines the compare instead of calling it. *)
let[@inline] check_future t at = if at < t.now then in_the_past t at

(* A record for [schedule] and [unscheduled]: a call of [f] on [()]. *)
let record t f =
  { pooled = false; fn = apply; a = f; b = Obj.repr (); owner = t; slot = -1 }

let schedule t ~at f =
  check_future t at;
  let ev = record t (Obj.repr f) in
  let sq = t.next_seq in
  t.next_seq <- sq + 1;
  enter t ev at sq;
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
      let s = take_slot t in
      t.records.(s) <-
        { pooled = true; fn = apply; a = null_arg; b = null_arg; owner = t;
          slot = -1 };
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

(* Only [schedule] records are handles, and such a record holds a slot
   only while its entry is in the heap, so a fired or cancelled handle
   ([slot = -1]) is left alone. The record keeps its payload for
   [rearm]. *)
let cancel (ev : handle) =
  let s = ev.slot in
  if s >= 0 then begin
    let t = ev.owner in
    remove t (Array.unsafe_get t.pos s);
    release t s
  end

let unscheduled t = record t null_arg
let scheduled (ev : handle) = ev.slot >= 0

(* [cancel ev] then [schedule_after ~delay f] on [ev]'s own record: a
   queued entry takes the new (time, seq) where it stands, and an idle
   record enters the heap again. *)
let rearm (ev : handle) ~delay f =
  if delay < 0 then invalid_arg "Engine.rearm: negative delay";
  let t = ev.owner in
  let at = t.now + delay and sq = t.next_seq in
  t.next_seq <- sq + 1;
  let f = Obj.repr f in
  if ev.a != f then ev.a <- f;
  let s = ev.slot in
  if s >= 0 then resift t (Array.unsafe_get t.pos s) at sq s
  else enter t ev at sq

(* The heap root precedes the head of ring [r]; neither may be empty. *)
let[@inline] root_precedes t (r : Ring.t) =
  precedes (Array.unsafe_get t.times 0) (Array.unsafe_get t.seqs 0) r.times
    r.seqs r.head

(* Fire time of the next queued event: the lane's entries are all due
   now, and nothing queued is earlier. [max_int] when all three are
   empty. *)
let head_time t =
  if t.lane.size > 0 then t.now
  else
    let h = if t.len > 0 then Array.unsafe_get t.times 0 else max_int in
    if t.fifo.size > 0 then Int.min h (Ring.time t.fifo) else h

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
  else release t s;
  (* A call fires as a one-argument application: [fn a b] on an unknown
     [fn] would go through [caml_apply2]. *)
  if fn == apply then (Obj.obj a : Obj.t -> unit) b else fn a b

(* Of the lane head, the FIFO head and the heap root, the least
   (time, seq) fires: [r] is the ring with the lesser head (the lane's
   is due now, so it is never later than the FIFO's), and the heap root
   goes first only if it precedes that. *)
let step t =
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
      while head_time t <= limit && step t do () done;
      t.now <- Time.max t.now limit

let next_event_time t =
  let h = head_time t in
  if h = max_int then None else Some h

let pending t = t.len + t.lane.size + t.fifo.size
let events_fired t = t.fired
