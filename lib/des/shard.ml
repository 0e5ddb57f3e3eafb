(* Synchronized-window conservative parallel DES (see shard.mli and
   DESIGN.md §14–15).

   Synchronization protocol, per window:

     main (shard 0)                      worker k (shards 1..K-1)
     --------------                      ------------------------
     publish horizon, generation+1  ──►  wake on generation change
     run engine 0 to horizon             run engine k to horizon
     wait until arrived = K-1       ◄──  arrived++, signal
     drain inboxes into engines
     widen next horizon from the
       fleet's next-event minimum
     capture per-shard stats

   All shared mutable state (horizon, generation, arrived, inbox
   contents, engine state across the handoff) is published under one
   mutex, so every cross-domain read is properly synchronized: a worker
   reads the new horizon only after main's release of the mutex that
   wrote it, and main reads inboxes and engine counters only after the
   producing worker's release. During a window no domain touches
   another's engine or inboxes — shard callbacks run entirely
   shard-locally, the design invariant that makes windows race-free.

   Adaptive horizon (DESIGN.md §15): at the barrier every engine sits at
   the same time [w] with its inboxes drained, so the fleet-wide minimum
   next-event time [m] (each engine's exact next event) is a sound
   lower bound on when *anything* can happen anywhere. No event fires
   before [m], hence no cross-shard effect can land before [m + L], and
   the next window may run to [max (w + L) (m + L)] without any shard
   observing an arrival inside its window. Idle-heavy phases collapse to
   one window per actual event cluster instead of one per lookahead
   quantum; the determinism argument is unchanged because widening only
   moves the barrier times, never the (src, dst, append) drain order.

   Inboxes are flat single-producer lanes (time / tag / payload arrays)
   instead of per-entry records: [post_remote_tagged] is three array
   stores and a length bump — zero allocation once the lanes are warm —
   and the drain walks contiguous memory. The dominant cross-shard
   effect (deliver a packet to an ip on the destination fabric) is
   encoded as (tag = ip, payload = packet) and re-posted closure-free
   via [Engine.post_tagged] to the destination's sink. *)

type inbox = {
  (* Lanes; only the (src) shard's domain writes during a window, only
     the coordinating domain reads at the barrier. All three share
     [len]/capacity and grow together. *)
  mutable at : Time.t array;
  mutable tag : int array;
  mutable arg : Obj.t array;
  mutable len : int;
}

let null_arg = Obj.repr 0
let words_per_entry = 3

let inbox_create () = { at = [||]; tag = [||]; arg = [||]; len = 0 }
let inbox_capacity b = Array.length b.at

let inbox_realloc b n =
  let at = Array.make n 0
  and tag = Array.make n 0
  and arg = Array.make n null_arg in
  Array.blit b.at 0 at 0 b.len;
  Array.blit b.tag 0 tag 0 b.len;
  Array.blit b.arg 0 arg 0 b.len;
  b.at <- at;
  b.tag <- tag;
  b.arg <- arg

let inbox_grow b = inbox_realloc b (Stdlib.max 64 (2 * inbox_capacity b))

type t = {
  shards : int;
  lookahead : Time.t;
  adaptive : bool;
  engines : Engine.t array;
  inboxes : inbox array array; (* [src].(dst) *)
  (* Barrier state, all under [m]. *)
  m : Mutex.t;
  cv_start : Condition.t; (* workers wait for a new generation *)
  cv_done : Condition.t; (* main waits for all workers *)
  mutable generation : int;
  mutable horizon : Time.t;
  mutable arrived : int;
  mutable stopping : bool;
  mutable error : (int * exn) option; (* lowest shard index wins *)
  mutable team : unit Domain.t array; (* empty once joined *)
  (* Stats; mutated only by the coordinating domain at barriers, except
     stall_seconds.(k) which shard k's own domain accumulates while
     parked (published by the same barrier mutex). *)
  mutable windows : int;
  mutable skipped_windows : int;
  mutable remote_posts : int;
  mutable inbox_peak_bytes : int;
  s_events_fired : int array;
  stall_seconds : float array;
}

type stats = {
  shards : int;
  windows : int;
  skipped_windows : int;
  remote_posts : int;
  inbox_peak_bytes : int;
  events_fired : int array;
  stall_seconds : float array;
}

let shards (t : t) = t.shards
let engine (t : t) k = t.engines.(k)

let post_remote_tagged (t : t) ~src ~dst ~at ~tag arg =
  if tag < 0 then invalid_arg "Shard.post_remote_tagged: tag must be >= 0";
  let b = t.inboxes.(src).(dst) in
  if b.len >= inbox_capacity b then inbox_grow b;
  let i = b.len in
  b.at.(i) <- at;
  b.tag.(i) <- tag;
  b.arg.(i) <- arg;
  b.len <- i + 1

let set_sink (t : t) ~dst f = Engine.set_tagged_sink t.engines.(dst) f

(* Run one shard's engine over the current window, funnelling any
   callback exception into [t.error] instead of letting it tear down the
   domain (which would deadlock the barrier). *)
let run_window (t : t) k ~until =
  match Engine.run t.engines.(k) ~until with
  | () -> ()
  | exception e ->
      Mutex.lock t.m;
      (match t.error with
      | Some (k0, _) when k0 <= k -> ()
      | _ -> t.error <- Some (k, e));
      Mutex.unlock t.m

let worker (t : t) k =
  let generation = ref 0 in
  Mutex.lock t.m;
  let rec loop () =
    let wait_from = Unix.gettimeofday () in
    while t.generation = !generation && not t.stopping do
      Condition.wait t.cv_start t.m
    done;
    (* The initial park (before the first window) overlaps scenario
       construction, not barrier waiting; don't count it as stall. *)
    if !generation > 0 then
      t.stall_seconds.(k) <-
        t.stall_seconds.(k) +. Unix.gettimeofday () -. wait_from;
    if t.stopping then Mutex.unlock t.m
    else begin
      generation := t.generation;
      let until = t.horizon in
      Mutex.unlock t.m;
      run_window t k ~until;
      Mutex.lock t.m;
      t.arrived <- t.arrived + 1;
      if t.arrived = t.shards - 1 then Condition.signal t.cv_done;
      loop ()
    end
  in
  loop ()

let create ?(adaptive = true) ~shards ~lookahead () =
  if shards < 1 then invalid_arg "Shard.create: shards must be >= 1";
  if shards > 1 && lookahead <= 0 then
    invalid_arg "Shard.create: lookahead must be positive when shards > 1";
  let t =
    {
      shards;
      lookahead;
      adaptive;
      engines = Array.init shards (fun _ -> Engine.create ());
      inboxes =
        Array.init shards (fun _ ->
            Array.init shards (fun _ -> inbox_create ()));
      m = Mutex.create ();
      cv_start = Condition.create ();
      cv_done = Condition.create ();
      generation = 0;
      horizon = 0;
      arrived = 0;
      stopping = false;
      error = None;
      team = [||];
      windows = 0;
      skipped_windows = 0;
      remote_posts = 0;
      inbox_peak_bytes = 0;
      s_events_fired = Array.make shards 0;
      stall_seconds = Array.make shards 0.0;
    }
  in
  if shards > 1 then
    t.team <-
      Array.init (shards - 1) (fun i ->
          Domain.spawn (fun () -> worker t (i + 1)));
  t

(* Drain every inbox into its destination engine, in deterministic
   (src, dst, append) order. Runs on the coordinating domain while the
   team is parked; [floor] is the barrier time every engine sits at, so
   an entry with [at < floor] proves the lookahead bound was violated
   (an arrival at exactly [floor] is legal: it fires in the next window,
   sequenced after the window's own events — the barrier-boundary
   semantics the tests pin). A buffer whose occupancy fell far below a
   one-off burst's high-water mark is shrunk here so the burst does not
   pin its peak memory for the rest of the run; the high-water mark
   itself is kept in [inbox_peak_bytes]. *)
let drain (t : t) ~floor =
  let total_bytes = ref 0 in
  for src = 0 to t.shards - 1 do
    let row = t.inboxes.(src) in
    for dst = 0 to t.shards - 1 do
      let b = row.(dst) in
      if b.len > 0 then begin
        let e = t.engines.(dst) in
        for i = 0 to b.len - 1 do
          let at = b.at.(i) in
          if at < floor then
            failwith
              (Fmt.str
                 "Des.Shard: lookahead violation: shard %d -> %d entry at \
                  t=%d inside window ending at t=%d (lookahead %d)"
                 src dst at floor t.lookahead);
          Engine.post_tagged e ~at ~tag:b.tag.(i) b.arg.(i)
        done;
        t.remote_posts <- t.remote_posts + b.len
      end;
      let cap = inbox_capacity b in
      if cap > 0 then begin
        (* Release payload pointers; keep (or shrink) capacity. *)
        Array.fill b.arg 0 b.len null_arg;
        total_bytes := !total_bytes + (cap * words_per_entry * 8);
        if cap >= 128 && b.len * 8 < cap then begin
          b.len <- 0;
          inbox_realloc b (cap / 2)
        end
        else b.len <- 0
      end
    done
  done;
  if !total_bytes > t.inbox_peak_bytes then t.inbox_peak_bytes <- !total_bytes

let inboxes_empty (t : t) =
  let empty = ref true in
  for src = 0 to t.shards - 1 do
    for dst = 0 to t.shards - 1 do
      if t.inboxes.(src).(dst).len > 0 then empty := false
    done
  done;
  !empty

let capture (t : t) =
  for k = 0 to t.shards - 1 do
    t.s_events_fired.(k) <- Engine.events_fired t.engines.(k)
  done

let reraise (t : t) =
  match t.error with
  | Some (_, e) ->
      t.error <- None;
      raise e
  | None -> ()

(* Fleet-wide lower bound on the next event time; [max_int] when every
   engine is idle. Sound only when inboxes are empty (a pending remote
   entry is an event no engine knows about yet). *)
let next_event_floor (t : t) =
  let m = ref max_int in
  for k = 0 to t.shards - 1 do
    match Engine.next_event_time t.engines.(k) with
    | Some at -> if at < !m then m := at
    | None -> ()
  done;
  !m

let run (t : t) ~until =
  if t.shards = 1 then begin
    Engine.run t.engines.(0) ~until;
    t.windows <- t.windows + 1;
    capture t
  end
  else begin
    let now = ref (Engine.now t.engines.(0)) in
    while !now < until do
      (* Horizon choice. Entries can sit in inboxes at the top of a run
         phase (posted from outside any window); then fall back to the
         fixed-width window — after its drain the adaptive path takes
         over. With empty inboxes the fleet minimum [m] is sound:
         m = max_int means a fully idle fleet (cover the rest of the
         span in one window), otherwise nothing anywhere fires before
         [m], so no cross-shard arrival can land before [m + L]. *)
      let horizon =
        if not (inboxes_empty t) then Stdlib.min (!now + t.lookahead) until
        else begin
          let m = next_event_floor t in
          if m = max_int then until
          else if t.adaptive then
            Stdlib.min until (Stdlib.max (!now + t.lookahead) (m + t.lookahead))
          else Stdlib.min (!now + t.lookahead) until
        end
      in
      Mutex.lock t.m;
      t.horizon <- horizon;
      t.arrived <- 0;
      t.generation <- t.generation + 1;
      Condition.broadcast t.cv_start;
      Mutex.unlock t.m;
      run_window t 0 ~until:horizon;
      Mutex.lock t.m;
      let wait_from = Unix.gettimeofday () in
      while t.arrived < t.shards - 1 do
        Condition.wait t.cv_done t.m
      done;
      t.stall_seconds.(0) <-
        t.stall_seconds.(0) +. Unix.gettimeofday () -. wait_from;
      Mutex.unlock t.m;
      reraise t;
      drain t ~floor:horizon;
      t.windows <- t.windows + 1;
      (* Fixed-width windows this one subsumed (perf accounting only). *)
      let span = horizon - !now in
      if span > t.lookahead then
        t.skipped_windows <-
          t.skipped_windows + (((span + t.lookahead - 1) / t.lookahead) - 1);
      now := horizon
    done;
    capture t
  end

let stats (t : t) : stats =
  {
    shards = t.shards;
    windows = t.windows;
    skipped_windows = t.skipped_windows;
    remote_posts = t.remote_posts;
    inbox_peak_bytes = t.inbox_peak_bytes;
    events_fired = Array.copy t.s_events_fired;
    stall_seconds = Array.copy t.stall_seconds;
  }

let shutdown (t : t) =
  if Array.length t.team > 0 then begin
    Mutex.lock t.m;
    t.stopping <- true;
    Condition.broadcast t.cv_start;
    Mutex.unlock t.m;
    Array.iter Domain.join t.team;
    t.team <- [||]
  end
