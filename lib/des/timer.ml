(* The timer owns one event record and re-arms it in place
   ([Engine.rearm]); the record changes only when the heap still holds
   it. [f] is the scheduled callback itself: a fired record reads as
   not scheduled, so no wrapper has to clear any state. *)
type t = { f : unit -> unit; mutable handle : Engine.handle }

let create engine ~f = { f; handle = Engine.unscheduled engine }
let stop t = Engine.cancel t.handle

let arm t ~delay =
  let h = Engine.rearm t.handle ~delay t.f in
  if h != t.handle then t.handle <- h

let is_armed t = Engine.scheduled t.handle

let every engine ~period ?start f =
  if period <= 0 then invalid_arg "Timer.every: period must be positive";
  let rec timer =
    lazy
      (create engine ~f:(fun () ->
           f ();
           arm (Lazy.force timer) ~delay:period))
  in
  let t = Lazy.force timer in
  let first = match start with None -> period | Some s -> s in
  arm t ~delay:first;
  t
