(* The timer owns one event record for life and re-arms it in place
   ([Engine.rearm]). [f] is the scheduled callback itself: a fired
   record reads as not scheduled, so no wrapper has to clear any
   state. *)
type t = { f : unit -> unit; handle : Engine.handle }

let create engine ~f = { f; handle = Engine.unscheduled engine }
let stop t = Engine.cancel t.handle
let arm t ~delay = Engine.rearm t.handle ~delay t.f
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
