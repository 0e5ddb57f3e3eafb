(* The event record [Engine] schedules and fires and [Wheel] parks.
   One concrete type, so the wheel reaches its intrusive links by direct
   field access: through a vtable of closures, each link store was an
   indirect two-argument call. ['o] is the owning engine. *)
type 'o t = {
  (* [time] and [seq] are what the wheel parks and a flush pushes; the
     heap keeps its own copy, so pooled records never set them. *)
  mutable time : int;
  mutable seq : int;
  mutable cancelled : bool;
  pooled : bool;
  (* Firing applies [fn a b]. A call ([post_call f x]; [post] and
     [schedule] are calls of a thunk on [()]) stores [apply], [f] and
     [x]; a tagged event stores the engine's sink, the tag and the
     payload. Either way no closure is built per event. *)
  mutable fn : Obj.t -> Obj.t -> unit;
  mutable a : Obj.t;
  mutable b : Obj.t;
  owner : 'o; (* for exact tombstone accounting in [cancel] *)
  (* Intrusive wheel links; [wslot] >= 0 iff currently parked. The
     engine also marks a record that holds a heap slot ([-2]). *)
  mutable wnext : 'o t;
  mutable wprev : 'o t;
  mutable wslot : int;
}
