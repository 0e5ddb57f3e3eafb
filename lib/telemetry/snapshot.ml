type row = {
  at : Des.Time.t;
  metric : string;
  index : int option;
  value : float;
}

type t = {
  engine : Des.Engine.t;
  registry : Registry.t;
  timer : Des.Timer.t;
  mutable rows_rev : row list;
  mutable snaps : int;
}

let snap t =
  let at = Des.Engine.now t.engine in
  t.snaps <- t.snaps + 1;
  List.iter
    (fun { Registry.metric; index; value } ->
      t.rows_rev <- { at; metric; index; value } :: t.rows_rev)
    (Registry.read t.registry)

let start engine registry ~interval =
  if interval <= 0 then invalid_arg "Telemetry.Snapshot.start: interval";
  let rec t =
    lazy
      {
        engine;
        registry;
        timer =
          Des.Timer.every engine ~period:interval (fun () ->
              snap (Lazy.force t));
        rows_rev = [];
        snaps = 0;
      }
  in
  Lazy.force t

let stop t = Des.Timer.stop t.timer
let rows t = List.rev t.rows_rev

let retained_words t =
  (* Only the accumulated rows, not the registry or engine (those belong
     to the system under test). Lets a memory-flatness monitor subtract
     its own O(duration) footprint from what it judges. *)
  Obj.reachable_words (Obj.repr t.rows_rev)
let snap_count t = t.snaps
