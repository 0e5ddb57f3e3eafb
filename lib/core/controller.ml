type action = {
  at : Des.Time.t;
  victim : int;
  shifted : float;
  weights_after : float array;
}

type t = {
  config : Config.t;
  pool : Maglev.Pool.t;
  law : Control_law.t; (* the pluggable decision rule (control-law zoo) *)
  stats : Server_stats.t;
  mutable last_update : Des.Time.t; (* last commit (shift or recovery) *)
  mutable updated_once : bool;
  mutable actions_rev : action list;
  mutable actions_len : int;
  (* Registered instants no action has reached yet, ascending, and
     each reached one with the first action at or after it. *)
  mutable waiting : Des.Time.t list;
  mutable reactions : (Des.Time.t * Des.Time.t) list;
  drained : bool array; (* administratively pinned at the weight floor *)
  m_actions : Telemetry.Registry.counter;
  (* Coordination hooks (lib/cluster/coordination). All default to the
     paper's fully-autonomous behaviour. *)
  mutable est_override : (int -> float option) option;
  mutable shift_gate : (now:Des.Time.t -> victim:int -> bool) option;
  mutable autonomous : bool;
  mutable imposed_count : int;
  (* Remap hook (lib/core/balancer): invoked after every commit, with
     the server the commit shifted traffic away from when it had one.
     Absent (the default, and always under [Remap.Preserve]) the commit
     path is byte-identical to the pre-hook code. *)
  mutable on_rebuild : (now:Des.Time.t -> victim:int option -> unit) option;
}

let max_action_history = 4096

let rec take n l =
  if n = 0 then []
  else match l with [] -> [] | x :: tl -> x :: take (n - 1) tl

let create ~config ~pool ?telemetry () =
  (match Config.validate config with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Controller.create: " ^ msg));
  let n = Maglev.Pool.size pool in
  if n < 2 then invalid_arg "Controller.create: need at least 2 backends";
  let uniform = Array.make n (1.0 /. float_of_int n) in
  Maglev.Pool.set_weights pool uniform;
  Maglev.Pool.rebuild pool;
  let registry =
    match telemetry with
    | Some r -> r
    | None -> Telemetry.Registry.create ()
  in
  let t =
    {
      config;
      pool;
      law = Control_law.create config.Config.law ~n;
      stats =
        Server_stats.create ~n ~ewma_alpha:config.Config.ewma_alpha
          ~window:config.Config.estimate_window ();
      last_update = 0;
      updated_once = false;
      actions_rev = [];
      actions_len = 0;
      waiting = [];
      reactions = [];
      drained = Array.make n false;
      m_actions = Telemetry.Registry.counter registry "ctl.actions";
      est_override = None;
      shift_gate = None;
      autonomous = true;
      imposed_count = 0;
      on_rebuild = None;
    }
  in
  for i = 0 to n - 1 do
    Telemetry.Registry.gauge_fn registry ~index:i "ctl.weight" (fun () ->
        (Maglev.Pool.weights t.pool).(i))
  done;
  Telemetry.Registry.gauge_fn registry "ctl.drained" (fun () ->
      float_of_int
        (Array.fold_left (fun acc d -> if d then acc + 1 else acc) 0 t.drained));
  t

let stats t = t.stats
let actions t = List.rev t.actions_rev
let action_count t = Telemetry.Registry.Counter.value t.m_actions
let imposed_count t = t.imposed_count
let weights t = Maglev.Pool.weights t.pool

let last_action_at t =
  match t.actions_rev with [] -> None | a :: _ -> Some a.at

let set_estimate_override t f = t.est_override <- f
let set_shift_gate t g = t.shift_gate <- g
let set_on_rebuild t f = t.on_rebuild <- f
let set_autonomous t b = t.autonomous <- b
let is_autonomous t = t.autonomous

(* An action at [now] is the first at or after every waiting instant
   it has reached. *)
let rec answer_waiting t ~now =
  match t.waiting with
  | at :: rest when at <= now ->
      t.waiting <- rest;
      t.reactions <- (at, now) :: t.reactions;
      answer_waiting t ~now
  | _ -> ()

(* The estimate the decision loop sees for one server: the coordination
   override (merged fleet view) when installed, the local smoothed
   estimate otherwise. *)
let estimate t i =
  match t.est_override with
  | Some f -> f i
  | None -> Server_stats.estimate t.stats i

(* The decision loop acts only when at least two servers have an
   estimate, mirroring the historical [servers_with_samples >= 2] gate
   under local estimation (laws re-check as needed, but the gate lives
   here so it is uniform across laws). *)
let known_estimates t =
  let n = Array.length t.drained in
  let known = ref 0 in
  for i = 0 to n - 1 do
    match estimate t i with None -> () | Some _ -> incr known
  done;
  !known

let normalize w =
  let total = Array.fold_left ( +. ) 0.0 w in
  if total > 0.0 then Array.iteri (fun i v -> w.(i) <- v /. total) w

(* Pull weights towards uniform at [recovery_rate] per second of elapsed
   time — the optional §5(4) extension that keeps a starved backend
   probed. Drained backends stay pinned at the floor and are skipped.
   Returns true if the weights moved materially. *)
let apply_recovery t ~now w =
  let rate = t.config.Config.recovery_rate in
  if rate <= 0.0 || not t.updated_once then false
  else begin
    let dt = Float.min 1.0 (Des.Time.to_float_s (now - t.last_update)) in
    let pull = Float.min 1.0 (rate *. dt) in
    if pull <= 0.0 then false
    else begin
      let uniform = 1.0 /. float_of_int (Array.length w) in
      let moved = ref false in
      Array.iteri
        (fun i v ->
          if not t.drained.(i) then begin
            let v' = v +. (pull *. (uniform -. v)) in
            if Float.abs (v' -. v) > 1e-4 then moved := true;
            w.(i) <- v'
          end)
        w;
      !moved
    end
  end

let commit ?victim t ~now w =
  (* Drains hold across every commit, whatever recovery or shifting
     computed above; normalization then keeps the simplex. *)
  Array.iteri
    (fun i d -> if d then w.(i) <- t.config.Config.min_weight)
    t.drained;
  normalize w;
  Maglev.Pool.set_weights t.pool w;
  Maglev.Pool.commit t.pool;
  t.last_update <- now;
  t.updated_once <- true;
  match t.on_rebuild with
  | Some f -> f ~now ~victim
  | None -> ()

(* Administrative drain: pin the backend at the weight floor until
   {!restore}, which hands it back its uniform share and lets the
   feedback loop take over again. Both commit immediately. *)
let drain t ~now ~server =
  if server < 0 || server >= Array.length t.drained then
    invalid_arg "Controller.drain: server out of range";
  if not t.drained.(server) then begin
    t.drained.(server) <- true;
    commit ~victim:server t ~now (Maglev.Pool.weights t.pool)
  end

let restore t ~now ~server =
  if server < 0 || server >= Array.length t.drained then
    invalid_arg "Controller.restore: server out of range";
  if t.drained.(server) then begin
    t.drained.(server) <- false;
    let w = Maglev.Pool.weights t.pool in
    w.(server) <- 1.0 /. float_of_int (Array.length w);
    commit t ~now w
  end

let is_drained t server = t.drained.(server)

let on_sample t ~now ~server sample =
  Server_stats.record t.stats ~server ~sample ~at:now;
  let spaced =
    (not t.updated_once)
    || now - t.last_update >= t.config.Config.control_interval
  in
  if (not spaced) || not t.autonomous || known_estimates t < 2 then None
  else begin
    let w = Maglev.Pool.weights t.pool in
    let recovered = apply_recovery t ~now w in
    let view =
      {
        Control_law.now;
        estimate = (fun i -> estimate t i);
        weights = w;
        drained = (fun i -> t.drained.(i));
        alpha = t.config.Config.alpha;
        min_weight = t.config.Config.min_weight;
        relative_threshold = t.config.Config.relative_threshold;
      }
    in
    (* The law proposes before any table moves, so a coordination gate
       can veto the shift (e.g. another LB already acted this fleet
       epoch) without side effects. An empty proposal (shifted ~ 0) is
       still shown to the gate — fleet-hysteresis accounting must not
       depend on the law — but commits nothing beyond recovery. *)
    match Control_law.propose t.law view with
    | None ->
        if recovered then commit t ~now w;
        None
    | Some { Control_law.victim; shifted; weights } ->
        let vetoed =
          match t.shift_gate with
          | Some gate -> not (gate ~now ~victim)
          | None -> false
        in
        if vetoed || shifted <= 1e-9 then begin
          if recovered then commit t ~now w;
          None
        end
        else begin
          commit ~victim t ~now weights;
          let action =
            {
              at = now;
              victim;
              shifted;
              weights_after = Maglev.Pool.weights t.pool;
            }
          in
          t.actions_rev <- action :: t.actions_rev;
          t.actions_len <- t.actions_len + 1;
          if t.waiting <> [] then answer_waiting t ~now;
          (* The history exists for post-run analysis of bounded
             experiments; a soak shifting every few control intervals
             for hours would grow it without limit. Keep the most
             recent [max_action_history], trimming at 2x so the rebuild
             is amortized O(1) per action ([ctl.actions] still counts
             every action ever taken). *)
          if t.actions_len > 2 * max_action_history then begin
            t.actions_rev <- take max_action_history t.actions_rev;
            t.actions_len <- max_action_history
          end;
          Telemetry.Registry.Counter.incr t.m_actions;
          Some action
        end
  end

(* Externally-computed weights (leader/follower coordination). Drained
   backends stay pinned — [commit] re-applies the floor — and the
   imposed vector is normalized, so drain/restore keep working while a
   leader drives the weights. Counted in [ctl.actions]: an imposed
   commit is control-plane churn just like a local shift. *)
let impose_weights t ~now w =
  if Array.length w <> Array.length t.drained then
    invalid_arg "Controller.impose_weights: length mismatch";
  if Array.exists (fun v -> Float.is_nan v || v < 0.0) w then
    invalid_arg "Controller.impose_weights: bad weight";
  commit t ~now (Array.copy w);
  t.imposed_count <- t.imposed_count + 1;
  Telemetry.Registry.Counter.incr t.m_actions

let registered t at = List.mem at t.waiting || List.mem_assoc at t.reactions

let register_instant t at =
  if not (registered t at) then begin
    (match last_action_at t with
    | Some last when last >= at ->
        invalid_arg
          "Controller.register_instant: an action at or after it was taken"
    | Some _ | None -> ());
    t.waiting <- List.merge Des.Time.compare [ at ] t.waiting
  end

let first_action_after t at =
  match List.assoc_opt at t.reactions with
  | Some _ as first -> first
  | None ->
      if List.mem at t.waiting then None
      else
        invalid_arg "Controller.first_action_after: instant not registered"
