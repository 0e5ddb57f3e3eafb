type t = {
  names : string array;
  table_size : int;
  weights : float array; (* staged *)
  committed : float array; (* the weights of the last commit *)
  scratch : Table.scratch;
  mutable stale : bool; (* committed since [table] was built *)
  mutable table : int array;
  mutable spare : int array; (* ping-pong buffer for builds *)
  mutable rebuild_count : int;
  mutable disruption_sum : float;
}

let create ?(table_size = 4099) ~names () =
  if Array.length names = 0 then invalid_arg "Pool.create: no backends";
  if not (Hashing.is_prime table_size) then
    invalid_arg "Pool.create: table_size must be prime";
  let seen = Hashtbl.create 8 in
  Array.iter
    (fun name ->
      if Hashtbl.mem seen name then
        invalid_arg (Fmt.str "Pool.create: duplicate backend %S" name);
      Hashtbl.add seen name ())
    names;
  let n = Array.length names in
  let weights = Array.make n (1.0 /. float_of_int n) in
  let scratch = Table.scratch ~names ~size:table_size in
  let table = Array.make table_size (-1) in
  ignore (Table.fill scratch ~weights ~prev:table ~into:table);
  {
    names;
    table_size;
    weights;
    committed = Array.copy weights;
    scratch;
    stale = false;
    table;
    spare = Array.make table_size (-1);
    rebuild_count = 0;
    disruption_sum = 0.0;
  }

let size t = Array.length t.names
let table_size t = t.table_size
let name t i = t.names.(i)
let weight t i = t.weights.(i)
let weights t = Array.copy t.weights

let set_weight t i w =
  if Float.is_nan w || w < 0.0 then invalid_arg "Pool.set_weight: bad weight";
  t.weights.(i) <- w

let set_weights t ws =
  if Array.length ws <> Array.length t.weights then
    invalid_arg "Pool.set_weights: length mismatch";
  Array.iteri (fun i w -> set_weight t i w) ws

let commit t =
  (* [set_weight] admits no NaN, so this is the one error [Table.fill]
     could raise; raising it here keeps it off the datapath's reads. The
     loop, unlike [Array.exists], boxes no weight. *)
  let (ws : float array) = t.weights in
  let positive = ref false in
  for i = 0 to Array.length ws - 1 do
    if ws.(i) > 0.0 then positive := true
  done;
  if not !positive then invalid_arg "Table.populate: all weights <= 0";
  Array.blit ws 0 t.committed 0 (Array.length ws);
  t.stale <- true

let build t =
  (* The kernel writes the previous table's ping-pong partner and counts
     changed owners in the same pass, so a build allocates nothing but
     the boxed disruption sum. *)
  let changed =
    Table.fill t.scratch ~weights:t.committed ~prev:t.table ~into:t.spare
  in
  t.disruption_sum <-
    t.disruption_sum +. (float_of_int changed /. float_of_int t.table_size);
  let fresh = t.spare in
  t.spare <- t.table;
  t.table <- fresh;
  t.stale <- false;
  t.rebuild_count <- t.rebuild_count + 1

let rebuild t =
  commit t;
  build t

(* The table of the last commit, built at the first read after it. *)
let table t =
  if t.stale then build t;
  t.table

let lookup t flow_hash = (table t).(flow_hash mod t.table_size)
let slot_shares t = Table.slot_shares (table t) ~n:(size t)
let current_table t = Array.copy (table t)
let rebuilds t = t.rebuild_count
let total_disruption t = t.disruption_sum
