type scratch = {
  size : int;
  offsets : int array;
  backs : int array; (* skip - size: a step is [slot + back], wrapped *)
  cursors : int array; (* each backend's next unprobed slot *)
  credit : float array;
  taken : Bytes.t; (* occupancy bitset: bit s is set once slot s is owned *)
}

let scratch ~names ~size =
  let perms = Array.map (fun name -> Permutation.create ~name ~size) names in
  let n = Array.length perms in
  {
    size;
    offsets = Array.map Permutation.offset perms;
    backs = Array.map (fun p -> Permutation.skip p - size) perms;
    cursors = Array.make n 0;
    credit = Array.make n 0.0;
    taken = Bytes.make ((size + 7) / 8) '\000';
  }

let[@inline] is_taken bits s =
  Char.code (Bytes.unsafe_get bits (s lsr 3)) land (1 lsl (s land 7)) <> 0

let[@inline] take bits s =
  let byte = Char.code (Bytes.unsafe_get bits (s lsr 3)) in
  Bytes.unsafe_set bits (s lsr 3)
    (Char.unsafe_chr (byte lor (1 lsl (s land 7))))

(* The slot after [slot] in a permutation with [back = skip - size]:
   [(slot + skip) mod size] for [0 <= slot < size], without a branch. A
   stride near [size / 2] wraps on every other step, which would make
   an [if] unpredictable. [p asr (int_size - 1)] is all ones when
   [p < 0] and zero otherwise. *)
let[@inline] step ~size ~back slot =
  let p = slot + back in
  p + ((p asr (Sys.int_size - 1)) land size)

let fill s ~weights ~prev ~into =
  let { size; offsets; backs; cursors; credit; taken } = s in
  let n = Array.length offsets in
  if
    Array.length weights <> n
    || Array.length prev <> size
    || Array.length into <> size
  then invalid_arg "Table.fill: length mismatch";
  (* Weight errors keep the messages [populate] has always raised, also
     when they surface through [Pool.rebuild]. *)
  let max_weight = ref 0.0 in
  for i = 0 to n - 1 do
    let w = weights.(i) in
    if Float.is_nan w then invalid_arg "Table.populate: NaN weight";
    if w > !max_weight then max_weight := w
  done;
  let max_weight = !max_weight in
  if max_weight <= 0.0 then invalid_arg "Table.populate: all weights <= 0";
  Bytes.fill taken 0 (Bytes.length taken) '\000';
  Array.blit offsets 0 cursors 0 n;
  Array.fill credit 0 n 0.0;
  let filled = ref 0 in
  let changed = ref 0 in
  while !filled < size do
    for i = 0 to n - 1 do
      let w = Array.unsafe_get weights i in
      if w > 0.0 then begin
        let back = Array.unsafe_get backs i in
        let c = ref (Array.unsafe_get credit i +. (w /. max_weight)) in
        let cursor = ref (Array.unsafe_get cursors i) in
        while !c >= 1.0 && !filled < size do
          c := !c -. 1.0;
          (* Claim backend [i]'s next preferred slot that is still free.
             One remains while [filled < size], and the walk visits every
             slot before repeating, so the probe loop ends. *)
          let slot = ref !cursor in
          while is_taken taken !slot do
            slot := step ~size ~back !slot
          done;
          let slot = !slot in
          take taken slot;
          Array.unsafe_set into slot i;
          if Array.unsafe_get prev slot <> i then incr changed;
          incr filled;
          cursor := step ~size ~back slot
        done;
        Array.unsafe_set credit i !c;
        Array.unsafe_set cursors i !cursor
      end
    done
  done;
  !changed

let populate ~size ~backends () =
  if Array.length backends = 0 then invalid_arg "Table.populate: no backends";
  if not (Hashing.is_prime size) then
    invalid_arg "Table.populate: size must be prime";
  let s = scratch ~names:(Array.map fst backends) ~size in
  let table = Array.make size (-1) in
  (* Passing the table as its own [prev] is safe: the kernel reads each
     slot's previous owner just before its only write to that slot. *)
  ignore (fill s ~weights:(Array.map snd backends) ~prev:table ~into:table);
  table

let slot_shares table ~n =
  let counts = Array.make n 0 in
  Array.iter (fun owner -> counts.(owner) <- counts.(owner) + 1) table;
  let total = float_of_int (Array.length table) in
  Array.map (fun c -> float_of_int c /. total) counts

let disruption (a : int array) (b : int array) =
  if Array.length a <> Array.length b then
    invalid_arg "Table.disruption: length mismatch";
  let changed = ref 0 in
  Array.iteri (fun i owner -> if owner <> b.(i) then incr changed) a;
  float_of_int !changed /. float_of_int (Array.length a)
