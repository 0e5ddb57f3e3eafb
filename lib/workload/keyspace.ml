type dist = Uniform | Zipf of float

type t = {
  prefix : string;
  count : int;
  rng : Des.Rng.t;
  (* Cumulative probability table for Zipf; empty for Uniform. *)
  cdf : float array;
  (* Key names are drawn once per request; memoise them so each is
     formatted once for the run instead of once per sample. Filled
     lazily ("" = not yet built; real keys are never empty). *)
  names : string array;
}

let create ?(prefix = "memtier-") ~count ~dist ~rng () =
  if count <= 0 then invalid_arg "Keyspace.create: count";
  let cdf =
    match dist with
    | Uniform -> [||]
    | Zipf s ->
        let weights =
          Array.init count (fun i -> 1.0 /. (float_of_int (i + 1) ** s))
        in
        let total = Array.fold_left ( +. ) 0.0 weights in
        let acc = ref 0.0 in
        Array.map
          (fun w ->
            acc := !acc +. (w /. total);
            !acc)
          weights
  in
  { prefix; count; rng; cdf; names = Array.make count "" }

let count t = t.count

(* [Fmt.str "%s%08d" prefix i] for [i >= 0], written by hand: the
   format interpreter and C [snprintf] cost as much as the rest of a
   scenario build, which names every preloaded key. *)
let name ~prefix i =
  let rec width n k = if n < 10 then k else width (n / 10) (k + 1) in
  let p = String.length prefix in
  let len = p + Int.max 8 (width i 1) in
  let b = Bytes.make len '0' in
  Bytes.blit_string prefix 0 b 0 p;
  let n = ref i and pos = ref (len - 1) in
  while !n > 0 do
    Bytes.unsafe_set b !pos (Char.unsafe_chr (48 + (!n mod 10)));
    n := !n / 10;
    decr pos
  done;
  Bytes.unsafe_to_string b

let key_of t i =
  let cached = t.names.(i) in
  (* A length test, not [<> ""], which is a [caml_string_notequal] call. *)
  if String.length cached > 0 then cached
  else begin
    let name = name ~prefix:t.prefix i in
    t.names.(i) <- name;
    name
  end

let sample_index t =
  if Array.length t.cdf = 0 then Des.Rng.int t.rng t.count
  else begin
    let u = Des.Rng.float t.rng 1.0 in
    (* First index whose cumulative probability reaches u. *)
    let lo = ref 0 and hi = ref (t.count - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo
  end

let sample t = key_of t (sample_index t)
