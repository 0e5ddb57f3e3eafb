module Seq_map = Map.Make (Int)

type t = {
  mutable rcv_nxt : int;
  mutable ooo : string Seq_map.t;
  mutable ooo_bytes : int; (* total payload buffered out of order *)
  cap : int; (* max ooo_bytes; newest segments past it are dropped *)
  mutable drops : int;
}

let create ?(cap = max_int) ~rcv_nxt () =
  if cap <= 0 then invalid_arg "Reassembly.create: cap must be positive";
  { rcv_nxt; ooo = Seq_map.empty; ooo_bytes = 0; cap; drops = 0 }

let rcv_nxt t = t.rcv_nxt
let pending t = t.ooo_bytes
let cap t = t.cap
let drops t = t.drops

(* Trim the part of [data] already below rcv_nxt. *)
let trim t seq data =
  if seq >= t.rcv_nxt then (seq, data)
  else begin
    let skip = t.rcv_nxt - seq in
    if skip >= String.length data then (t.rcv_nxt, "")
    else (t.rcv_nxt, String.sub data skip (String.length data - skip))
  end

let rec drain t buf =
  match Seq_map.min_binding_opt t.ooo with
  | Some (seq, data) when seq <= t.rcv_nxt ->
      t.ooo <- Seq_map.remove seq t.ooo;
      t.ooo_bytes <- t.ooo_bytes - String.length data;
      let seq, data = trim t seq data in
      assert (seq = t.rcv_nxt);
      Buffer.add_string buf data;
      t.rcv_nxt <- t.rcv_nxt + String.length data;
      drain t buf
  | Some _ | None -> ()

let insert_slow t seq data =
  let seq, data = trim t seq data in
  if String.length data = 0 then ""
  else if seq = t.rcv_nxt then begin
    let buf = Buffer.create (String.length data) in
    Buffer.add_string buf data;
    t.rcv_nxt <- t.rcv_nxt + String.length data;
    drain t buf;
    Buffer.contents buf
  end
  else begin
    (* Out of order. Keep the longer of any duplicate at the same
       offset, but never let the buffer exceed [cap]: a segment that
       would push it past the cap is dropped (newest-dropped), counted,
       and left for the peer's retransmission to deliver once the gap
       below it has filled. A gap-flood sender therefore costs at most
       [cap] bytes, not unbounded memory. *)
    (match Seq_map.find_opt seq t.ooo with
    | Some existing when String.length existing >= String.length data -> ()
    | (Some _ | None) as existing ->
        let delta =
          String.length data
          - (match existing with Some e -> String.length e | None -> 0)
        in
        if t.ooo_bytes + delta > t.cap then t.drops <- t.drops + 1
        else begin
          t.ooo <- Seq_map.add seq data t.ooo;
          t.ooo_bytes <- t.ooo_bytes + delta
        end);
    ""
  end

let insert t ~seq data =
  if seq = t.rcv_nxt && Seq_map.is_empty t.ooo then begin
    (* In-order segment with nothing buffered — the common case — is
       delivered as-is: no trim (it would return the segment unchanged,
       in a tuple) and no intermediate copy. *)
    t.rcv_nxt <- t.rcv_nxt + String.length data;
    data
  end
  else insert_slow t seq data
