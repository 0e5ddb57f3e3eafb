type entry = { mutable flags : int; mutable value : string }

(* The generic table's key compare is [compare_val]; [String.equal]
   over the same hash keeps the same buckets without it. *)
module Tbl = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

type t = { table : entry Tbl.t; mutable bytes : int }

let create () = { table = Tbl.create 1024; bytes = 0 }

(* One probe: an existing entry is updated in place, and a new key is
   added where [replace] would have put it. *)
let set t ~key ~flags ~value =
  (match Tbl.find t.table key with
  | e ->
      t.bytes <- t.bytes - String.length e.value;
      e.flags <- flags;
      e.value <- value
  | exception Not_found -> Tbl.add t.table key { flags; value });
  t.bytes <- t.bytes + String.length value

let get t ~key =
  match Tbl.find t.table key with
  | { flags; value } -> Some (flags, value)
  | exception Not_found -> None

let size t = Tbl.length t.table
let bytes t = t.bytes

let preload t ~count ~key_of ~value_size =
  let value = String.make value_size 'v' in
  for i = 0 to count - 1 do
    set t ~key:(key_of i) ~flags:0 ~value
  done
