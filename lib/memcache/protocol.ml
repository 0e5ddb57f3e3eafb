type request =
  | Get of { key : string }
  | Set of { key : string; flags : int; exptime : int; value : string }

type response =
  | Value of { key : string; flags : int; value : string }
  | Miss
  | Stored
  | Error of string

(* Encoders run once per simulated request/response. Each sizes the
   wire string exactly and writes its parts into one [Bytes]; decimals
   are written by hand, since [string_of_int] goes through C
   [snprintf]. *)

(* Characters in [n]'s decimal form, sign included. Digits are counted
   on the non-positive side, where [min_int] has a negation. *)
let rec digits_neg n k = if n > -10 then k else digits_neg (n / 10) (k + 1)
let dec_len n = if n < 0 then digits_neg n 2 else digits_neg (-n) 1

(* Write [m <= 0]'s digits, negated, right to left ending before [i]. *)
let rec put_digits b i m =
  Bytes.unsafe_set b (i - 1) (Char.unsafe_chr (48 - (m mod 10)));
  if m <= -10 then put_digits b (i - 1) (m / 10)

(* [put_* b pos x] writes [x] at [pos] and returns the position after. *)
let put_string b pos s =
  Bytes.unsafe_blit_string s 0 b pos (String.length s);
  pos + String.length s

(* A space, then [n] in decimal. *)
let put_field b pos n =
  Bytes.unsafe_set b pos ' ';
  let len = dec_len n in
  if n < 0 then begin
    Bytes.unsafe_set b (pos + 1) '-';
    put_digits b (pos + 1 + len) n
  end
  else put_digits b (pos + 1 + len) (-n);
  pos + 1 + len

(* [a ^ b ^ c] in one allocation. *)
let concat3 a b c =
  let r = Bytes.create (String.length a + String.length b + String.length c) in
  ignore (put_string r (put_string r (put_string r 0 a) b) c);
  Bytes.unsafe_to_string r

let encode_request = function
  | Get { key } -> concat3 "get " key "\r\n"
  | Set { key; flags; exptime; value } ->
      let v = String.length value in
      let b =
        Bytes.create
          (String.length key + dec_len flags + dec_len exptime + dec_len v + v
         + 11)
      in
      let pos = put_string b (put_string b 0 "set ") key in
      let pos = put_field b (put_field b (put_field b pos flags) exptime) v in
      let pos = put_string b (put_string b pos "\r\n") value in
      ignore (put_string b pos "\r\n");
      Bytes.unsafe_to_string b

let encode_response = function
  | Value { key; flags; value } ->
      let v = String.length value in
      let b =
        Bytes.create (String.length key + dec_len flags + dec_len v + v + 17)
      in
      let pos = put_string b (put_string b 0 "VALUE ") key in
      let pos = put_field b (put_field b pos flags) v in
      let pos = put_string b (put_string b pos "\r\n") value in
      ignore (put_string b pos "\r\nEND\r\n");
      Bytes.unsafe_to_string b
  | Miss -> "END\r\n"
  | Stored -> "STORED\r\n"
  | Error msg -> concat3 "ERROR " msg "\r\n"

let request_key = function Get { key } -> key | Set { key; _ } -> key

let pp_request ppf = function
  | Get { key } -> Fmt.pf ppf "get(%s)" key
  | Set { key; value; _ } -> Fmt.pf ppf "set(%s,%dB)" key (String.length value)

let pp_response ppf = function
  | Value { key; value; _ } -> Fmt.pf ppf "value(%s,%dB)" key (String.length value)
  | Miss -> Fmt.pf ppf "miss"
  | Stored -> Fmt.pf ppf "stored"
  | Error m -> Fmt.pf ppf "error(%s)" m

module Reader = struct
  (* The reader accumulates raw bytes in a window and repeatedly cuts
     one complete message off its front. In [in_line] mode it looks for
     CRLF; in the data modes it waits for a known byte count (a value
     block plus its CRLF, and for responses the final END line).

     The wire format our own encoders emit (single spaces, plain
     decimal fields) is parsed in place in the window, so a message
     allocates only its key and value. Anything the fast scan declines
     is cut out as a line string and parsed by [words], which gives the
     original error handling byte for byte. *)

  let in_line = 0

  (* A set's value block, after a header parsed in place into [key],
     [flags] and [exptime]. *)
  let in_set = 1

  (* A VALUE's block and END line, header parsed in place. *)
  let in_value = 2

  (* A value block whose header came through [words], kept in
     [header]. *)
  let in_words = 3

  (* The byte store is a plain growable [Bytes.t] window rather than a
     [Buffer.t], so the scans run over [Bytes.unsafe_get] instead of
     one bounds-checked [Buffer.nth] call per character. *)
  type 'a t = {
    mutable data : Bytes.t;
    mutable len : int; (* filled prefix of [data] *)
    mutable off : int; (* consumed prefix; [off, len) is unread *)
    mutable mode : int;
    (* The pending value block: [need] bytes (value and CRLF), and the
       header it belongs to. *)
    mutable need : int;
    mutable key : string;
    mutable flags : int;
    mutable exptime : int;
    mutable header : string list;
    mutable failure : string option; (* set by a step that failed *)
    (* A step returns a message, or [none]: it needs more bytes,
       consumed a header, or failed. [none] is a block no step ever
       returns, compared physically. *)
    none : 'a;
    step : 'a t -> 'a;
  }

  let compact t =
    (* Drop the consumed prefix when it dominates the buffer. *)
    if t.off > 4096 && t.off * 2 > t.len then begin
      Bytes.blit t.data t.off t.data 0 (t.len - t.off);
      t.len <- t.len - t.off;
      t.off <- 0
    end

  let available t = t.len - t.off

  let fail t msg =
    t.failure <- Some msg;
    t.none

  (* The first CRLF at or after [i] before [len], or -1. *)
  let rec find_crlf data len i =
    if i + 1 >= len then -1
    else if
      Bytes.unsafe_get data i = '\r' && Bytes.unsafe_get data (i + 1) = '\n'
    then i
    else find_crlf data len (i + 1)

  (* The first space in [i, j), or -1. *)
  let rec space_in data i j =
    if i >= j then -1
    else if Bytes.unsafe_get data i = ' ' then i
    else space_in data (i + 1) j

  (* A plain decimal of 1 to 18 digits in [i, j), or -1. *)
  let rec digits data i j v =
    if i >= j then v
    else
      let d = Char.code (Bytes.unsafe_get data i) - 48 in
      if d < 0 || d > 9 then -1 else digits data (i + 1) j ((v * 10) + d)

  let parse_uint data i j =
    if i >= j || j - i > 18 then -1 else digits data i j 0

  (* [data] holds [lit] at [i]; the caller checks the bounds. *)
  let rec has data i lit k =
    k >= String.length lit
    || Bytes.unsafe_get data (i + k) = String.unsafe_get lit k
       && has data i lit (k + 1)

  let words s = String.split_on_char ' ' s |> List.filter (fun w -> w <> "")

  let parse_int w =
    match int_of_string_opt w with
    | Some n when n >= 0 -> Ok n
    | Some _ | None -> Stdlib.Error (Fmt.str "bad integer %S" w)

  (* The longest value a header may declare: its block, CRLF and END
     line must fit in one string. A longer length is a bad integer, so
     no offset computed from a declared length can overflow. *)
  let max_value = Sys.max_string_length - 7

  let parse_len w =
    match parse_int w with
    | Ok n when n > max_value -> Stdlib.Error (Fmt.str "bad integer %S" w)
    | r -> r

  let expect_words t header need =
    t.mode <- in_words;
    t.header <- header;
    t.need <- need;
    t.none

  (* --- requests --- *)

  let request_line_slow t line =
    match words line with
    | [ "get"; key ] -> Get { key }
    | [ "set"; _; _; _; bytes ] as header -> begin
        match parse_len bytes with
        | Ok n -> expect_words t header (n + 2)
        | Stdlib.Error e -> fail t e
      end
    | _ -> fail t (Fmt.str "bad request line %S" line)

  (* The line [o, e) has been consumed. *)
  let request_line t o e =
    let data = t.data and n = e - o in
    if n > 4 && has data o "get " 0 && space_in data (o + 4) e < 0 then
      Get { key = Bytes.sub_string data (o + 4) (n - 4) }
    else begin
      let s1 =
        if n > 4 && has data o "set " 0 then space_in data (o + 4) e else -1
      in
      let s2 = if s1 < 0 then -1 else space_in data (s1 + 1) e in
      let s3 = if s2 < 0 then -1 else space_in data (s2 + 1) e in
      let flags = if s3 < 0 then -1 else parse_uint data (s1 + 1) s2 in
      let exptime = if s3 < 0 then -1 else parse_uint data (s2 + 1) s3 in
      let bytes = if s3 < 0 then -1 else parse_uint data (s3 + 1) e in
      if
        s1 <= o + 4 || flags < 0 || exptime < 0 || bytes < 0
        || bytes > max_value
      then
        request_line_slow t (Bytes.sub_string data o n)
      else begin
        t.mode <- in_set;
        t.key <- Bytes.sub_string data (o + 4) (s1 - o - 4);
        t.flags <- flags;
        t.exptime <- exptime;
        t.need <- bytes + 2;
        t.none
      end
    end

  (* A set value whose header came through [words]. *)
  let set_words t value =
    match t.header with
    | [ "set"; key; flags; exptime; _ ] -> begin
        match (parse_int flags, parse_int exptime) with
        | Ok flags, Ok exptime -> Set { key; flags; exptime; value }
        | Stdlib.Error e, _ | _, Stdlib.Error e -> fail t e
      end
    | _ -> fail t "internal: bad set header"

  let step_request t =
    if t.mode = in_line then begin
      let o = t.off in
      let e = find_crlf t.data t.len o in
      if e < 0 then t.none
      else begin
        t.off <- e + 2;
        request_line t o e
      end
    end
    else if available t < t.need then t.none
    else begin
      let o = t.off and need = t.need and slow = t.mode = in_words in
      t.off <- o + need;
      t.mode <- in_line;
      if
        Bytes.unsafe_get t.data (o + need - 2) <> '\r'
        || Bytes.unsafe_get t.data (o + need - 1) <> '\n'
      then fail t "value block not CRLF-terminated"
      else begin
        let value = Bytes.sub_string t.data o (need - 2) in
        if slow then set_words t value
        else Set { key = t.key; flags = t.flags; exptime = t.exptime; value }
      end
    end

  (* --- responses --- *)

  let response_line_slow t line =
    match words line with
    | [ "END" ] -> Miss
    | [ "STORED" ] -> Stored
    | "ERROR" :: rest -> Error (String.concat " " rest)
    | [ "VALUE"; _; _; bytes ] -> begin
        match parse_len bytes with
        | Ok n -> expect_words t (words line) (n + 2)
        | Stdlib.Error e -> fail t e
      end
    | _ -> fail t (Fmt.str "bad response line %S" line)

  (* The line [o, e) has been consumed. *)
  let response_line t o e =
    let data = t.data and n = e - o in
    if n = 3 && has data o "END" 0 then Miss
    else if n = 6 && has data o "STORED" 0 then Stored
    else begin
      let s1 =
        if n > 6 && has data o "VALUE " 0 then space_in data (o + 6) e else -1
      in
      let s2 = if s1 < 0 then -1 else space_in data (s1 + 1) e in
      let flags = if s2 < 0 then -1 else parse_uint data (s1 + 1) s2 in
      let bytes = if s2 < 0 then -1 else parse_uint data (s2 + 1) e in
      if s1 <= o + 6 || flags < 0 || bytes < 0 || bytes > max_value then
        response_line_slow t (Bytes.sub_string data o n)
      else begin
        t.mode <- in_value;
        t.key <- Bytes.sub_string data (o + 6) (s1 - o - 6);
        t.flags <- flags;
        t.need <- bytes + 2;
        t.none
      end
    end

  (* The line after a value block is not END: fail, leaving the block
     and that line consumed and the mode unchanged. *)
  let bad_end t =
    let e = find_crlf t.data t.len t.off in
    if e < 0 then fail t "internal: END line missing"
    else begin
      let line = Bytes.sub_string t.data t.off (e - t.off) in
      t.off <- e + 2;
      fail t (Fmt.str "expected END, got %S" line)
    end

  (* A VALUE whose header came through [words]. *)
  let value_words t value =
    match t.header with
    | [ "VALUE"; key; flags; _ ] -> begin
        match parse_int flags with
        | Ok flags -> Value { key; flags; value }
        | Stdlib.Error e -> fail t e
      end
    | _ -> fail t "internal: bad VALUE header"

  (* A VALUE waits for its block and the END line (5 bytes) behind it.
     The block's own CRLF is not checked. *)
  let step_response t =
    if t.mode = in_line then begin
      let o = t.off in
      let e = find_crlf t.data t.len o in
      if e < 0 then t.none
      else begin
        t.off <- e + 2;
        response_line t o e
      end
    end
    else if available t < t.need + 5 then t.none
    else begin
      let o = t.off and need = t.need in
      if not (has t.data (o + need) "END\r\n" 0) then begin
        t.off <- o + need;
        bad_end t
      end
      else begin
        let slow = t.mode = in_words in
        t.off <- o + need + 5;
        t.mode <- in_line;
        let value = Bytes.sub_string t.data o (need - 2) in
        if slow then value_words t value
        else Value { key = t.key; flags = t.flags; value }
      end
    end

  let make none step =
    {
      data = Bytes.create 256;
      len = 0;
      off = 0;
      mode = in_line;
      need = 0;
      key = "";
      flags = 0;
      exptime = 0;
      header = [];
      failure = None;
      none;
      step;
    }

  let requests () = make (Get { key = "" }) step_request
  let responses () = make (Error "") step_response

  let add_chunk t chunk =
    let n = String.length chunk in
    let cap = Bytes.length t.data in
    if t.len + n > cap then begin
      let live = t.len - t.off in
      if live + n <= cap then begin
        (* Sliding the unread window to the front makes room. *)
        Bytes.blit t.data t.off t.data 0 live;
        t.len <- live;
        t.off <- 0
      end
      else begin
        let ncap = ref (Int.max 256 (2 * cap)) in
        while live + n > !ncap do
          ncap := 2 * !ncap
        done;
        let ndata = Bytes.create !ncap in
        Bytes.blit t.data t.off ndata 0 live;
        t.data <- ndata;
        t.len <- live;
        t.off <- 0
      end
    end;
    Bytes.blit_string chunk 0 t.data t.len n;
    t.len <- t.len + n

  (* The next message, or [none] once a step fails or neither produces
     a message nor consumes input (a header line switching to a data
     mode consumes without producing). *)
  let rec next t =
    let off = t.off in
    let m = t.step t in
    if m != t.none || t.failure <> None || t.off = off then m else next t

  (* The chunk's messages in order, without a reversal. *)
  let rec collect t =
    let m = next t in
    if m == t.none then [] else m :: collect t

  let feed t chunk =
    add_chunk t chunk;
    let msgs = collect t in
    match t.failure with
    | Some e ->
        t.failure <- None;
        Stdlib.Error e
    | None ->
        compact t;
        Ok msgs

  let buffered t = available t
end
