(* Tests for the memcached protocol, store, interference and server. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

module P = Memcache.Protocol

(* --- Protocol encoding ---------------------------------------------------- *)

let encode_get () =
  check_str "get wire format" "get foo\r\n" (P.encode_request (P.Get { key = "foo" }))

let encode_set () =
  check_str "set wire format" "set k 7 0 3\r\nabc\r\n"
    (P.encode_request (P.Set { key = "k"; flags = 7; exptime = 0; value = "abc" }))

let encode_responses () =
  check_str "value" "VALUE k 0 2\r\nhi\r\nEND\r\n"
    (P.encode_response (P.Value { key = "k"; flags = 0; value = "hi" }));
  check_str "miss" "END\r\n" (P.encode_response P.Miss);
  check_str "stored" "STORED\r\n" (P.encode_response P.Stored);
  check_str "error" "ERROR boom\r\n" (P.encode_response (P.Error "boom"))

let request_key () =
  check_str "get key" "a" (P.request_key (P.Get { key = "a" }));
  check_str "set key" "b"
    (P.request_key (P.Set { key = "b"; flags = 0; exptime = 0; value = "" }))

(* --- Protocol parsing ------------------------------------------------------ *)

let parse_one_get () =
  let r = P.Reader.requests () in
  match P.Reader.feed r "get foo\r\n" with
  | Ok [ P.Get { key } ] -> check_str "key" "foo" key
  | Ok l -> Alcotest.failf "expected 1 request, got %d" (List.length l)
  | Error e -> Alcotest.fail e

let parse_one_set () =
  let r = P.Reader.requests () in
  match P.Reader.feed r "set k 1 2 5\r\nhello\r\n" with
  | Ok [ P.Set { key; flags; exptime; value } ] ->
      check_str "key" "k" key;
      check_int "flags" 1 flags;
      check_int "exptime" 2 exptime;
      check_str "value" "hello" value
  | Ok l -> Alcotest.failf "expected 1 request, got %d" (List.length l)
  | Error e -> Alcotest.fail e

let parse_pipelined_requests () =
  let r = P.Reader.requests () in
  match P.Reader.feed r "get a\r\nget b\r\nset c 0 0 1\r\nx\r\n" with
  | Ok [ P.Get { key = "a" }; P.Get { key = "b" }; P.Set { key = "c"; _ } ] -> ()
  | Ok l -> Alcotest.failf "expected 3 requests, got %d" (List.length l)
  | Error e -> Alcotest.fail e

let parse_value_with_crlf_inside () =
  (* Binary-safe values: the byte count, not CRLF scanning, delimits. *)
  let r = P.Reader.requests () in
  match P.Reader.feed r "set k 0 0 6\r\na\r\nb\rc\r\n" with
  | Ok [ P.Set { value; _ } ] -> check_str "raw value" "a\r\nb\rc" value
  | Ok l -> Alcotest.failf "expected 1 request, got %d" (List.length l)
  | Error e -> Alcotest.fail e

let parse_responses () =
  let r = P.Reader.responses () in
  match
    P.Reader.feed r "VALUE k 0 2\r\nhi\r\nEND\r\nEND\r\nSTORED\r\nERROR x\r\n"
  with
  | Ok [ P.Value { value = "hi"; _ }; P.Miss; P.Stored; P.Error "x" ] -> ()
  | Ok l -> Alcotest.failf "expected 4 responses, got %d" (List.length l)
  | Error e -> Alcotest.fail e

let parse_bad_request_line () =
  let r = P.Reader.requests () in
  match P.Reader.feed r "frobnicate\r\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected a parse error"

(* The longest value a header may declare (the reader's bound). *)
let max_value = Sys.max_string_length - 7

let parse_huge_lengths () =
  (* A longer declared length is a bad integer on the fast and the
     [words] path alike, also where [n + 2] or [n + 7] would wrap
     negative; it never reaches an offset. *)
  List.iter
    (fun n ->
      let expect = Error (Fmt.str "bad integer %S" n) in
      let check wire got =
        if got <> expect then Alcotest.failf "%S: expected a bad integer" wire
      in
      List.iter
        (fun sep ->
          let wire = "set k 0" ^ sep ^ "0 " ^ n ^ "\r\nxy\r\n" in
          check wire (P.Reader.feed (P.Reader.requests ()) wire);
          let wire = "VALUE k" ^ sep ^ "0 " ^ n ^ "\r\nxy\r\nEND\r\n" in
          check wire (P.Reader.feed (P.Reader.responses ()) wire))
        [ " "; "  " ])
    [ "999999999999999999"; string_of_int (max_value + 1);
      "4611686018427387903"; "4611686018427387902"; "4611686018427387897";
      "0x3fffffffffffffff"; "4_611_686_018_427_387_903" ];
  (* The longest legal length waits for its block. *)
  let n = string_of_int max_value in
  let r = P.Reader.requests () in
  (match P.Reader.feed r ("set k 0 0 " ^ n ^ "\r\nxy") with
  | Ok [] -> check_int "set block buffered" 2 (P.Reader.buffered r)
  | _ -> Alcotest.fail "set: expected to wait for the block");
  let r = P.Reader.responses () in
  match P.Reader.feed r ("VALUE k 0 " ^ n ^ "\r\nxy") with
  | Ok [] -> check_int "VALUE block buffered" 2 (P.Reader.buffered r)
  | _ -> Alcotest.fail "VALUE: expected to wait for the block"

let parse_incremental_bytes () =
  (* Feeding one byte at a time must produce the same messages. *)
  let wire = "set k 0 0 5\r\nhello\r\nget j\r\n" in
  let r = P.Reader.requests () in
  let messages = ref [] in
  String.iter
    (fun c ->
      match P.Reader.feed r (String.make 1 c) with
      | Ok ms -> messages := !messages @ ms
      | Error e -> Alcotest.fail e)
    wire;
  (match !messages with
  | [ P.Set { value = "hello"; _ }; P.Get { key = "j" } ] -> ()
  | l -> Alcotest.failf "got %d messages" (List.length l));
  check_int "nothing buffered" 0 (P.Reader.buffered r)

let roundtrip_request_qcheck =
  let key_gen = QCheck.Gen.(map (fun s -> "k" ^ s) (string_size ~gen:(char_range 'a' 'z') (int_range 0 20))) in
  let req_gen =
    QCheck.Gen.(
      oneof
        [
          map (fun key -> P.Get { key }) key_gen;
          map3
            (fun key flags value -> P.Set { key; flags; exptime = 0; value })
            key_gen (int_bound 100)
            (string_size ~gen:(char_range '!' '~') (int_range 0 200));
        ])
  in
  QCheck.Test.make ~count:300 ~name:"request encode/parse roundtrip"
    (QCheck.make req_gen) (fun req ->
      let r = P.Reader.requests () in
      match P.Reader.feed r (P.encode_request req) with
      | Ok [ parsed ] -> parsed = req
      | Ok _ | Error _ -> false)

let roundtrip_chunked_qcheck =
  QCheck.Test.make ~count:200
    ~name:"response stream parses identically under any chunking"
    QCheck.(pair (int_bound 10_000) (int_range 1 7))
    (fun (seed, chunk_max) ->
      let responses =
        [
          P.Value { key = "alpha"; flags = 3; value = String.make 40 'v' };
          P.Miss;
          P.Stored;
          P.Value { key = "beta"; flags = 0; value = "x\r\ny" };
        ]
      in
      let wire = String.concat "" (List.map P.encode_response responses) in
      let rng = Des.Rng.create ~seed in
      let r = P.Reader.responses () in
      let parsed = ref [] in
      let off = ref 0 in
      let ok = ref true in
      while !off < String.length wire do
        let len =
          Stdlib.min (1 + Des.Rng.int rng chunk_max) (String.length wire - !off)
        in
        (match P.Reader.feed r (String.sub wire !off len) with
        | Ok ms -> parsed := !parsed @ ms
        | Error _ -> ok := false);
        off := !off + len
      done;
      !ok && !parsed = responses)

let reader_fuzz_no_exception =
  QCheck.Test.make ~count:500 ~name:"readers never raise on arbitrary bytes"
    QCheck.(string_of_size Gen.(int_range 0 300))
    (fun garbage ->
      let req = P.Reader.requests () in
      let resp = P.Reader.responses () in
      let safe r =
        match P.Reader.feed r garbage with Ok _ | Error _ -> true
      in
      safe req && safe resp)

(* --- The codec before in-place parsing, kept as an oracle --------------- *)

(* The [String.concat]/[string_of_int] encoders. *)
let old_encode_request = function
  | P.Get { key } -> String.concat "" [ "get "; key; "\r\n" ]
  | P.Set { key; flags; exptime; value } ->
      String.concat ""
        [
          "set ";
          key;
          " ";
          string_of_int flags;
          " ";
          string_of_int exptime;
          " ";
          string_of_int (String.length value);
          "\r\n";
          value;
          "\r\n";
        ]

let old_encode_response = function
  | P.Value { key; flags; value } ->
      String.concat ""
        [
          "VALUE ";
          key;
          " ";
          string_of_int flags;
          " ";
          string_of_int (String.length value);
          "\r\n";
          value;
          "\r\nEND\r\n";
        ]
  | P.Miss -> "END\r\n"
  | P.Stored -> "STORED\r\n"
  | P.Error msg -> String.concat "" [ "ERROR "; msg; "\r\n" ]

(* The reader that cut a line string off its buffer for every message
   and wrapped each in [Ok (Some _)], with one deliberate change: a
   declared length above [max_value] is a bad integer, in the fast and
   the [words] path alike. The pre-change reader waited forever for
   such a block, or raised [Invalid_argument] once [n + 2] overflowed. *)
module Old_reader = struct
  open P
  (* The reader accumulates raw bytes and repeatedly tries to cut one
     complete message off the front. [`Line] mode scans for CRLF;
     [`Data] mode waits for a known byte count (a value block plus its
     trailing CRLF, and for responses the final END line). *)

  type mode =
    | Line
    | Data of { header : string list; need : int }
    (* Fast-path variants with the header already parsed; entered only
       when the header line was well-formed, so no error can be
       discovered when the data block lands. *)
    | Data_set of { key : string; flags : int; exptime : int; need : int }
    | Data_value of { key : string; flags : int; need : int }

  (* The byte store is a plain growable [Bytes.t] window rather than a
     [Buffer.t]: the CRLF scan then runs on [Bytes.index_from_opt]
     (memchr) instead of one bounds-checked [Buffer.nth] call per
     character, which dominated reader time at ~45 scanned characters
     per request/response exchange. *)
  type 'a t = {
    mutable data : Bytes.t;
    mutable len : int; (* filled prefix of [data] *)
    mutable off : int; (* consumed prefix; [off, len) is unread *)
    mutable mode : mode;
    step : 'a t -> ('a option, string) result;
  }

  let compact t =
    (* Drop the consumed prefix when it dominates the buffer. *)
    if t.off > 4096 && t.off * 2 > t.len then begin
      Bytes.blit t.data t.off t.data 0 (t.len - t.off);
      t.len <- t.len - t.off;
      t.off <- 0
    end

  let available t = t.len - t.off

  (* Find CRLF at or after [off]; return line without CRLF. *)
  let take_line t =
    let rec scan i =
      if i + 1 >= t.len then None
      else
        match Bytes.index_from_opt t.data i '\r' with
        | None -> None
        | Some j ->
            if j + 1 >= t.len then None
            else if Bytes.unsafe_get t.data (j + 1) = '\n' then Some j
            else scan (j + 1)
    in
    match scan t.off with
    | None -> None
    | Some i ->
        let line = Bytes.sub_string t.data t.off (i - t.off) in
        t.off <- i + 2;
        Some line

  let take_exact t n =
    if available t < n then None
    else begin
      let s = Bytes.sub_string t.data t.off n in
      t.off <- t.off + n;
      Some s
    end

  let words s = String.split_on_char ' ' s |> List.filter (fun w -> w <> "")

  let parse_int w =
    match int_of_string_opt w with
    | Some n when n >= 0 -> Ok n
    | Some _ | None -> Stdlib.Error (Fmt.str "bad integer %S" w)

  let parse_len w =
    match parse_int w with
    | Ok n when n > max_value -> Stdlib.Error (Fmt.str "bad integer %S" w)
    | r -> r

  (* Fast header parsing for the wire format our own encoders emit
     (single spaces, plain decimal fields). Anything unusual returns
     [None] / [-1] and the caller falls back to the [words]-based path,
     which reproduces the original error handling byte for byte. *)

  let parse_uint s i j =
    if i >= j || j - i > 18 then -1
    else begin
      let v = ref 0 in
      (try
         for k = i to j - 1 do
           let d = Char.code (String.unsafe_get s k) - Char.code '0' in
           if d < 0 || d > 9 then raise_notrace Exit;
           v := (!v * 10) + d
         done
       with Exit -> v := -1);
      !v
    end

  let index_from_opt s i c =
    if i >= String.length s then -1
    else match String.index_from_opt s i c with Some j -> j | None -> -1

  (* The [words]-based request-line parse, for header lines the fast
     scan declined (unusual spacing or malformed fields). *)
  let request_line_slow t line =
    match words line with
    | [ "get"; key ] -> Ok (Some (Get { key }))
    | [ "set"; _; _; _; bytes ] as header -> begin
        match parse_len bytes with
        | Ok n ->
            t.mode <- Data { header; need = n + 2 };
            Ok None
        | Stdlib.Error e -> Stdlib.Error e
      end
    | _ -> Stdlib.Error (Fmt.str "bad request line %S" line)

  let request_line t line =
    let n = String.length line in
    if
      n > 4
      && String.unsafe_get line 0 = 'g'
      && String.unsafe_get line 1 = 'e'
      && String.unsafe_get line 2 = 't'
      && String.unsafe_get line 3 = ' '
      && index_from_opt line 4 ' ' = -1
    then Ok (Some (Get { key = String.sub line 4 (n - 4) }))
    else if
      n > 4
      && String.unsafe_get line 0 = 's'
      && String.unsafe_get line 1 = 'e'
      && String.unsafe_get line 2 = 't'
      && String.unsafe_get line 3 = ' '
    then begin
      let s1 = index_from_opt line 4 ' ' in
      let s2 = if s1 < 0 then -1 else index_from_opt line (s1 + 1) ' ' in
      let s3 = if s2 < 0 then -1 else index_from_opt line (s2 + 1) ' ' in
      if s1 <= 4 || s2 < 0 || s3 < 0 || index_from_opt line (s3 + 1) ' ' >= 0
      then request_line_slow t line
      else begin
        let flags = parse_uint line (s1 + 1) s2 in
        let exptime = parse_uint line (s2 + 1) s3 in
        let bytes = parse_uint line (s3 + 1) n in
        if flags < 0 || exptime < 0 || bytes < 0 || bytes > max_value then
          request_line_slow t line
        else begin
          t.mode <-
            Data_set
              { key = String.sub line 4 (s1 - 4);
                flags;
                exptime;
                need = bytes + 2 };
          Ok None
        end
      end
    end
    else request_line_slow t line

  (* One step: try to produce one message. [Ok None] = need more bytes. *)
  let step_request t =
    match t.mode with
    | Line -> begin
        match take_line t with
        | None -> Ok None
        | Some line -> request_line t line
      end
    | Data_set { key; flags; exptime; need } -> begin
        match take_exact t need with
        | None -> Ok None
        | Some block ->
            t.mode <- Line;
            if String.length block < 2 || String.sub block (need - 2) 2 <> "\r\n"
            then Stdlib.Error "value block not CRLF-terminated"
            else
              Ok
                (Some
                   (Set
                      { key; flags; exptime;
                        value = String.sub block 0 (need - 2) }))
      end
    | Data_value _ -> assert false (* response-only mode *)
    | Data { header; need } -> begin
        match take_exact t need with
        | None -> Ok None
        | Some block -> begin
            t.mode <- Line;
            if String.length block < 2 || String.sub block (need - 2) 2 <> "\r\n"
            then Stdlib.Error "value block not CRLF-terminated"
            else begin
              let value = String.sub block 0 (need - 2) in
              match header with
              | [ "set"; key; flags; exptime; _ ] -> begin
                  match (parse_int flags, parse_int exptime) with
                  | Ok flags, Ok exptime ->
                      Ok (Some (Set { key; flags; exptime; value }))
                  | Stdlib.Error e, _ | _, Stdlib.Error e -> Stdlib.Error e
                end
              | _ -> Stdlib.Error "internal: bad set header"
            end
          end
      end

  let response_line_slow t line =
    match words line with
    | [ "END" ] -> Ok (Some Miss)
    | [ "STORED" ] -> Ok (Some Stored)
    | "ERROR" :: rest -> Ok (Some (Error (String.concat " " rest)))
    | [ "VALUE"; _; _; bytes ] -> begin
        match parse_len bytes with
        | Ok n ->
            t.mode <- Data { header = words line; need = n + 2 };
            Ok None
        | Stdlib.Error e -> Stdlib.Error e
      end
    | _ -> Stdlib.Error (Fmt.str "bad response line %S" line)

  let response_line t line =
    if String.equal line "END" then Ok (Some Miss)
    else if String.equal line "STORED" then Ok (Some Stored)
    else begin
      let n = String.length line in
      if
        n > 6
        && String.unsafe_get line 0 = 'V'
        && String.unsafe_get line 1 = 'A'
        && String.unsafe_get line 2 = 'L'
        && String.unsafe_get line 3 = 'U'
        && String.unsafe_get line 4 = 'E'
        && String.unsafe_get line 5 = ' '
      then begin
        let s1 = index_from_opt line 6 ' ' in
        let s2 = if s1 < 0 then -1 else index_from_opt line (s1 + 1) ' ' in
        if s1 <= 6 || s2 < 0 || index_from_opt line (s2 + 1) ' ' >= 0 then
          response_line_slow t line
        else begin
          let flags = parse_uint line (s1 + 1) s2 in
          let bytes = parse_uint line (s2 + 1) n in
          if flags < 0 || bytes < 0 || bytes > max_value then
            response_line_slow t line
          else begin
            t.mode <-
              Data_value
                { key = String.sub line 6 (s1 - 6); flags; need = bytes + 2 };
            Ok None
          end
        end
      end
      else response_line_slow t line
    end

  (* Responses: VALUE needs its data block *and* the END line. *)
  let step_response t =
    match t.mode with
    | Line -> begin
        match take_line t with
        | None -> Ok None
        | Some line -> response_line t line
      end
    | Data_value { key; flags; need } ->
        (* Wait for data + CRLF, then the END\r\n line (5 bytes). *)
        if available t < need + 5 then Ok None
        else begin
          match take_exact t need with
          | None -> Ok None
          | Some block -> begin
              match take_line t with
              | Some "END" ->
                  t.mode <- Line;
                  Ok
                    (Some
                       (Value { key; flags; value = String.sub block 0 (need - 2) }))
              | Some other -> Stdlib.Error (Fmt.str "expected END, got %S" other)
              | None -> Stdlib.Error "internal: END line missing"
            end
        end
    | Data_set _ -> assert false (* request-only mode *)
    | Data { header; need } ->
        (* Wait for data + CRLF, then the END\r\n line (5 bytes). *)
        if available t < need + 5 then Ok None
        else begin
          match take_exact t need with
          | None -> Ok None
          | Some block -> begin
              match take_line t with
              | Some "END" -> begin
                  t.mode <- Line;
                  let value = String.sub block 0 (need - 2) in
                  match header with
                  | [ "VALUE"; key; flags; _ ] -> begin
                      match parse_int flags with
                      | Ok flags -> Ok (Some (Value { key; flags; value }))
                      | Stdlib.Error e -> Stdlib.Error e
                    end
                  | _ -> Stdlib.Error "internal: bad VALUE header"
                end
              | Some other -> Stdlib.Error (Fmt.str "expected END, got %S" other)
              | None -> Stdlib.Error "internal: END line missing"
            end
        end

  let make step =
    { data = Bytes.create 256; len = 0; off = 0; mode = Line; step }

  let requests () = make step_request
  let responses () = make step_response

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
        let ncap = ref (Stdlib.max 256 (2 * cap)) in
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

  let feed t chunk =
    add_chunk t chunk;
    (* A step may consume input without producing a message (e.g. a
       header line switching to Data mode); keep stepping until neither a
       message is produced nor input consumed. *)
    let rec loop acc =
      let off_before = t.off in
      match t.step t with
      | Ok (Some msg) -> loop (msg :: acc)
      | Ok None ->
          if t.off <> off_before then loop acc
          else begin
            compact t;
            Ok (List.rev acc)
          end
      | Stdlib.Error e -> Stdlib.Error e
    in
    loop []

  let buffered t = available t
end

let gen_key =
  QCheck.Gen.(string_size ~gen:(char_range '!' '~') (int_range 1 24))

(* Flags and exptime as the encoders may meet them: negative, huge,
   the extremes. *)
let gen_int =
  QCheck.Gen.(
    oneof
      [
        small_signed_int;
        int;
        oneofl [ 0; -1; 9; 10; -10; max_int; min_int; 999_999_999_999 ];
      ])

let gen_value =
  QCheck.Gen.(
    string_size ~gen:char
      (oneof [ int_range 0 16; int_range 0 2048; oneofl [ 0; 1; 2047; 2048 ] ]))

let gen_request ~flags =
  QCheck.Gen.(
    oneof
      [
        map (fun key -> P.Get { key }) gen_key;
        map4
          (fun key flags exptime value -> P.Set { key; flags; exptime; value })
          gen_key flags flags gen_value;
      ])

let gen_response ~flags =
  let word =
    QCheck.Gen.(string_size ~gen:(char_range 'a' 'z') (int_range 1 6))
  in
  QCheck.Gen.(
    frequency
      [
        ( 4,
          map3
            (fun key flags value -> P.Value { key; flags; value })
            gen_key flags gen_value );
        (2, return P.Miss);
        (2, return P.Stored);
        ( 1,
          map
            (fun ws -> P.Error (String.concat " " ws))
            (list_size (int_range 0 3) word) );
      ])

let print_request r = Fmt.str "%a" P.pp_request r
let print_response r = Fmt.str "%a" P.pp_response r

let encoders_match_oracle =
  QCheck.Test.make ~count:1000 ~name:"encoders equal the concat oracle"
    QCheck.(
      pair
        (make ~print:print_request (gen_request ~flags:gen_int))
        (make ~print:print_response (gen_response ~flags:gen_int)))
    (fun (req, resp) ->
      String.equal (P.encode_request req) (old_encode_request req)
      && String.equal (P.encode_response resp) (old_encode_response resp))

(* Cut [wire] at random points into chunks of 1 to [max] bytes. *)
let chunks rng wire ~max =
  let rec go off acc =
    if off >= String.length wire then List.rev acc
    else
      let len = Int.min (1 + Des.Rng.int rng max) (String.length wire - off) in
      go (off + len) (String.sub wire off len :: acc)
  in
  go 0 []

(* Feed every chunk; [None] on a protocol error. *)
let decode_all feed r chunks =
  List.fold_left
    (fun acc chunk ->
      match (acc, feed r chunk) with
      | Some msgs, Ok ms -> Some (List.rev_append ms msgs)
      | _ -> None)
    (Some []) chunks
  |> Option.map List.rev

let split_roundtrip =
  let flags = QCheck.Gen.int_bound 1_000_000 in
  QCheck.Test.make ~count:500
    ~name:"every encoding decodes whole under any chunking"
    QCheck.(
      triple
        (list_of_size
           Gen.(int_range 1 8)
           (make ~print:print_request (gen_request ~flags)))
        (list_of_size
           Gen.(int_range 1 8)
           (make ~print:print_response (gen_response ~flags)))
        (pair (int_bound 100_000) (int_range 1 64)))
    (fun (reqs, resps, (seed, max)) ->
      let rng = Des.Rng.create ~seed in
      let wire enc l = String.concat "" (List.map enc l) in
      decode_all P.Reader.feed (P.Reader.requests ())
        (chunks rng (wire P.encode_request reqs) ~max)
      = Some reqs
      && decode_all P.Reader.feed (P.Reader.responses ())
           (chunks rng (wire P.encode_response resps) ~max)
         = Some resps)

(* Near-valid messages: the commands and layouts of the protocol with
   doubled or missing spaces, empty, signed, oversized or non-numeric
   fields, declared lengths that match the block or miss it by one, and
   a block whose CRLF or END line is broken. *)
let gen_near_message =
  let open QCheck.Gen in
  let field =
    oneof
      [
        gen_key;
        map string_of_int (int_bound 30);
        oneofl
          [ ""; "-1"; "+3"; "1x"; "0"; "007"; "1000000000000000000";
            "9999999999999999999"; "99999999999999999999";
            "999999999999999999"; string_of_int max_value;
            string_of_int (max_value + 1); "4611686018427387903";
            "4611686018427387902"; "0x3fffffffffffffff";
            "4_611_686_018_427_387_903" ];
      ]
  in
  let sep = frequency [ (6, return " "); (1, return "  "); (1, return "") ] in
  let value = string_size ~gen:char (int_range 0 12) in
  let cmd =
    frequency
      [ (3, return "set"); (3, return "VALUE"); (1, return "get");
        (1, oneofl [ "END"; "STORED"; "ERROR"; "gets"; "" ]) ]
  in
  cmd >>= fun cmd ->
  list_size (int_range 0 4) (pair sep field) >>= fun fields ->
  value >>= fun v ->
  oneofl [ 0; 0; 0; 1; -1 ] >>= fun skew ->
  bool >>= fun declare ->
  oneofl [ "\r\n"; "\r\n"; "\rx"; "" ] >>= fun block_end ->
  oneofl [ "END\r\n"; "END\r\n"; "ENDX\r\n"; "END"; "" ] >>= fun end_line ->
  let fields =
    if declare then fields @ [ (" ", string_of_int (String.length v + skew)) ]
    else fields
  in
  let header =
    cmd ^ String.concat "" (List.map (fun (s, f) -> s ^ f) fields) ^ "\r\n"
  in
  return
    (if not declare then header
     else header ^ v ^ block_end ^ if cmd = "VALUE" then end_line else "")

(* Bytes that reach every branch of both readers: near-valid messages,
   and a soup of protocol tokens, stray CR and LF, and noise. *)
let gen_garbage =
  QCheck.Gen.(
    map (String.concat "")
      (list_size (int_range 0 12)
         (frequency
            [
              (4, gen_near_message);
              ( 4,
                oneofl
                  [ "get "; "set "; "VALUE "; "END"; "STORED"; "ERROR";
                    "\r\n"; "\r"; "\n"; " "; "  "; "k"; "key"; "0"; "1";
                    "5"; "12"; "-1"; "x"; "99999999999999999999"; "END\r\n";
                    "\r\nEND\r\n" ] );
              (1, map (String.make 1) char);
              (1, map string_of_int small_signed_int);
            ])))

(* The same chunks through the new and the pre-change reader: the
   same results, chunk by chunk, and the same bytes left buffered. *)
let reader_matches_oracle =
  QCheck.Test.make ~count:10_000
    ~name:"readers equal the pre-change reader on any bytes"
    QCheck.(
      pair
        (make
           ~print:Fmt.(str "%a" (Dump.list Dump.string))
           Gen.(list_size (int_range 1 6) gen_garbage))
        bool)
    (fun (chunks, responses) ->
      let same feed_new feed_old =
        List.for_all
          (fun chunk ->
            let a = feed_new chunk and b = feed_old chunk in
            a = b)
          chunks
      in
      if responses then begin
        let r = P.Reader.responses () and o = Old_reader.responses () in
        same
          (fun c -> (P.Reader.feed r c, P.Reader.buffered r))
          (fun c -> (Old_reader.feed o c, Old_reader.buffered o))
      end
      else begin
        let r = P.Reader.requests () and o = Old_reader.requests () in
        same
          (fun c -> (P.Reader.feed r c, P.Reader.buffered r))
          (fun c -> (Old_reader.feed o c, Old_reader.buffered o))
      end)

let encode_set_allocates_only_its_string () =
  (* A string of [n] bytes takes [n / 8 + 1] words and a header; the
     encoder may allocate that and nothing else. *)
  let req =
    P.Set
      { key = "memtier-00000042"; flags = 0; exptime = 0;
        value = String.make 64 'x' }
  in
  let wire = P.encode_request req in
  let words = 1 + ((String.length wire + 8) / 8) in
  ignore (P.encode_request req);
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (P.encode_request req))
  done;
  let per = (Gc.minor_words () -. w0) /. 1000.0 in
  if per > float_of_int words then
    Alcotest.failf "encode_request (Set) allocated %.1f words, its string is %d"
      per words

(* --- Store ------------------------------------------------------------------ *)

let store_set_get () =
  let s = Memcache.Store.create () in
  check_bool "miss" true (Memcache.Store.get s ~key:"a" = None);
  Memcache.Store.set s ~key:"a" ~flags:5 ~value:"v1";
  check_bool "hit" true (Memcache.Store.get s ~key:"a" = Some (5, "v1"));
  Memcache.Store.set s ~key:"a" ~flags:6 ~value:"longer";
  check_bool "replaced" true (Memcache.Store.get s ~key:"a" = Some (6, "longer"));
  check_int "size" 1 (Memcache.Store.size s);
  check_int "bytes tracks replacement" 6 (Memcache.Store.bytes s)

let store_preload () =
  let s = Memcache.Store.create () in
  Memcache.Store.preload s ~count:100 ~key_of:(Fmt.str "key-%d") ~value_size:32;
  check_int "preloaded" 100 (Memcache.Store.size s);
  check_int "bytes" 3200 (Memcache.Store.bytes s);
  check_bool "sample key" true (Memcache.Store.get s ~key:"key-42" <> None)

(* --- Interference ------------------------------------------------------------ *)

let interference_none () =
  let engine = Des.Engine.create () in
  let i = Memcache.Interference.none engine in
  Des.Engine.run ~until:(Des.Time.sec 1) engine;
  check_int "never pauses" 0 (Memcache.Interference.extra_delay i);
  check_int "count" 0 (Memcache.Interference.pauses_so_far i)

let interference_periodic () =
  let engine = Des.Engine.create () in
  let rng = Des.Rng.create ~seed:1 in
  let i =
    Memcache.Interference.periodic engine ~rng
      ~gap:(Stats.Dist.Constant 10.0e6)
      ~duration:(Stats.Dist.Constant 3.0e6)
  in
  Des.Engine.run ~until:(Des.Time.ms 11) engine;
  check_int "inside first pause" (Des.Time.ms 2)
    (Memcache.Interference.extra_delay i);
  Des.Engine.run ~until:(Des.Time.ms 14) engine;
  check_int "pause over" 0 (Memcache.Interference.extra_delay i);
  Des.Engine.run ~until:(Des.Time.ms 45) engine;
  check_int "keeps pausing" 4 (Memcache.Interference.pauses_so_far i)

(* --- Server over the network --------------------------------------------------- *)

type rig = {
  engine : Des.Engine.t;
  server : Memcache.Server.t;
  conn : Tcpsim.Conn.t;
  responses : P.response list ref;
}

let make_rig ?config () =
  let engine = Des.Engine.create () in
  let fabric = Netsim.Fabric.create engine in
  let vip = Netsim.Addr.v 2 11211 in
  let rng = Des.Rng.create ~seed:3 in
  let server =
    Memcache.Server.create fabric ~host_ip:2 ~listen_addr:vip ?config ~rng ()
  in
  let client_ep = Tcpsim.Endpoint.create fabric ~host_ip:1 in
  let mk () = Netsim.Link.create engine ~delay:(Des.Time.us 20) () in
  Netsim.Fabric.add_link fabric ~src:1 ~dst:2 (mk ());
  Netsim.Fabric.add_link fabric ~src:2 ~dst:1 (mk ());
  let conn =
    Tcpsim.Endpoint.connect client_ep ~local:(Netsim.Addr.v 1 9999) ~remote:vip ()
  in
  let responses = ref [] in
  let reader = P.Reader.responses () in
  Tcpsim.Conn.set_on_data conn (fun chunk ->
      match P.Reader.feed reader chunk with
      | Ok ms -> responses := !responses @ ms
      | Error e -> Alcotest.fail e);
  { engine; server; conn; responses }

let server_serves_get_set () =
  let rig = make_rig () in
  Tcpsim.Conn.set_on_connect rig.conn (fun () ->
      Tcpsim.Conn.send rig.conn
        (P.encode_request (P.Set { key = "k"; flags = 1; exptime = 0; value = "vv" }));
      Tcpsim.Conn.send rig.conn (P.encode_request (P.Get { key = "k" }));
      Tcpsim.Conn.send rig.conn (P.encode_request (P.Get { key = "absent" })));
  Des.Engine.run ~until:(Des.Time.sec 1) rig.engine;
  (match !(rig.responses) with
  | [ P.Stored; P.Value { key = "k"; flags = 1; value = "vv" }; P.Miss ] -> ()
  | l -> Alcotest.failf "unexpected responses (%d)" (List.length l));
  check_int "gets counted" 2 (Memcache.Server.gets_served rig.server);
  check_int "sets counted" 1 (Memcache.Server.sets_served rig.server);
  check_int "total" 3 (Memcache.Server.requests_served rig.server)

let server_responses_in_request_order () =
  (* Even with several workers, one connection's pipeline must come back
     in order (memcached semantics). *)
  let config =
    {
      Memcache.Server.default_config with
      workers = 8;
      service_get = Stats.Dist.Uniform { lo = 10_000.0; hi = 500_000.0 };
    }
  in
  let rig = make_rig ~config () in
  Tcpsim.Conn.set_on_connect rig.conn (fun () ->
      for i = 0 to 19 do
        Tcpsim.Conn.send rig.conn
          (P.encode_request
             (P.Set { key = Fmt.str "k%d" i; flags = i; exptime = 0; value = "x" }))
      done;
      for i = 0 to 19 do
        Tcpsim.Conn.send rig.conn (P.encode_request (P.Get { key = Fmt.str "k%d" i }))
      done);
  Des.Engine.run ~until:(Des.Time.sec 5) rig.engine;
  let values =
    List.filter_map
      (function P.Value { flags; _ } -> Some flags | P.Miss | P.Stored | P.Error _ -> None)
      !(rig.responses)
  in
  Alcotest.(check (list int)) "in order" (List.init 20 (fun i -> i)) values

let server_sojourn_recorded () =
  let rig = make_rig () in
  Tcpsim.Conn.set_on_connect rig.conn (fun () ->
      Tcpsim.Conn.send rig.conn (P.encode_request (P.Get { key = "a" })));
  Des.Engine.run ~until:(Des.Time.sec 1) rig.engine;
  let h = Memcache.Server.sojourn rig.server in
  check_int "one sojourn sample" 1 (Stats.Histogram.count h);
  check_bool "positive" true (Stats.Histogram.min_value h > 0)

let server_interference_inflates_service () =
  let engine_probe config =
    let rig = make_rig ?config () in
    Tcpsim.Conn.set_on_connect rig.conn (fun () ->
        Tcpsim.Conn.send rig.conn (P.encode_request (P.Get { key = "a" })));
    Des.Engine.run ~until:(Des.Time.sec 1) rig.engine;
    Stats.Histogram.max_value (Memcache.Server.sojourn rig.server)
  in
  ignore engine_probe;
  (* Build a server whose interference pauses everything for 5 ms right
     away, then compare sojourn with the clean server. *)
  let engine = Des.Engine.create () in
  let fabric = Netsim.Fabric.create engine in
  let vip = Netsim.Addr.v 2 11211 in
  let rng = Des.Rng.create ~seed:4 in
  let interference =
    Memcache.Interference.periodic engine ~rng
      ~gap:(Stats.Dist.Constant 10_000.0) (* a pause starts every 10 us *)
      ~duration:(Stats.Dist.Constant 5.0e6)
  in
  let server =
    Memcache.Server.create fabric ~host_ip:2 ~listen_addr:vip ~interference ~rng ()
  in
  ignore server;
  let client_ep = Tcpsim.Endpoint.create fabric ~host_ip:1 in
  let mk () = Netsim.Link.create engine ~delay:(Des.Time.us 20) () in
  Netsim.Fabric.add_link fabric ~src:1 ~dst:2 (mk ());
  Netsim.Fabric.add_link fabric ~src:2 ~dst:1 (mk ());
  let conn =
    Tcpsim.Endpoint.connect client_ep ~local:(Netsim.Addr.v 1 9999) ~remote:vip ()
  in
  let got_response_at = ref 0 in
  Tcpsim.Conn.set_on_data conn (fun _ -> got_response_at := Des.Engine.now engine);
  Tcpsim.Conn.set_on_connect conn (fun () ->
      Tcpsim.Conn.send conn (P.encode_request (P.Get { key = "a" })));
  Des.Engine.run ~until:(Des.Time.sec 1) engine;
  check_bool "stall delayed the response past 5ms" true
    (!got_response_at > Des.Time.ms 5)

let server_parallel_connections_use_workers () =
  (* Two connections issuing long requests simultaneously: with two
     workers both are served concurrently — total time ~ one service. *)
  let engine = Des.Engine.create () in
  let fabric = Netsim.Fabric.create engine in
  let vip = Netsim.Addr.v 2 11211 in
  let rng = Des.Rng.create ~seed:5 in
  let config =
    {
      Memcache.Server.default_config with
      workers = 2;
      service_get = Stats.Dist.Constant 10_000_000.0 (* 10 ms *);
    }
  in
  let server =
    Memcache.Server.create fabric ~host_ip:2 ~listen_addr:vip ~config ~rng ()
  in
  ignore server;
  let client_ep = Tcpsim.Endpoint.create fabric ~host_ip:1 in
  let mk () = Netsim.Link.create engine ~delay:(Des.Time.us 20) () in
  Netsim.Fabric.add_link fabric ~src:1 ~dst:2 (mk ());
  Netsim.Fabric.add_link fabric ~src:2 ~dst:1 (mk ());
  let finished = ref [] in
  let start port =
    let conn =
      Tcpsim.Endpoint.connect client_ep ~local:(Netsim.Addr.v 1 port) ~remote:vip ()
    in
    Tcpsim.Conn.set_on_data conn (fun _ ->
        finished := Des.Engine.now engine :: !finished);
    Tcpsim.Conn.set_on_connect conn (fun () ->
        Tcpsim.Conn.send conn (P.encode_request (P.Get { key = "a" })))
  in
  start 9001;
  start 9002;
  Des.Engine.run ~until:(Des.Time.sec 1) engine;
  check_int "both served" 2 (List.length !finished);
  List.iter
    (fun at -> check_bool "served in parallel (~10ms, not ~20ms)" true (at < Des.Time.ms 15))
    !finished

(* --- Server with an upstream (a dependent tier) ------------------------ *)

(* Client -> frontend -> backend chain over real links. The frontend is
   a server with an upstream; its own store holds a different value for
   "k", so a response shows which store answered. *)
(* Client (host 1) -> frontend (host 2, upstream: the backend) ->
   backend (host 3), over 20 us links. [open_client port] opens another
   client connection and returns it with the responses it has read. *)
let frontend_rig () =
  let engine = Des.Engine.create () in
  let fabric = Netsim.Fabric.create engine in
  let rng = Des.Rng.create ~seed:8 in
  let fe_addr = Netsim.Addr.v 2 11211 in
  let be_addr = Netsim.Addr.v 3 11311 in
  let backend =
    Memcache.Server.create fabric ~host_ip:3 ~listen_addr:be_addr
      ~rng:(Des.Rng.split rng ~label:"be") ()
  in
  Memcache.Store.set (Memcache.Server.store backend) ~key:"k" ~flags:7
    ~value:"from-backend";
  let frontend =
    Memcache.Server.create fabric ~host_ip:2 ~listen_addr:fe_addr
      ~upstream:be_addr
      ~rng:(Des.Rng.split rng ~label:"fe") ()
  in
  Memcache.Store.set (Memcache.Server.store frontend) ~key:"k" ~flags:1
    ~value:"from-frontend";
  let client_ep = Tcpsim.Endpoint.create fabric ~host_ip:1 in
  let mk () = Netsim.Link.create engine ~delay:(Des.Time.us 20) () in
  Netsim.Fabric.add_link fabric ~src:1 ~dst:2 (mk ());
  Netsim.Fabric.add_link fabric ~src:2 ~dst:1 (mk ());
  Netsim.Fabric.add_link fabric ~src:2 ~dst:3 (mk ());
  Netsim.Fabric.add_link fabric ~src:3 ~dst:2 (mk ());
  let open_client port =
    let conn =
      Tcpsim.Endpoint.connect client_ep ~local:(Netsim.Addr.v 1 port)
        ~remote:fe_addr ()
    in
    let responses = ref [] in
    let reader = P.Reader.responses () in
    Tcpsim.Conn.set_on_data conn (fun chunk ->
        match P.Reader.feed reader chunk with
        | Ok ms -> responses := !responses @ ms
        | Error e -> Alcotest.fail e);
    (conn, responses)
  in
  let conn, responses = open_client 7000 in
  (engine, frontend, backend, conn, responses, open_client)

let frontend_forwards_to_backend () =
  let engine, frontend, backend, conn, responses, _ = frontend_rig () in
  Tcpsim.Conn.set_on_connect conn (fun () ->
      Tcpsim.Conn.send conn (P.encode_request (P.Get { key = "k" })));
  Des.Engine.run ~until:(Des.Time.sec 1) engine;
  (match !responses with
  | [ P.Value { value; flags; _ } ] ->
      check_str "backend value wins" "from-backend" value;
      check_int "backend flags" 7 flags
  | l -> Alcotest.failf "unexpected responses (%d)" (List.length l));
  check_int "one upstream call" 1 (Memcache.Server.gets_served backend);
  check_int "served" 1 (Memcache.Server.gets_served frontend);
  check_int "no worker left waiting" 0 (Memcache.Server.busy_workers frontend)

let frontend_pipelines_in_order () =
  let engine, _frontend, _backend, conn, responses, _ = frontend_rig () in
  Tcpsim.Conn.set_on_connect conn (fun () ->
      for i = 0 to 9 do
        Tcpsim.Conn.send conn
          (P.encode_request
             (P.Set { key = Fmt.str "p%d" i; flags = i; exptime = 0; value = "v" }))
      done;
      for i = 0 to 9 do
        Tcpsim.Conn.send conn (P.encode_request (P.Get { key = Fmt.str "p%d" i }))
      done);
  Des.Engine.run ~until:(Des.Time.sec 2) engine;
  let flags =
    List.filter_map
      (function P.Value { flags; _ } -> Some flags | P.Miss | P.Stored | P.Error _ -> None)
      !responses
  in
  Alcotest.(check (list int)) "responses in request order"
    (List.init 10 (fun i -> i))
    flags

let frontend_reconnects_after_upstream_close () =
  (* The backend's 60 s idle reaper closes the frontend's upstream
     connection (at its 75 s pass). A GET on a new client connection at
     80 s must still reach the backend, not wait on the half-closed
     connection with a worker held forever. *)
  let engine, frontend, backend, conn, responses, open_client =
    frontend_rig ()
  in
  let get conn () =
    Tcpsim.Conn.send conn (P.encode_request (P.Get { key = "k" }))
  in
  ignore (Des.Engine.schedule engine ~at:(Des.Time.sec 1) (get conn));
  let late = ref None in
  ignore
    (Des.Engine.schedule engine ~at:(Des.Time.sec 80) (fun () ->
         let conn, responses = open_client 7001 in
         Tcpsim.Conn.set_on_connect conn (get conn);
         late := Some responses));
  Des.Engine.run ~until:(Des.Time.sec 120) engine;
  let answered name responses =
    match responses with
    | [ P.Value { value; _ } ] -> check_str name "from-backend" value
    | l -> Alcotest.failf "%s: %d responses" name (List.length l)
  in
  answered "GET at 1 s" !responses;
  answered "GET at 80 s" (match !late with Some r -> !r | None -> []);
  check_int "both reached the backend" 2 (Memcache.Server.gets_served backend);
  check_int "no worker left waiting" 0 (Memcache.Server.busy_workers frontend)

let () =
  Alcotest.run "memcache"
    [
      ( "encode",
        [
          Alcotest.test_case "get" `Quick encode_get;
          Alcotest.test_case "set" `Quick encode_set;
          Alcotest.test_case "responses" `Quick encode_responses;
          Alcotest.test_case "request_key" `Quick request_key;
          Alcotest.test_case "set allocates only its string" `Quick
            encode_set_allocates_only_its_string;
        ] );
      ( "parse",
        [
          Alcotest.test_case "one get" `Quick parse_one_get;
          Alcotest.test_case "one set" `Quick parse_one_set;
          Alcotest.test_case "pipelined" `Quick parse_pipelined_requests;
          Alcotest.test_case "binary-safe value" `Quick parse_value_with_crlf_inside;
          Alcotest.test_case "responses" `Quick parse_responses;
          Alcotest.test_case "bad line" `Quick parse_bad_request_line;
          Alcotest.test_case "huge declared lengths" `Quick parse_huge_lengths;
          Alcotest.test_case "byte-by-byte" `Quick parse_incremental_bytes;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [
              roundtrip_request_qcheck;
              roundtrip_chunked_qcheck;
              reader_fuzz_no_exception;
              encoders_match_oracle;
              split_roundtrip;
              reader_matches_oracle;
            ] );
      ( "store",
        [
          Alcotest.test_case "set/get" `Quick store_set_get;
          Alcotest.test_case "preload" `Quick store_preload;
        ] );
      ( "interference",
        [
          Alcotest.test_case "none" `Quick interference_none;
          Alcotest.test_case "periodic" `Quick interference_periodic;
        ] );
      ( "frontend",
        [
          Alcotest.test_case "forwards to backend" `Quick
            frontend_forwards_to_backend;
          Alcotest.test_case "pipeline order" `Quick frontend_pipelines_in_order;
          Alcotest.test_case "reconnects after upstream close" `Quick
            frontend_reconnects_after_upstream_close;
        ] );
      ( "server",
        [
          Alcotest.test_case "get/set over tcp" `Quick server_serves_get_set;
          Alcotest.test_case "pipeline order" `Quick
            server_responses_in_request_order;
          Alcotest.test_case "sojourn recorded" `Quick server_sojourn_recorded;
          Alcotest.test_case "interference inflates" `Quick
            server_interference_inflates_service;
          Alcotest.test_case "parallel workers" `Quick
            server_parallel_connections_use_workers;
        ] );
    ]
