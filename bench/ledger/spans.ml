(* In-memory spans and samples of one traced run, written once at the
   end as Chrome trace-event JSON (viewable in Perfetto or
   chrome://tracing). Recording allocates one small record per span, so
   the spans sit around whole phases, never around single events. *)

type event = {
  name : string;
  ph : char;  (** 'X' complete span, 'C' counter sample. *)
  ts : float;  (** Host seconds since [create]. *)
  dur : float;
  args : (string * float) list;
}

type t = { origin : float; mutable events : event list }

let create () = { origin = Unix.gettimeofday (); events = [] }
let elapsed t = Unix.gettimeofday () -. t.origin

let span t ~name f =
  let ts = elapsed t in
  let finish () =
    t.events <- { name; ph = 'X'; ts; dur = elapsed t -. ts; args = [] }
                :: t.events
  in
  Fun.protect ~finally:finish f

let sample t ~name args =
  t.events <- { name; ph = 'C'; ts = elapsed t; dur = 0.0; args } :: t.events

(* Times in the trace are microseconds, as the format expects. *)
let write ~path ~label t =
  let us s = Json.Num (s *. 1e6) in
  let event e =
    Json.Obj
      ([
         ("name", Json.Str e.name);
         ("ph", Json.Str (String.make 1 e.ph));
         ("ts", us e.ts);
       ]
      @ (if e.ph = 'X' then [ ("dur", us e.dur) ] else [])
      @ [
          ("pid", Json.Num 1.0);
          ("tid", Json.Num 1.0);
          ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) e.args));
        ])
  in
  let process =
    Json.Obj
      [
        ("name", Json.Str "process_name");
        ("ph", Json.Str "M");
        ("pid", Json.Num 1.0);
        ("args", Json.Obj [ ("name", Json.Str label) ]);
      ]
  in
  let events = process :: List.rev_map event t.events in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc
        ("{\"traceEvents\":[\n"
        ^ String.concat ",\n" (List.map Json.to_string events)
        ^ "\n]}\n"))
