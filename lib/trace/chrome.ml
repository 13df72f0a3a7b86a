(* Chrome trace_event exporter (the JSON-array format understood by
   chrome://tracing and https://ui.perfetto.dev).  Paired spans become
   complete ("X") events — B/E pairs would require proper nesting per
   (pid, tid), which interleaved batch lifecycles on one broker do not
   have — instants stay instants, counter samples become "C" events, and
   the final value of every registered counter is appended as one last
   "C" sample. *)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_float f =
  if Float.is_finite f then
    let s = Printf.sprintf "%.17g" f in
    (* "%.17g" never yields a bare leading dot; inf/nan are guarded. *)
    s
  else "0"

let micros t = json_float (t *. 1e6)

let attr_value = function
  | Trace.A_int i -> string_of_int i
  | Trace.A_float f -> json_float f
  | Trace.A_str s -> Printf.sprintf "\"%s\"" (escape s)
  | Trace.A_bool b -> if b then "true" else "false"

let args_json ~id attrs =
  let fields =
    Printf.sprintf "\"id\":%d" id
    :: List.map
         (fun (k, v) -> Printf.sprintf "\"%s\":%s" (escape k) (attr_value v))
         attrs
  in
  "{" ^ String.concat "," fields ^ "}"

let span_json (s : Trace.Span.t) =
  Printf.sprintf
    "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%s,\"dur\":%s,\"pid\":1,\"tid\":%d,\"args\":%s}"
    (escape s.sp_name) (escape s.sp_cat) (micros s.sp_begin)
    (micros (Trace.Span.duration s))
    s.sp_actor
    (args_json ~id:s.sp_id s.sp_attrs)

let event_json (e : Trace.event) =
  match e.ev_phase with
  | Trace.I ->
    Some
      (Printf.sprintf
         "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%s,\"pid\":1,\"tid\":%d,\"args\":%s}"
         (escape e.ev_name) (escape e.ev_cat) (micros e.ev_time) e.ev_actor
         (args_json ~id:e.ev_id e.ev_attrs))
  | Trace.C v ->
    Some
      (Printf.sprintf
         "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"C\",\"ts\":%s,\"pid\":1,\"tid\":%d,\"args\":{\"%s\":%s}}"
         (escape e.ev_name) (escape e.ev_cat) (micros e.ev_time) e.ev_actor
         (escape e.ev_name) (json_float v))
  | Trace.B | Trace.E -> None (* exported as paired "X" events *)

let to_buffer buf sink =
  let events = Trace.Sink.events sink in
  let spans = Trace.Span.pair events in
  let last_time =
    List.fold_left (fun acc (e : Trace.event) -> Float.max acc e.ev_time) 0. events
  in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  let emit s =
    if !first then first := false else Buffer.add_char buf ',';
    Buffer.add_string buf s
  in
  List.iter (fun s -> emit (span_json s)) spans;
  List.iter (fun e -> match event_json e with Some s -> emit s | None -> ()) events;
  List.iter
    (fun (cat, name, v) ->
      emit
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"C\",\"ts\":%s,\"pid\":1,\"tid\":0,\"args\":{\"%s\":%d}}"
           (escape name) (escape cat) (micros last_time) (escape name) v))
    (Trace.Sink.counters sink);
  Buffer.add_string buf "],\"displayTimeUnit\":\"ms\"}"

let to_string sink =
  let buf = Buffer.create 65536 in
  to_buffer buf sink;
  Buffer.contents buf

let to_file sink path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let buf = Buffer.create 65536 in
      to_buffer buf sink;
      Buffer.output_buffer oc buf)
