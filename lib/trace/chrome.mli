(** Chrome [trace_event] export of a trace sink.

    {!to_string} produces the JSON-object format loadable in
    chrome://tracing and Perfetto: paired spans as complete ["X"] events
    (duration bars per actor), instants as ["i"], counter samples and
    final counter values as ["C"]; timestamps are simulated microseconds. *)

val to_string : Trace.Sink.t -> string
val to_file : Trace.Sink.t -> string -> unit
