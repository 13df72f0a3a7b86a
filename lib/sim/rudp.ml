type 'a packet =
  | Data of { seq : int; payload : 'a; bytes : int }
  | Ack of { seq : int }

let data_header = 12
let ack_bytes = 20

let packet_bytes = function
  | Data { bytes; _ } -> bytes + data_header
  | Ack _ -> ack_bytes

let ack_wire = ack_bytes

let rto = 0.4 (* retransmission timeout, s *)
let window = 64
let max_retries = 25

type 'a sender = {
  engine : Engine.t;
  transmit : 'a packet -> unit;
  mutable next_seq : int;
  flight : (int, Engine.timer) Hashtbl.t; (* seq -> its pending timeout *)
  backlog : (int * 'a) Queue.t; (* (bytes, payload) waiting for a window slot *)
  k_retx : int option; (* Engine kind of retransmissions, built once *)
  c_retx : Repro_trace.Trace.Counter.t;
  c_gave_up : Repro_trace.Trace.Counter.t;
}

let sender ~engine ~transmit =
  let sink = Engine.trace engine in
  { engine; transmit; next_seq = 0; flight = Hashtbl.create 1;
    backlog = Queue.create ();
    k_retx = Some (Engine.kind engine "rudp.retx");
    c_retx = Repro_trace.Trace.Sink.counter sink ~cat:"rudp" ~name:"retransmissions";
    c_gave_up = Repro_trace.Trace.Sink.counter sink ~cat:"rudp" ~name:"gave_up" }

let in_flight t = Hashtbl.length t.flight
let queued t = Queue.length t.backlog

(* Send one copy and arm its timeout.  The ACK cancels the timer, so a
   timer that fires always finds its packet unacknowledged. *)
let rec transmit t ~seq ~bytes payload ~retries =
  t.transmit (Data { seq; payload; bytes });
  Hashtbl.replace t.flight seq
    (Engine.timer ?kind:t.k_retx t.engine ~delay:rto (fun () ->
         if retries >= max_retries then begin
           (* Give up: the peer is unreachable; higher-level timeouts
              (broker rotation) own recovery from here. *)
           Hashtbl.remove t.flight seq;
           Repro_trace.Trace.Counter.incr t.c_gave_up;
           pump t
         end
         else begin
           Repro_trace.Trace.Counter.incr t.c_retx;
           transmit t ~seq ~bytes payload ~retries:(retries + 1)
         end))

and pump t =
  while Hashtbl.length t.flight < window && not (Queue.is_empty t.backlog) do
    let bytes, payload = Queue.pop t.backlog in
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    transmit t ~seq ~bytes payload ~retries:0
  done

let send t ~bytes payload =
  Queue.add (bytes, payload) t.backlog;
  pump t

let sender_on_ack t seq =
  match Hashtbl.find_opt t.flight seq with
  | Some timer ->
    Engine.cancel timer;
    Hashtbl.remove t.flight seq;
    pump t
  | None -> ()

type 'a receiver = {
  deliver : 'a -> unit;
  send_ack : int -> unit;
  seen : Lwm.t; (* sequence numbers received *)
}

let receiver ~deliver ~send_ack = { deliver; send_ack; seen = Lwm.create () }

let receiver_on_data t = function
  | Ack _ -> ()
  | Data { seq; payload; bytes = _ } ->
    (* Always re-ACK: the previous ACK may have been the lost packet. *)
    t.send_ack seq;
    if Lwm.add t.seen seq then t.deliver payload
