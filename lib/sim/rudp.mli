(** Reliable-UDP transport (§5.1 "Reliable UDP").

    The paper's broker cannot hold hundreds of thousands of TCP
    connections, so client↔broker traffic runs over UDP with an in-house,
    ACK-based retransmission layer that also smooths the outgoing packet
    rate.  This module reproduces that layer over the network model's
    lossy channel ({!Net.send_lossy}):

    - the {e sender} assigns sequence numbers, keeps a bounded in-flight
      window (rate smoothing: excess messages queue), and arms one
      cancellable {!Engine.timer} per outstanding packet (0.4 s); the ACK
      cancels it, so a timeout that fires always retransmits (or gives up).
      The window is an {!Int_table} from sequence number to timer, read
      once per ACK; a message sent while nothing waits and the window has
      room goes out at once, without passing through the queue;
    - the {e receiver} acknowledges every data packet and suppresses
      duplicate deliveries with an unbounded {!Lwm}: a low-water mark
      (every sequence number below it was received) plus the set of
      sequence numbers received above it.  In-order traffic keeps that set empty, so the receiver's
      state does not grow with the packets it has seen.  A sequence
      number the sender gave up on leaves a permanent gap: the mark stops
      there and the set grows with everything received after it.

    Delivery is at-most-once per sequence number and unordered — exactly
    what the Chop Chop state machines tolerate (submissions, reductions
    and inclusions are all idempotent or deduplicated one level up).

    The module keeps no tallies of its own: retransmissions and abandoned
    messages are the engine trace sink's [rudp.retransmissions] and
    [rudp.gave_up] counters, and each retransmission timer is an engine
    event of kind [rudp.retx]. *)

type 'a packet =
  | Data of { seq : int; payload : 'a; bytes : int }
  | Ack of { seq : int }

val packet_bytes : 'a packet -> int
(** Wire size: payload bytes + 12 B of UDP/rudp header for data, 20 B for
    an ACK. *)

val ack_wire : int
(** Wire size of a bare ACK (20 B). *)

val window : int
(** In-flight messages per sender: 64. *)

val max_retries : int
(** Retransmissions before a message is abandoned: 25.  The higher-level
    protocol's own broker-rotation timeouts take over from there. *)

type 'a sender

val sender : engine:Engine.t -> transmit:('a packet -> unit) -> 'a sender
(** [transmit] injects a packet into the (lossy) channel. *)

val send : 'a sender -> bytes:int -> 'a -> unit
(** Queue a message for reliable delivery. *)

val sender_on_ack : 'a sender -> int -> unit
(** Feed an ACK received from the peer: cancels that packet's timeout. *)

val in_flight : 'a sender -> int
val queued : 'a sender -> int

type 'a receiver

val receiver : deliver:('a -> unit) -> send_ack:(int -> unit) -> 'a receiver

val receiver_on_data : 'a receiver -> 'a packet -> unit
(** Acknowledge and deliver (first copy only). *)
