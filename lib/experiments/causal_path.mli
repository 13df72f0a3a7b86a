(** Causal message-path reconstruction: one broadcast's
    client → broker-reduction → witness → commit → deliver path as a hop
    tree, rebuilt from a trace.

    The client stamps each submission with a {!Repro_trace.Trace.Ctx}
    rooted at its per-message correlation key; the broker bumps the hop
    and emits an ["include"] instant linking that root to the proposal it
    folded the message into.  From the proposal onwards the protocol's
    own roots (reduction root, identity root) {e are} the batch-level
    trace context, so the remaining hops join on them.  The joins are
    built once per trace as an {!index}; {!Latency_breakdown} folds every
    delivery through the same index.

    Hop boundaries telescope: the per-hop latencies sum to exactly the
    end-to-end latency of the followed message ([chopchop trace --follow]
    cross-checks this and the test suite asserts it within 5%). *)

module Trace = Repro_trace.Trace

type hop = {
  h_phase : string;  (** submission/distillation/witnessing/ordering/delivery *)
  h_start : float;
  h_finish : float;
  h_actor : int;  (** the actor that completed the hop *)
  h_hop : int;  (** causal hop counter (propagated for the first hops) *)
  h_detail : string;
}

type t = {
  p_key : int;  (** followed message's correlation key *)
  p_client : int;  (** client trace actor *)
  p_seq : int option;
  p_proposal : int;  (** reduction-root key of the carrying proposal *)
  p_batch : int;  (** identity-root key of the carrying batch *)
  p_send : float;
  p_deliver : float;
  p_hops : hop list;  (** pipeline order *)
  p_ctx_verified : bool;
      (** the broker's ["include"] hop, keyed by the propagated context,
          named exactly the proposal the delivery certificate points back
          to *)
}

val phases : string list
(** The five pipeline phases, in order: submission, distillation,
    witnessing, ordering, delivery. *)

type index
(** One pass over a trace's events (spans paired once): per message key
    the first client ["send"], the first ["deliver"] and the broker
    ["include"] hops; per batch the first broker ["launch"] with its
    reduction key, the first ["witness"] span and the earliest server
    ["ordered"]; per proposal the first ["distill"] span. *)

val index : Trace.event list -> index

val candidates : index -> int list
(** Correlation keys of delivered measurement-client messages, in
    delivery order (deduplicated) — valid inputs to {!follow}. *)

val deliveries : index -> t option list
(** The path behind every client ["deliver"] instant, in event order;
    [None] where some stage is missing. *)

val follow : index -> key:int -> t option
(** [None] when the message was never delivered or some stage is missing
    from the trace (e.g. a ring sink dropped it). *)

val first : index -> t option
(** The first candidate that reconstructs fully (["--follow auto"]). *)

val e2e : t -> float
val hop_sum : t -> float

val pp : Format.formatter -> t -> unit
(** The hop tree, one indented branch per hop, with per-hop latencies and
    the telescoping check line. *)
