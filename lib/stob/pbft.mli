(** PBFT-style total-order broadcast — the BFT-SMaRt stand-in.

    Three-phase commit (pre-prepare / prepare / commit) with leader
    batching, plus a crash-fault view change: on a progress timeout the
    replicas move to the next view, carry over prepared slots, and
    re-submit their own undelivered payloads to the new leader.  Payloads
    are tagged with origin-unique request ids so re-proposals cannot be
    delivered twice (STOB no-duplication).

    The message pattern and latency profile match what the evaluation
    relies on: O(n²) message complexity, ~2.5 cross-continent one-way
    delays per decision, and batches of up to [batch_max] payloads
    (BFT-SMaRt's baseline configuration uses 400-message batches, §6.1).

    Byzantine {e leader equivocation} is not modelled — the paper's own
    evaluation treats the underlying Atomic Broadcast as a correct,
    production-ready black box (§4: "Chop Chop inherits the network
    requirements of its underlying Atomic Broadcast"); crash faults, which
    Fig. 11a exercises, are. *)

type 'p t
type 'p msg

val create :
  engine:Repro_sim.Engine.t ->
  self:int ->
  n:int ->
  ?cpu:Repro_sim.Cpu.t ->
  send:(dst:int -> bytes:int -> 'p msg -> unit) ->
  deliver:('p -> unit) ->
  payload_bytes:('p -> int) ->
  ?batch_max:int ->
  ?batch_timeout:float ->
  ?view_timeout:float ->
  ?max_outstanding:int ->
  unit ->
  'p t
(** Defaults: [batch_max = 400], [batch_timeout = 0.05] s,
    [view_timeout = 4.] s.  [max_outstanding] caps concurrently running
    instances; 1 reproduces BFT-SMaRt's sequential consensus executions,
    which is what bounds its standalone WAN throughput to roughly
    batch-size / RTT (§6.3). *)

val broadcast : 'p t -> 'p -> unit
val receive : 'p t -> src:int -> 'p msg -> unit
val crash : 'p t -> unit

val recover : 'p t -> unit
(** Undo {!crash}: the replica rejoins the protocol from its current
    state.  Consensus messages missed while down are not replayed, so the
    replica may stall at its delivery gap — safe (prefix), not live. *)

val cursor : 'p t -> int
(** Next sequence number this replica would deliver. *)

val resume_at : 'p t -> cursor:int -> unit
(** Fast-forward delivery to [cursor] (no-op when not ahead), discarding
    slots below it — used by cold restart after their payloads were
    recovered through lib/store state transfer. *)

val delivered_count : 'p t -> int

val view : 'p t -> int
(** Current view (diagnostics; grows when view changes fire). *)
