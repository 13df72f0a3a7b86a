(** Server Total-Order Broadcast (STOB, Appx. B.1 of the paper): the one
    handle through which every caller runs an ordering replica.

    Chop Chop is agnostic to the underlying Atomic Broadcast run among the
    servers: brokers submit batch references to it, and its agreement and
    total-order properties carry Chop Chop's own agreement (§4.4.1).  This
    module is the only place that knows which protocol fills that black
    box; the three underlays are pure state machines over callbacks:
    [send] injects a protocol message into the caller's network (which
    computes delays from the byte size), and [deliver] hands a totally
    ordered payload up.  All of them tolerate [f = (n-1)/3] faults
    ({!Repro_sim.Tally.quorum_f}). *)

type underlay =
  | Sequencer
      (** An idealised, fault-free sequencer (node 0) that isolates the
          Chop Chop layer in unit tests. *)
  | Pbft
      (** A PBFT-style three-phase protocol with leader batching and a
          crash-fault view change (the BFT-SMaRt stand-in).  Defaults:
          [batch_max = 400], [batch_timeout = 0.05] s, [max_outstanding]
          unbounded; view-change timeout 4 s. *)
  | Hotstuff
      (** Chained HotStuff with a 3-chain commit rule and a timeout
          pacemaker (the libhotstuff stand-in).  Defaults: [batch_max =
          400], [batch_timeout = 0.3] s; view timeout 2 s. *)

type 'p msg
(** The wire type of every underlay's protocol messages. *)

type 'p t

val create :
  underlay ->
  engine:Repro_sim.Engine.t ->
  self:int ->
  n:int ->
  ?cpu:Repro_sim.Cpu.t ->
  send:(dst:int -> bytes:int -> 'p msg -> unit) ->
  deliver:('p -> unit) ->
  payload_bytes:('p -> int) ->
  ?batch_max:int ->
  ?batch_timeout:float ->
  ?max_outstanding:int ->
  unit ->
  'p t
(** One replica per server; [self] in [0, n).  When [cpu] is given, the
    proposal hot path is completion-gated: an ordering/leader node
    serializes its outgoing proposal on that CPU (divisible work) and the
    broadcast departs only when the job completes on the sim clock.  The
    protocol logic itself stays un-modelled (black-box STOB, Appx. B.1);
    control-plane traffic (votes, view changes) is free.  [batch_max] and
    [batch_timeout] set the leader's batching (ignored by the sequencer);
    [max_outstanding] caps PBFT's concurrently running instances — 1
    reproduces BFT-SMaRt's sequential consensus executions (§6.3). *)

val broadcast : 'p t -> 'p -> unit
(** Submit a payload for total ordering (STOB [Broadcast]). *)

val receive : 'p t -> src:int -> 'p msg -> unit
(** Feed a protocol message from the network.
    @raise Invalid_argument on a message of another underlay. *)

val crash : 'p t -> unit
(** Stop participating (crash-stop); pending timers are cancelled. *)

val recover : 'p t -> unit
(** Undo {!crash}: the replica rejoins from its in-memory state.
    Messages missed while down are never replayed (the sequencer sends
    each slot once; PBFT and HotStuff do not retransmit), so the replica
    may stall at its delivery gap — a correct prefix, not live. *)

val cursor : 'p t -> int
(** The next position this replica would deliver: slot (sequencer),
    sequence number (PBFT), or one past the last committed block height
    (HotStuff). *)

val resume_at : 'p t -> cursor:int -> unit
(** Fast-forward delivery to [cursor] (no-op when not ahead), dropping
    whatever is buffered below it: the cold-restart path recovers those
    positions' payloads by state transfer (lib/store), not through the
    STOB, so they must never deliver a second time. *)

val delivered_count : 'p t -> int
(** Payloads handed up so far. *)
