(** Chained HotStuff — the libhotstuff stand-in.

    Rotating leaders, one block per view, quorum certificates formed from
    [n - f] votes, and the 3-chain commit rule: a block is committed when
    it heads three blocks of consecutive views each certified by a QC.
    A timeout pacemaker advances stuck views with NewView messages
    carrying the sender's highest QC.

    The internal batching behaviour reproduces the latency artefact the
    paper observes (§6.3): a leader proposes as soon as its pool reaches
    [batch_max] but otherwise waits [batch_timeout], so HotStuff's latency
    {e decreases} under load — buffers fill before the timeout fires.

    Like {!Pbft}, crash faults are modelled; Byzantine equivocation of the
    underlying ordering layer is out of scope (per the paper's modular
    architecture, §4.1). *)

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
  unit ->
  'p t
(** Defaults: [batch_max = 400], [batch_timeout = 0.3] s,
    [view_timeout = 2.] s. *)

val broadcast : 'p t -> 'p -> unit
val receive : 'p t -> src:int -> 'p msg -> unit
val crash : 'p t -> unit

val recover : 'p t -> unit
(** Undo {!crash}; same caveats as {!Pbft.recover}. *)

val cursor : 'p t -> int
(** One past the last committed block height. *)

val resume_at : 'p t -> cursor:int -> unit
(** Raise the committed height to [cursor - 1] (no-op when not ahead):
    cold restart recovers the skipped heights' payloads via lib/store
    state transfer instead of the chain. *)

val delivered_count : 'p t -> int
