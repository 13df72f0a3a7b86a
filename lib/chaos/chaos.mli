(** Chaos harness: scheduled Byzantine and network fault injection with
    safety and liveness invariant checking.

    The paper's trust model (§4.3–§4.4) makes three falsifiable claims:
    servers tolerate f Byzantine failures out of n = 3f+1; brokers are
    {e entirely} untrusted — a Byzantine broker can delay messages but
    never forge, duplicate or reorder them; and clients make progress as
    long as one correct broker is reachable.  This module turns those
    claims into executable scenarios: a declarative timed {!schedule} of
    faults is injected into a {!Repro_chopchop.Deployment}, an
    {!Invariant} checker observes every server delivery, and each named
    {!scenario} reduces to a {!verdict}.

    Everything is deterministic: with the same seed and scale a scenario
    produces a bit-identical verdict and trace. *)

(** {1 Fault schedule} *)

type event =
  | Crash_server of int  (** server index *)
  | Recover_server of int
      (** warm un-crash; the server stays a prefix (no state transfer) *)
  | Restart_server of int
      (** cold restart: reload checkpoint + WAL from the simulated disk,
          then state-transfer the gap from live peers — requires a
          store-enabled deployment *)
  | Join_server of int
      (** spare slot joins through an ordered Reconfigure command,
          bootstrapping via cold-restart state transfer — requires a
          deployment with [spare_servers] *)
  | Leave_server of int
      (** slot leaves through an ordered Reconfigure command; the leaver
          tears itself down when the command reaches it in the order *)
  | Replace_server of int
      (** slot is replaced in place by a fresh identity: new multisig
          key, empty disk, generation bumped — requires a store-enabled
          deployment *)
  | Crash_broker of int  (** broker id *)
  | Recover_broker of int
  | Crash_client of int  (** index into the scenario's client array *)
  | Partition of int list list
      (** network groups of {e node ids}; unlisted nodes join group 0 *)
  | Heal  (** remove the partition *)
  | Set_link_loss of int * int * float
      (** [(src node, dst node, probability)], lossy traffic only *)
  | Degrade_link of int * int * float
      (** [(src node, dst node, extra seconds)] on all traffic *)
  | Byz_broker_equivocate of int
      (** conflicting batches for one (broker, number) slot *)
  | Byz_broker_garble of int  (** forged reduction multi-signatures *)
  | Byz_broker_malform of int  (** tampered client payloads *)
  | Byz_broker_withhold of int  (** delivery certificates never sent *)
  | Byz_server_bad_shares of int  (** garbage witness shards *)
  | Byz_server_refuse_witness of int  (** fail-silent witnessing *)
  | Byz_client_bad_share of int  (** garbage reduction shares *)
  | Byz_client_mute of int  (** never answers inclusion proofs *)

type schedule = (float * event) list
(** Events paired with absolute injection times (simulated seconds). *)

val describe : event -> string

val install :
  Repro_chopchop.Deployment.t ->
  clients:Repro_chopchop.Client.t array ->
  ?on_event:(event -> unit) ->
  ?after_event:(event -> unit) ->
  schedule ->
  unit
(** Arm every event on the deployment's engine.  Client-indexed events
    resolve against [clients].  Each injection emits a "chaos"/"inject"
    trace instant, so fault timing is visible in the same timeline as the
    protocol's reaction to it.  [on_event] (if given) runs just before
    each event is applied — the harness uses it to reset the invariant
    checker when a server cold-restarts or changes identity.
    [after_event] runs just after — the harness uses it to re-wire
    application hooks onto a freshly constructed replacement server. *)

(** {1 Invariant checking} *)

module Invariant : sig
  (** Continuous safety checking over the deployment's
      [server_deliver_hook], plus end-of-run validity.

      - {b Agreement}: all server delivery logs are prefixes of one total
        order (each append is compared against the longest log covering
        that position; transitive, so pairwise-vs-longest suffices).
      - {b Integrity / no-duplication}: no server delivers the same
        (client, message) twice.
      - {b Validity}: at the end of the run, every expected message was
        delivered by every correct server ({!check_validity}). *)

  type op = Op of int * string | Bulk of int * int * int

  type t

  val create : n_servers:int -> t

  val attach : t -> Repro_chopchop.Deployment.t -> unit
  (** Installs the deployment's [server_deliver_hook] (replacing any
      previous hook). *)

  val observe : t -> server:int -> Repro_chopchop.Proto.delivery -> unit
  (** Feed one delivery directly — lets tests violate invariants on
      purpose and watch the checker fire. *)

  val check_validity :
    t -> expected:(string * string) list -> correct_servers:int list -> unit
  (** [(label, payload)] pairs each correct server must have delivered. *)

  val violate : t -> string -> unit
  (** Record an externally detected violation (harness plumbing). *)

  val reset_server : t -> int -> unit
  (** Stop checking one server's delivery log.  A cold restart restores a
      checkpoint without re-delivering what it covers, then replays the
      tail through the same hook, so the log restarts at an offset this
      checker cannot align — and a replaced server is a {e fresh
      identity} whose log legitimately starts empty.  Reset servers are
      also excluded from {!check_validity}; scenarios assert end-state
      application digests instead. *)

  val muted : t -> int -> bool
  (** Whether {!reset_server} has excluded this server from checking. *)

  val violations : t -> string list
  (** Oldest first; empty means all invariants held. *)

  val ok : t -> bool
end

(** {1 Scenarios} *)

type scale = Quick | Full

val scale_of_string : string -> scale option
val scale_to_string : scale -> string

type verdict = {
  v_name : string;
  v_pass : bool;
  v_violations : string list;
  v_expected : int;  (** client broadcasts that must complete *)
  v_completed : int;  (** client broadcasts that did complete *)
  v_delivered : int array;  (** per-server delivered message counts *)
  v_rejections : (string * int) list;
      (** "reject_*" / "dup_ref" / "dup_submit" trace instants observed,
          by name — the correct nodes catching the injected misbehavior
          in the act *)
  v_diagnosis : Repro_prof.Doctor.diagnosis option;
      (** doctor post-mortem: present iff the run stalled (the in-run
          watchdog fired), completed fewer broadcasts than expected, or
          violated an invariant — the structured answer to "why did this
          chaos run fail" ([chopchop doctor]) *)
}

val pp_verdict : Format.formatter -> verdict -> unit
(** Includes the doctor diagnosis when one is attached. *)

type scenario = {
  sc_name : string;
  sc_summary : string;
  sc_run : ?until:float -> seed:int64 -> scale:scale -> unit -> verdict;
      (** [until] kills the run at that sim time without scaling down the
          expectations — the hook [chopchop doctor --kill-at] uses to
          force a post-mortem on a scenario cut short of delivery *)
}

val scenarios : scenario list
(** fig11a-crash, broker-equivocation, broker-garble, broker-withhold,
    server-bad-shares, partition-heal, lossy-wan, kitchen-sink,
    crash-cold-restart, lagging-restart, checkpoint-partition,
    reconfig-join, reconfig-leave, reconfig-replace, rolling-upgrade,
    flash-crowd, spam-sybil, reconfig-kitchen-sink.

    crash-cold-restart, lagging-restart and checkpoint-partition exercise
    the durable store: a crashed (or lagging) server cold restarts from
    its simulated disk and state-transfers the rest from peers, ending
    with an app digest identical to a never-crashed replica's.

    The reconfig-* family drives membership as an ordered command —
    joins, leaves, in-place replacement, rolling upgrades — while
    flash-crowd and spam-sybil stress broker intake under client surges
    and adversarial floods: the sybil flood is shed as "reject_unknown",
    and the greedy flood is ordered at one pool slot per client per
    flush.  reconfig-kitchen-sink combines all of it in one run. *)

val find : string -> scenario option

val diagnostics : scenario list
(** Deliberately-failing diagnostic scenarios (currently
    [stall-partition]: servers cut from brokers at t = 10 s, never
    healed).  Kept out of {!scenarios} so [chaos all], sweeps and CI stay
    green; resolvable via {!find_any} for [chopchop doctor] demos and the
    doctor pin in test/pins. *)

val find_any : string -> scenario option
(** {!find}, but also searching {!diagnostics}. *)

val run_all : seed:int64 -> scale:scale -> verdict list
