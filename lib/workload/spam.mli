(** Adversarial client traffic against broker intake.

    Open-loop floods injected through a raw network node
    ({!Repro_chopchop.Deployment.add_injector}), bypassing the honest
    client state machine: a {e sybil} flood under identities the
    directory never issued (shed as "reject_unknown") and a {e greedy}
    flood from valid identities submitting far faster than an honest
    client (properly signed: each broker pools one submission per client
    per flush, the highest sequence number, and orders it). *)

type t

val sent : t -> int
(** Submissions injected so far. *)

val start_greedy :
  deployment:Repro_chopchop.Deployment.t ->
  rng:Repro_sim.Rng.t ->
  rate:float ->
  first_id:int ->
  clients:int ->
  ?broker:int ->
  ?until:float ->
  unit ->
  t
(** Aggregate [rate] submissions/s round-robined over [clients] dense
    identities starting at [first_id] and over all brokers — or aimed
    entirely at [broker] when given (a hot-shard flood). *)

val start_sybil :
  deployment:Repro_chopchop.Deployment.t ->
  rng:Repro_sim.Rng.t ->
  rate:float ->
  first_fake_id:int ->
  ?until:float ->
  unit ->
  t
(** [rate] submissions/s under ever-fresh unknown identities starting at
    [first_fake_id] (must exceed the directory size). *)
