(* Adversarial client traffic against broker intake.

   Two attack shapes, both injected through a raw network presence
   ({!Repro_chopchop.Deployment.add_injector}) so they bypass the honest
   client state machine entirely:

   - a {e sybil} flood of submissions under identities the directory never
     issued — screened out at intake ("reject_unknown" instants) before
     any signature or pool work;
   - a {e greedy} flood from valid dense identities submitting far faster
     than an honest client — correctly signed, so it flows through the
     normal pipeline; each broker pools one submission per client per
     flush (the highest sequence number), so the flood costs one batch
     entry per identity per flush, and what is pooled is ordered.

   Both floods are open-loop: they never look at replies, like a real
   packet blaster.  Rates are per-flood aggregates, spread round-robin
   over the flood's identity set and the deployment's brokers. *)

module Deployment = Repro_chopchop.Deployment
module Directory = Repro_chopchop.Directory
module Proto = Repro_chopchop.Proto
module Types = Repro_chopchop.Types
module Wire = Repro_chopchop.Wire
module Engine = Repro_sim.Engine
module Rng = Repro_sim.Rng
module Schnorr = Repro_crypto.Schnorr
module Trace = Repro_trace.Trace

type t = {
  mutable sent : int; (* submissions injected so far *)
}

let sent t = t.sent

(* Valid-identity flood: [clients] dense ids starting at [first_id], each
   message properly signed so the flood is indistinguishable from a
   legitimate (if voracious) client's traffic. *)
let start_greedy ~deployment ~rng ~rate ~first_id ~clients ?broker ?until () =
  let engine = Deployment.engine deployment in
  let inject = Deployment.add_injector deployment () in
  let n_brokers = Deployment.n_brokers deployment in
  let dir_clients =
    max (Deployment.config deployment).Deployment.dense_clients 1024
  in
  let seqs = Array.make clients 0 in
  let t = { sent = 0 } in
  let cursor = ref 0 in
  Generators.drive ~engine ~rng ~arrival:(Generators.Poisson { rate }) ?until
    ~fire:(fun () ->
      let k = !cursor in
      cursor := (k + 1) mod clients;
      let id = first_id + k in
      let seq = seqs.(k) in
      seqs.(k) <- seq + 1;
      let msg = Printf.sprintf "spam:%d:%d" id seq in
      let kp = Directory.dense_keypair (Deployment.directory deployment) id in
      let tsig =
        Schnorr.sign kp.Types.sig_sk (Types.message_statement ~id ~seq msg)
      in
      let ctx = Trace.Ctx.make ~root:0 in
      let target =
        match broker with Some b -> b | None -> t.sent mod n_brokers
      in
      inject ~broker:target
        ~bytes:
          (Wire.submission_bytes ~clients:dir_clients
             ~msg_bytes:(String.length msg))
        (Proto.Submission { id; seq; msg; tsig; evidence = None; ctx });
      t.sent <- t.sent + 1)
    ();
  t

(* Sybil flood: identities beyond anything the directory issued, with
   garbage signatures — the broker must shed them before they cost
   anything (no directory entry, so no signature to even check). *)
let start_sybil ~deployment ~rng ~rate ~first_fake_id ?until () =
  let engine = Deployment.engine deployment in
  let inject = Deployment.add_injector deployment () in
  let n_brokers = Deployment.n_brokers deployment in
  let dir_clients =
    max (Deployment.config deployment).Deployment.dense_clients 1024
  in
  (* Any well-formed signature value does: the id fails the directory
     lookup before signature verification is ever attempted. *)
  let junk_kp = Directory.dense_keypair (Deployment.directory deployment) 0 in
  let junk_sig = Schnorr.sign junk_kp.Types.sig_sk "sybil" in
  let t = { sent = 0 } in
  Generators.drive ~engine ~rng ~arrival:(Generators.Poisson { rate }) ?until
    ~fire:(fun () ->
      let id = first_fake_id + t.sent in
      let msg = "sybil" in
      inject ~broker:(t.sent mod n_brokers)
        ~bytes:
          (Wire.submission_bytes ~clients:dir_clients
             ~msg_bytes:(String.length msg))
        (Proto.Submission
           { id; seq = 0; msg; tsig = junk_sig; evidence = None;
             ctx = Trace.Ctx.make ~root:0 });
      t.sent <- t.sent + 1)
    ();
  t
