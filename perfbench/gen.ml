(* Seeded input generation.  Everything a workload feeds the system is
   drawn here from the run's seed, before set-up starts, so the same seed
   always yields the same inputs and the timed regions never pay for
   making them. *)

module Schnorr = Repro_crypto.Schnorr
module Types = Repro_chopchop.Types

let rng seed = Random.State.make [| seed; 0x5eed |]

(* An 8-byte payload: the message's index within its sender in the first
   two hex digits, so consecutive payloads of one client always differ,
   then six seeded hex digits. *)
let payload st ~index =
  Printf.sprintf "%02x%06x" (index land 0xff)
    (Random.State.bits st land 0xffffff)

let payloads st ~clients ~per_client =
  Array.init clients (fun _ ->
      Array.init per_client (fun k -> payload st ~index:k))

type submission = {
  s_id : Types.client_id;
  s_msg : Types.message;
  s_sig : Schnorr.signature; (* over [Types.message_statement ~seq:0] *)
}

(* Pre-signed first messages of fresh dense identities [first_id, ...).
   Keys come from [Types.keypair_of_seed], not the directory's
   process-wide keypair cache, which the timed run must fill itself. *)
let signed_submissions st ~first_id ~count =
  Array.init count (fun i ->
      let id = first_id + i in
      let msg = payload st ~index:i in
      let kp = Types.keypair_of_seed (Types.dense_seed id) in
      { s_id = id; s_msg = msg;
        s_sig =
          Schnorr.sign kp.Types.sig_sk (Types.message_statement ~id ~seq:0 msg)
      })
