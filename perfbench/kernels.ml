(* Crypto and batch-verification kernels, timed on inputs shaped like one
   workload's: the per-message leaf and statements, the workload's batch
   size, its server count.  Run after the traced simulation, so they never
   disturb it. *)

module Sha256 = Repro_crypto.Sha256
module Schnorr = Repro_crypto.Schnorr
module Multisig = Repro_crypto.Multisig
module Merkle = Repro_crypto.Merkle
module Types = Repro_chopchop.Types
module Batch = Repro_chopchop.Batch
module Certs = Repro_chopchop.Certs
module Directory = Repro_chopchop.Directory
module Clock = Repro_prof.Prof.Clock

(* Median seconds per call over seven rounds of about 10 ms each; the
   calibrating call also warms any cache the kernel fills. *)
let time f =
  let t0 = Clock.now () in
  ignore (Sys.opaque_identity (f ()));
  let once = Float.max 1e-7 (Clock.now () -. t0) in
  let reps = max 1 (int_of_float (0.01 /. once)) in
  let rounds =
    Array.init 7 (fun _ ->
        let t0 = Clock.now () in
        for _ = 1 to reps do
          ignore (Sys.opaque_identity (f ()))
        done;
        (Clock.now () -. t0) /. float_of_int reps)
  in
  Array.sort Float.compare rounds;
  rounds.(3)

type shape = {
  batch : int; (* entries per batch *)
  servers : int;
  first_id : int;
  kind : [ `Dense | `Classic | `Reduced ];
}

let keypair id = Types.keypair_of_seed (Types.dense_seed id)
let msg i = Printf.sprintf "%08x" i

let entries s =
  Array.init s.batch (fun i ->
      { Batch.e_id = s.first_id + i; e_msg = msg i })

let all_stragglers s =
  Batch.make_explicit ~broker:0 ~number:0 ~entries:(entries s) ~agg_seq:0
    ~agg_sig:None
    ~stragglers:
      (Array.map
         (fun e ->
           let id = e.Batch.e_id in
           { Batch.s_id = id; s_seq = 0;
             s_sig =
               Schnorr.sign (keypair id).Types.sig_sk
                 (Types.message_statement ~id ~seq:0 e.e_msg) })
         (entries s))

let fully_reduced s =
  let unsigned =
    Batch.make_explicit ~broker:0 ~number:0 ~entries:(entries s) ~agg_seq:0
      ~stragglers:[||] ~agg_sig:None
  in
  let statement = Types.reduction_statement ~root:(Batch.reduction_root unsigned) in
  let agg =
    Multisig.aggregate_signatures
      (Array.to_list
         (Array.map
            (fun e -> Multisig.sign (keypair e.Batch.e_id).Types.ms_sk statement)
            (entries s)))
  in
  { unsigned with Batch.agg_sig = Some agg }

(* A completion certificate signed by f+1 of [servers], under the keys the
   deployment derives for them. *)
let delivery_cert s =
  let keys =
    Array.init s.servers (fun i ->
        Multisig.keygen_deterministic ~seed:(Printf.sprintf "server-%d" i))
  in
  let quorum = ((s.servers - 1) / 3) + 1 in
  let root = Sha256.digest "perfbench-root" in
  let statement =
    Certs.completion_statement ~root ~counter:1
      ~exc_hash:(Certs.exceptions_hash [])
  in
  let qc =
    Certs.assemble
      (List.init quorum (fun i -> (i, Certs.sign_shard (fst keys.(i)) statement)))
  in
  ( { Certs.root; counter = 1; exceptions = []; qc },
    (fun j -> snd keys.(j)),
    quorum )

let measure s =
  let id = s.first_id in
  let kp = keypair id in
  let leaf = Batch.leaf ~id ~seq:0 (msg 0) in
  let statement = Types.message_statement ~id ~seq:0 (msg 0) in
  let tsig = Schnorr.sign kp.Types.sig_sk statement in
  let leaves = Array.map (fun e -> Batch.leaf ~id:e.Batch.e_id ~seq:0 e.e_msg) (entries s) in
  let tree = Merkle.build leaves in
  let proof = Merkle.prove tree (s.batch / 2) in
  let cert, pk, quorum = delivery_cert s in
  let dir = Directory.create ~dense_count:(s.first_id + s.batch) () in
  let batch =
    match s.kind with
    | `Dense ->
      Batch.forge_dense dir ~broker:0 ~number:0 ~first_id:s.first_id
        ~count:s.batch ~msg_bytes:8 ~tag:1 ~straggler_count:0
    | `Classic -> all_stragglers s
    | `Reduced -> fully_reduced s
  in
  let checked name ok = if not ok then failwith ("kernel input rejected: " ^ name) in
  checked "schnorr" (Schnorr.verify kp.Types.card.Types.sig_pk statement tsig);
  checked "merkle" (Merkle.verify (Merkle.root tree) ~leaf:leaves.(s.batch / 2) proof);
  checked "cert" (Certs.verify_delivery ~server_ms_pk:pk ~quorum cert);
  checked "batch" (Batch.verify dir batch);
  let us f = 1e6 *. time f in
  [ ("crypto.sha256_us", us (fun () -> Sha256.digest leaf));
    ("crypto.schnorr_sign_us", us (fun () -> Schnorr.sign kp.Types.sig_sk statement));
    ("crypto.schnorr_verify_us",
     us (fun () -> Schnorr.verify kp.Types.card.Types.sig_pk statement tsig));
    ("crypto.multisig_sign_us", us (fun () -> Multisig.sign kp.Types.ms_sk statement));
    ("crypto.merkle_build_ms", 1e3 *. time (fun () -> Merkle.build leaves));
    ("crypto.merkle_verify_us",
     us (fun () -> Merkle.verify (Merkle.root tree) ~leaf:leaves.(s.batch / 2) proof));
    ("client.cert_verify_us",
     us (fun () -> Certs.verify_delivery ~server_ms_pk:pk ~quorum cert));
    ("batch.verify_ms", 1e3 *. time (fun () -> Batch.verify dir batch)) ]
