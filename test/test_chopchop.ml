(* Tests for the Chop Chop core: wire arithmetic, the Rank directory,
   quorum certificates, distilled batches (explicit and dense), and the
   full client/broker/server protocol including its Byzantine cases:
   forged batches, replay attempts, illegitimate sequence numbers,
   stragglers, garbage collection and crash faults. *)

open Repro_chopchop
module Schnorr = Repro_crypto.Schnorr
module Multisig = Repro_crypto.Multisig
module Merkle = Repro_crypto.Merkle
module Cpu = Repro_sim.Cpu
module Cost = Repro_sim.Cost
module Trace = Repro_trace.Trace

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* Dense identities outside any deployment: one shared population. *)
let dense_kp =
  let pop = Directory.create () in
  Directory.dense_keypair pop

(* --- Wire ------------------------------------------------------------- *)

let test_wire_paper_numbers () =
  checki "classic payload is 112 B for 8 B messages" 112
    (Wire.classic_payload_bytes ~msg_bytes:8);
  checki "28 bits identify 257M clients" 28 (Wire.id_bits ~clients:257_000_000);
  checkb "distilled entry is 11.5 B" true
    (abs_float (Wire.distilled_entry_bytes ~clients:257_000_000 ~msg_bytes:8 -. 11.5)
     < 1e-9);
  let classic = Wire.classic_batch_bytes ~count:65_536 ~msg_bytes:8 in
  checki "classic batch is exactly 7 MB" (65_536 * 112) classic;
  let distilled =
    Wire.distilled_batch_bytes ~clients:257_000_000 ~count:65_536 ~msg_bytes:8
      ~stragglers:0
  in
  checkb "fully distilled batch ~736 KB" true
    (distilled > 700_000 && distilled < 780_000);
  checkb "distillation shrinks ~9.7x" true
    (let ratio = float_of_int classic /. float_of_int distilled in
     ratio > 9.0 && ratio < 10.5)

let test_wire_stragglers_cost () =
  let d s =
    Wire.distilled_batch_bytes ~clients:1_000_000 ~count:1000 ~msg_bytes:8
      ~stragglers:s
  in
  checkb "stragglers add seq+sig bytes" true (d 100 - d 0 = 100 * (8 + 64));
  checkb "all-straggler approaches classic size" true
    (d 1000 > Wire.classic_batch_bytes ~count:1000 ~msg_bytes:8 / 2)

let suite_wire_props =
  [ qtest "distilled always smaller than classic for small messages"
      QCheck.(pair (int_range 1 100_000) (int_range 1 64))
      (fun (count, msg_bytes) ->
        Wire.distilled_batch_bytes ~clients:257_000_000 ~count ~msg_bytes ~stragglers:0
        < Wire.classic_batch_bytes ~count ~msg_bytes + 300);
    qtest "id_bits monotone" QCheck.(int_range 2 1_000_000_000) (fun c ->
        Wire.id_bits ~clients:c <= Wire.id_bits ~clients:(2 * c)) ]

(* --- Directory ---------------------------------------------------------- *)

let test_directory_ranks () =
  let d = Directory.create () in
  let kp i = (Types.keypair_of_seed ("c" ^ string_of_int i)).card in
  checki "first id 0" 0 (Directory.append d (kp 0));
  checki "second id 1" 1 (Directory.append d (kp 1));
  checki "size" 2 (Directory.size d);
  checkb "find returns the card" true (Directory.find d 1 = Some (kp 1));
  checkb "unknown id" true (Directory.find d 2 = None);
  checkb "negative id" true (Directory.find d (-1) = None)

let test_directory_dense () =
  let d = Directory.create ~dense_count:1000 () in
  checki "dense ids pre-provisioned" 1000 (Directory.size d);
  checkb "dense card deterministic" true
    (Directory.find d 42 = Some (Directory.dense_keypair d 42).card);
  checki "explicit appended after the dense range" 1000
    (Directory.append d (Types.keypair_of_seed "x").card)

(* The pure derivation and the directory's memo give the same identity,
   the first and the last of the paper's 257 M ids included. *)
let test_directory_dense_keypair_pure () =
  let d = Directory.create ~dense_count:257_000_000 () in
  List.iter
    (fun i ->
      checkb (Printf.sprintf "dense keypair %d" i) true
        (Types.dense_keypair i = Directory.dense_keypair d i
        && Types.dense_keypair i = Types.keypair_of_seed (Types.dense_seed i)))
    [ 0; 1; 42; 65_535; 65_536; 1_000_003; 256_999_999 ]

let test_directory_range_aggregation () =
  let d = Directory.create ~dense_count:500 () in
  let range_agg = Directory.aggregate_ms_pks_range d ~first:100 ~count:50 in
  let list_agg = Directory.aggregate_ms_pks d (List.init 50 (fun i -> 100 + i)) in
  checkb "prefix-sum range = explicit aggregation" true
    (Repro_crypto.Field61.equal range_agg list_agg)

let test_directory_sk_range () =
  let d = Directory.create ~dense_count:200 () in
  let agg_sk = Directory.aggregate_dense_ms_sks_range d ~first:10 ~count:20 in
  let shares =
    List.init 20 (fun i -> Multisig.sign (Directory.dense_keypair d (10 + i)).ms_sk "stmt")
  in
  checkb "aggregated secret signs like the population" true
    (Multisig.signature_equal (Multisig.sign agg_sk "stmt")
       (Multisig.aggregate_signatures shares))

(* Both range aggregates equal the naive per-key sums, over random ranges
   of one population whose prefix memo grows in whatever order they come. *)
let test_directory_range_sums =
  let dense = 4096 in
  let d = Directory.create ~dense_count:dense () in
  qtest "range aggregates equal naive sums"
    QCheck.(pair (int_bound (dense - 1)) (int_bound 300))
    (fun (first, count) ->
      let count = min count (dense - first) in
      let keys = List.init count (fun i -> Directory.dense_keypair d (first + i)) in
      let naive_pk =
        Multisig.aggregate_public_keys (List.map (fun k -> k.Types.card.ms_pk) keys)
      in
      let naive_sk = Multisig.aggregate_secret_keys (List.map (fun k -> k.Types.ms_sk) keys) in
      Repro_crypto.Field61.equal naive_pk
        (Directory.aggregate_ms_pks_range d ~first ~count)
      && Multisig.signature_equal (Multisig.sign naive_sk "stmt")
           (Multisig.sign (Directory.aggregate_dense_ms_sks_range d ~first ~count) "stmt"))

let test_directory_range_bounds () =
  let d = Directory.create ~dense_count:10 () in
  Alcotest.check_raises "outside dense population"
    (Invalid_argument "Directory.aggregate_ms_pks_range: outside dense population")
    (fun () -> ignore (Directory.aggregate_ms_pks_range d ~first:5 ~count:10));
  Alcotest.check_raises "a range whose end overflows"
    (Invalid_argument "Directory.aggregate_ms_pks_range: outside dense population")
    (fun () -> ignore (Directory.aggregate_ms_pks_range d ~first:(max_int - 10) ~count:100))

(* --- Certs ------------------------------------------------------------------ *)

let server_keys n =
  Array.init n (fun i -> Multisig.keygen_deterministic ~seed:("srv" ^ string_of_int i))

let test_certs_quorum () =
  let keys = server_keys 4 in
  let stmt = Certs.witness_statement ~root:"r" ~broker:1 ~number:7 in
  let shards = List.init 2 (fun i -> (i, Certs.sign_shard (fst keys.(i)) stmt)) in
  let qc = Certs.assemble shards in
  let pk i = snd keys.(i) in
  checkb "f+1 distinct shards verify" true
    (Certs.verify ~statement:stmt ~server_ms_pk:pk ~capacity:4 ~quorum:2 qc);
  checkb "insufficient quorum rejected" false
    (Certs.verify ~statement:stmt ~server_ms_pk:pk ~capacity:4 ~quorum:3 qc);
  checkb "wrong statement rejected" false
    (Certs.verify
       ~statement:(Certs.witness_statement ~root:"r" ~broker:1 ~number:8)
       ~server_ms_pk:pk ~capacity:4 ~quorum:2 qc)

let test_certs_dedup_signers () =
  let keys = server_keys 4 in
  let stmt = "s" in
  let sh = Certs.sign_shard (fst keys.(0)) stmt in
  let qc = Certs.assemble [ (0, sh); (0, sh) ] in
  checki "duplicate signers collapse" 1 (List.length qc.Certs.signers)

let test_certs_forged_signer_list () =
  (* A Byzantine broker cannot claim signers that did not sign. *)
  let keys = server_keys 4 in
  let stmt = "s" in
  let qc = Certs.assemble [ (0, Certs.sign_shard (fst keys.(0)) stmt) ] in
  let forged = { qc with Certs.signers = [ 0; 1 ] } in
  checkb "padded signer list fails verification" false
    (Certs.verify ~statement:stmt ~server_ms_pk:(fun i -> snd keys.(i))
       ~capacity:4 ~quorum:2 forged)

let test_legitimizes () =
  checkb "seq 0 needs no evidence" true (Certs.legitimizes None 0);
  checkb "positive seq needs evidence" false (Certs.legitimizes None 5);
  let dc = { Certs.root = "r"; counter = 10; exceptions = []; qc = Certs.assemble [] } in
  checkb "counter > seq legitimizes" true (Certs.legitimizes (Some dc) 9);
  checkb "counter = seq legitimizes (paper's induction bound)" true
    (Certs.legitimizes (Some dc) 10);
  checkb "counter < seq does not" false (Certs.legitimizes (Some dc) 11)

(* The checker: a cached verdict is reused only on the same inputs. *)

let delivery_cert keys ~signers ~root ~counter =
  let statement =
    Certs.completion_statement ~root ~counter ~exc_hash:(Certs.exceptions_hash [])
  in
  { Certs.root; counter; exceptions = [];
    qc =
      Certs.assemble
        (List.map (fun i -> (i, Certs.sign_shard (fst keys.(i)) statement)) signers) }

let test_checker_inputs () =
  let keys = server_keys 4 in
  let c = Certs.checker ~capacity:4 ~server_ms_pk:(fun i -> snd keys.(i)) in
  let dc = delivery_cert keys ~signers:[ 0; 1 ] ~root:"r" ~counter:3 in
  checkb "valid" true (Certs.check_delivery c ~quorum:2 dc);
  checkb "valid again, from the memo" true (Certs.check_delivery c ~quorum:2 dc);
  checkb "another aggregate" false
    (Certs.check_delivery c ~quorum:2
       { dc with qc = { dc.qc with agg = Multisig.forge_garbage () } });
  checkb "another counter" false
    (Certs.check_delivery c ~quorum:2 { dc with counter = 4 });
  checkb "a higher quorum" false (Certs.check_delivery c ~quorum:3 dc);
  checkb "an equal copy" true (Certs.check_delivery c ~quorum:2 { dc with counter = 3 });
  let root = "w" and broker = 1 and number = 7 in
  let statement = Certs.witness_statement ~root ~broker ~number in
  let qc =
    Certs.assemble
      (List.map (fun i -> (i, Certs.sign_shard (fst keys.(i)) statement)) [ 2; 3 ])
  in
  let witness ?(root = root) ?(broker = broker) ?(number = number) () =
    Certs.check_witness c ~root ~broker ~number ~quorum:2 qc
  in
  (* Enough other statements that some share the valid one's hash bucket. *)
  for k = 1 to 300 do
    checkb "witness valid" true (witness ());
    checkb "witness under another number" false (witness ~number:(number + k) ());
    checkb "witness under another broker" false (witness ~broker:(broker + k) ());
    checkb "witness under another root" false (witness ~root:(root ^ string_of_int k) ())
  done

(* [Certs.well_formed] walks an ascending list once and sorts any other:
   its verdict against the sort-based rule, on ascending, shuffled,
   duplicated and out-of-range signer lists and quorums around their
   length. *)
let well_formed_reference ~capacity ~quorum signers =
  let distinct = List.sort_uniq Int.compare signers in
  List.length distinct = List.length signers
  && List.length distinct >= quorum
  && List.for_all (fun i -> i >= 0 && i < capacity) distinct

let well_formed_agrees =
  qtest ~count:1000 "well_formed matches the sort-based rule"
    QCheck.(
      triple (int_range 0 8) (int_range 0 10)
        (pair bool (list_of_size (Gen.int_range 0 9) (int_range (-2) 9))))
    (fun (capacity, quorum, (ascending, signers)) ->
      let signers = if ascending then List.sort_uniq Int.compare signers else signers in
      let qc = { Certs.signers; agg = Multisig.forge_garbage () } in
      Certs.well_formed ~capacity ~quorum qc
      = well_formed_reference ~capacity ~quorum signers)

(* A signer outside the key slots is rejected before any key is read. *)
let test_certs_out_of_range_signer () =
  let keys = server_keys 4 in
  let pk i = snd keys.(i) in
  let c = Certs.checker ~capacity:4 ~server_ms_pk:pk in
  let root = "w" and broker = 1 and number = 7 in
  let statement = Certs.witness_statement ~root ~broker ~number in
  let qc signers =
    Certs.assemble
      (List.mapi (fun k i -> (i, Certs.sign_shard (fst keys.(k)) statement)) signers)
  in
  checkb "signers [0; 1] verify" true
    (Certs.verify ~statement ~server_ms_pk:pk ~capacity:4 ~quorum:2 (qc [ 0; 1 ]));
  List.iter
    (fun signers ->
      let label = String.concat "; " (List.map string_of_int signers) in
      checkb ("verify rejects signers " ^ label) false
        (Certs.verify ~statement ~server_ms_pk:pk ~capacity:4 ~quorum:2 (qc signers));
      checkb ("check_witness rejects signers " ^ label) false
        (Certs.check_witness c ~root ~broker ~number ~quorum:2 (qc signers)))
    [ [ 0; 99 ]; [ -1; 0 ]; [ 0; 4 ] ];
  let dc = delivery_cert keys ~signers:[ 0; 1 ] ~root:"r" ~counter:3 in
  checkb "check_delivery rejects signers [0; 99]" false
    (Certs.check_delivery c ~quorum:2
       { dc with qc = { dc.qc with Certs.signers = [ 0; 99 ] } })

let test_checker_replaced_key () =
  let d =
    Deployment.create
      { Deployment.default_config with n_servers = 4; store_enabled = true }
  in
  (* The deployment's initial server keys. *)
  let keys =
    Array.init 4 (fun i ->
        Multisig.keygen_deterministic ~seed:(Printf.sprintf "server-%d" i))
  in
  let dc = delivery_cert keys ~signers:[ 0; 1 ] ~root:"r" ~counter:1 in
  let quorum = Membership.quorum (Deployment.membership d) in
  checkb "signed by the current keys" true
    (Certs.check_delivery (Deployment.certs d) ~quorum dc);
  Deployment.replace_server d 0;
  checkb "server 0's old key no longer counts" false
    (Certs.check_delivery (Deployment.certs d) ~quorum dc)

let test_checker_bounded () =
  let keys = server_keys 4 in
  let c = Certs.checker ~capacity:4 ~server_ms_pk:(fun i -> snd keys.(i)) in
  let dc = delivery_cert keys ~signers:[ 0; 1 ] ~root:"r" ~counter:1 in
  let forged = { dc with qc = { dc.qc with agg = Multisig.forge_garbage () } } in
  for counter = 1 to 4 * Certs.memo_bound do
    checkb "forgery rejected" false
      (Certs.check_delivery c ~quorum:2 { forged with counter })
  done;
  checki "the memo stays at its bound" Certs.memo_bound (Certs.memo_size c);
  checkb "a valid certificate still checks out" true
    (Certs.check_delivery c ~quorum:2 dc);
  checki "still at its bound" Certs.memo_bound (Certs.memo_size c)

(* --- Batch -------------------------------------------------------------------- *)

let mk_entries ids =
  Array.of_list (List.map (fun id -> { Batch.e_id = id; e_msg = Printf.sprintf "m%d" id }) ids)

let explicit_batch dir ~ids ~agg_seq ~straggler_ids =
  let entries = mk_entries ids in
  (* First build with the reducers' aggregate signature. *)
  let stragglers =
    Array.of_list
      (List.map
         (fun id ->
           let kp = dense_kp id in
           let msg = Printf.sprintf "m%d" id in
           { Batch.s_id = id; s_seq = 0;
             s_sig = Schnorr.sign kp.Types.sig_sk (Types.message_statement ~id ~seq:0 msg) })
         straggler_ids)
  in
  let skeleton =
    Batch.make_explicit ~broker:0 ~number:0 ~entries ~agg_seq ~stragglers ~agg_sig:None
  in
  let root = Batch.reduction_root skeleton in
  let reducers = List.filter (fun id -> not (List.mem id straggler_ids)) ids in
  let agg_sig =
    match reducers with
    | [] -> None
    | _ ->
      Some
        (Multisig.aggregate_signatures
           (List.map
              (fun id ->
                Multisig.sign (dense_kp id).ms_sk
                  (Types.reduction_statement ~root))
              reducers))
  in
  ignore dir;
  Batch.make_explicit ~broker:0 ~number:0 ~entries ~agg_seq ~stragglers ~agg_sig

let test_batch_explicit_verifies () =
  let dir = Directory.create ~dense_count:100 () in
  let b = explicit_batch dir ~ids:[ 1; 5; 9; 42 ] ~agg_seq:3 ~straggler_ids:[] in
  checkb "fully distilled verifies" true (Batch.verify dir b);
  checki "count" 4 (Batch.count b);
  checki "no stragglers" 0 (Batch.straggler_count b)

let test_batch_with_stragglers () =
  let dir = Directory.create ~dense_count:100 () in
  let b = explicit_batch dir ~ids:[ 1; 5; 9; 42 ] ~agg_seq:3 ~straggler_ids:[ 5; 42 ] in
  checkb "partially distilled verifies" true (Batch.verify dir b);
  checki "stragglers" 2 (Batch.straggler_count b);
  checki "reduced" 2 (Batch.reduced_count b);
  checkb "identity root differs from reduction root" false
    (Batch.identity_root b = Batch.reduction_root b)

let test_batch_all_stragglers () =
  let dir = Directory.create ~dense_count:100 () in
  let b = explicit_batch dir ~ids:[ 2; 3 ] ~agg_seq:1 ~straggler_ids:[ 2; 3 ] in
  checkb "classic (all-straggler) batch verifies" true (Batch.verify dir b)

let test_batch_rejects_unsorted () =
  Alcotest.check_raises "unsorted entries"
    (Invalid_argument "Batch.make_explicit: entries must be sorted strictly by id")
    (fun () ->
      ignore
        (Batch.make_explicit ~broker:0 ~number:0 ~entries:(mk_entries [ 5; 1 ])
           ~agg_seq:0 ~stragglers:[||] ~agg_sig:None));
  Alcotest.check_raises "duplicate ids"
    (Invalid_argument "Batch.make_explicit: entries must be sorted strictly by id")
    (fun () ->
      ignore
        (Batch.make_explicit ~broker:0 ~number:0 ~entries:(mk_entries [ 1; 1 ])
           ~agg_seq:0 ~stragglers:[||] ~agg_sig:None))

let test_batch_rejects_forgery () =
  let dir = Directory.create ~dense_count:100 () in
  let good = explicit_batch dir ~ids:[ 1; 5; 9 ] ~agg_seq:2 ~straggler_ids:[] in
  (* Garbage aggregate signature *)
  let bad1 = { good with Batch.agg_sig = Some (Multisig.forge_garbage ()) } in
  checkb "garbage aggregate rejected" false (Batch.verify dir bad1);
  (* Missing aggregate for reduced entries *)
  let bad2 = { good with Batch.agg_sig = None } in
  checkb "missing aggregate rejected" false (Batch.verify dir bad2);
  (* Tampered message: the aggregate no longer covers the root *)
  let entries = mk_entries [ 1; 5; 9 ] in
  entries.(1) <- { entries.(1) with Batch.e_msg = "EVIL" };
  let bad3 = { good with Batch.entries = Batch.Explicit entries } in
  checkb "tampered message rejected" false (Batch.verify dir bad3)

let test_batch_rejects_bad_straggler_sig () =
  let dir = Directory.create ~dense_count:100 () in
  let good = explicit_batch dir ~ids:[ 1; 5 ] ~agg_seq:2 ~straggler_ids:[ 5 ] in
  let bad_strag =
    Array.map (fun s -> { s with Batch.s_sig = Schnorr.forge_garbage () }) good.Batch.stragglers
  in
  let bad = { good with Batch.stragglers = bad_strag } in
  checkb "forged straggler signature rejected" false (Batch.verify dir bad)

let test_batch_dense_verifies () =
  let dir = Directory.create ~dense_count:10_000 () in
  let b =
    Batch.forge_dense dir ~broker:3 ~number:0 ~first_id:100 ~count:1000 ~msg_bytes:8
      ~tag:1 ~straggler_count:0
  in
  checkb "dense fully distilled verifies" true (Batch.verify dir b);
  let b2 =
    Batch.forge_dense dir ~broker:3 ~number:1 ~first_id:100 ~count:1000 ~msg_bytes:8
      ~tag:2 ~straggler_count:100
  in
  checkb "dense with stragglers verifies" true (Batch.verify dir b2);
  checki "dense straggler count" 100 (Batch.straggler_count b2);
  let b3 =
    Batch.forge_dense dir ~broker:3 ~number:2 ~first_id:0 ~count:500 ~msg_bytes:8
      ~tag:1 ~straggler_count:500
  in
  checkb "dense all-straggler verifies" true (Batch.verify dir b3)

let test_batch_dense_rejects () =
  let dir = Directory.create ~dense_count:1000 () in
  let b =
    Batch.forge_dense dir ~broker:0 ~number:0 ~first_id:0 ~count:100 ~msg_bytes:8
      ~tag:1 ~straggler_count:0
  in
  checkb "garbage aggregate rejected" false
    (Batch.verify dir { b with Batch.agg_sig = Some (Multisig.forge_garbage ()) });
  checkb "out-of-directory range rejected" false
    (Batch.verify dir
       { b with
         Batch.entries =
           (match b.Batch.entries with
            | Batch.Dense d -> Batch.Dense { d with Batch.first_id = 950 }
            | e -> e) })

let test_batch_dense_explicit_equivalence () =
  (* Ablation (DESIGN.md): the two representations describe the same
     batch; the explicit rebuild of a dense batch verifies too. *)
  let dir = Directory.create ~dense_count:1000 () in
  let dense =
    Batch.forge_dense dir ~broker:0 ~number:0 ~first_id:10 ~count:32 ~msg_bytes:8
      ~tag:4 ~straggler_count:0
  in
  checkb "dense verifies" true (Batch.verify dir dense);
  let d = match dense.Batch.entries with Batch.Dense d -> d | _ -> assert false in
  let entries =
    Array.init 32 (fun i ->
        let id = 10 + i in
        { Batch.e_id = id; e_msg = Batch.dense_message d id })
  in
  let skeleton =
    Batch.make_explicit ~broker:0 ~number:0 ~entries ~agg_seq:dense.Batch.agg_seq
      ~stragglers:[||] ~agg_sig:None
  in
  let root = Batch.reduction_root skeleton in
  let agg =
    Multisig.aggregate_signatures
      (List.init 32 (fun i ->
           Multisig.sign (dense_kp (10 + i)).ms_sk
             (Types.reduction_statement ~root)))
  in
  let explicit =
    Batch.make_explicit ~broker:0 ~number:0 ~entries ~agg_seq:dense.Batch.agg_seq
      ~stragglers:[||] ~agg_sig:(Some agg)
  in
  checkb "equivalent explicit verifies" true (Batch.verify dir explicit);
  checki "same count" (Batch.count dense) (Batch.count explicit);
  checkb "same wire size" true
    (Batch.wire_bytes ~clients:1000 dense = Batch.wire_bytes ~clients:1000 explicit)

let test_batch_costs_monotone () =
  let dir = Directory.create ~dense_count:200_000 () in
  let full =
    Batch.forge_dense dir ~broker:0 ~number:0 ~first_id:0 ~count:65_536 ~msg_bytes:8
      ~tag:1 ~straggler_count:0
  in
  let classic =
    Batch.forge_dense dir ~broker:0 ~number:1 ~first_id:0 ~count:65_536 ~msg_bytes:8
      ~tag:2 ~straggler_count:65_536
  in
  let witness b = Cpu.total (Batch.witness_cpu_work b) in
  checkb "classic witness cost ~28x distilled (paper §3.2)" true
    (let r = witness classic /. witness full in
     r > 20. && r < 35.);
  checkb "non-witness cheaper than witness" true
    (Cpu.total (Batch.delivery_cpu_work full) +. Cost.bls_verify
     < witness full)

let test_fallback_verify_cost () =
  (* Satellite bugfix: when batch verification fails, the broker falls
     back to n INDIVIDUAL verifications (§4.2), not a second batch pass.
     Pin the cost ratio so the fallback stays n * ed25519_verify. *)
  let n = 65_536 in
  let fallback = float_of_int n *. Cost.ed25519_verify in
  let batch = Cost.ed25519_batch_verify n in
  let r = fallback /. batch in
  checkb "individual fallback ~2.3x batch (64k sigs)" true (r > 2.0 && r < 2.7);
  (* Small flushes amortise worse: batching still wins but less. *)
  let r64 = (64. *. Cost.ed25519_verify) /. Cost.ed25519_batch_verify 64 in
  checkb "fallback dearer than batch at any size" true (r64 > 1.0)

let test_ceil_log2_boundaries () =
  let checki = Alcotest.check Alcotest.int in
  checki "1 -> 0" 0 (Cost.ceil_log2 1);
  checki "2 -> 1" 1 (Cost.ceil_log2 2);
  checki "3 -> 2" 2 (Cost.ceil_log2 3);
  checki "4 -> 2" 2 (Cost.ceil_log2 4);
  checki "5 -> 3" 3 (Cost.ceil_log2 5);
  checki "1024 -> 10" 10 (Cost.ceil_log2 1024);
  checki "1025 -> 11" 11 (Cost.ceil_log2 1025);
  checki "65536 -> 16" 16 (Cost.ceil_log2 65_536);
  (* Merkle proof depth at a power-of-two leaf count: exactly log2, no
     float off-by-one (the old float log was 17 hashes at 65,536). *)
  let depth leaves = Cost.merkle_verify_proof ~leaves /. Cost.hash_per_byte /. 64. in
  checkb "proof depth 16 at 64k leaves" true (abs_float (depth 65_536 -. 16.) < 1e-6);
  checkb "proof depth 10 at 1024 leaves" true (abs_float (depth 1024 -. 10.) < 1e-6)

(* --- delivery proofs ---------------------------------------------------------- *)

(* A lone client shown [inclusion] under the root of [tree] at sequence
   number 0, then a delivery certificate for that root, at [seq],
   carrying [delivery]: how many messages it completed. *)
let completed_after ?(seq = 0) ~tree ~inclusion ~delivery () =
  let keys = server_keys 4 in
  let engine = Repro_sim.Engine.create () in
  let c =
    Client.create ~engine
      ~config:
        { Client.brokers = [ 0 ]; clients = 1024 }
      ~keypair:(dense_kp 7)
      ~membership:(Membership.create ~capacity:4 ~initial:4)
      ~certs:(Certs.checker ~capacity:4 ~server_ms_pk:(fun i -> snd keys.(i)))
      ~send_broker:(fun ~broker:_ ~bytes:_ _ -> ())
      ()
  in
  Client.force_identity c 7;
  Client.broadcast c "m7";
  let root = Merkle.root tree in
  Client.receive c
    (Proto.Inclusion { root; proof = inclusion; agg_seq = 0; evidence = None });
  Client.receive c
    (Proto.Deliver_cert
       { cert = delivery_cert keys ~signers:[ 0; 1 ] ~root ~counter:1; seq;
         proof = Some delivery });
  Client.completed c

let test_delivery_proof_reuse () =
  let leaf = Batch.leaf ~id:7 ~seq:0 "m7" in
  (* The client's leaf twice: leaves 0 and 1 have different proofs, and
     both hold. *)
  let tree = Merkle.build [| leaf; leaf; "a"; "b" |] in
  let other = Merkle.build [| leaf; "c"; "a"; "b" |] in
  let completed ?seq delivery =
    completed_after ?seq ~tree ~inclusion:(Merkle.prove tree 0) ~delivery ()
  in
  checki "the inclusion proof again" 1 (completed (Merkle.prove tree 0));
  checki "another proof that holds" 1 (completed (Merkle.prove tree 1));
  checki "another leaf's proof" 0 (completed (Merkle.prove tree 2));
  checki "same position, another path" 0 (completed (Merkle.prove other 0));
  (* The certificate names sequence number 1, whose leaf is not in the
     tree: the inclusion's proof and root no longer vouch for it. *)
  checki "the inclusion proof at another seq" 0
    (completed ~seq:1 (Merkle.prove tree 0));
  (* ... while a tree holding the seq-1 leaf proves it. *)
  let both = Merkle.build [| leaf; Batch.leaf ~id:7 ~seq:1 "m7"; "a"; "b" |] in
  checki "a proof of the seq-1 leaf" 1
    (completed_after ~seq:1 ~tree:both ~inclusion:(Merkle.prove both 0)
       ~delivery:(Merkle.prove both 1) ())

(* One broker, four scripted servers and sixteen dense clients in two
   batches.  Client 2 straggles with a sequence number below its batch's,
   so the first batch's identity root is not its reduction root; clients
   5, 10 and 13 straggle at their batch's number, so the second batch's
   is. *)
let test_broker_delivery_proofs () =
  let keys = server_keys 4 in
  let engine = Repro_sim.Engine.create () in
  let later f = Repro_sim.Engine.schedule engine ~delay:0.01 f in
  let broker = ref None in
  let receive_client m = Broker.receive_client (Option.get !broker) m in
  let receive_server ~src m = Broker.receive_server (Option.get !broker) ~src m in
  let msg id = Printf.sprintf "m%d" id and seq id = if id = 2 then 1 else 3 in
  let included = Hashtbl.create 16 and delivered = ref [] in
  let send_client ~client ~bytes:_ = function
    | Proto.Inclusion { root; _ } ->
      Hashtbl.replace included client root;
      if client mod 8 <> 2 && client mod 8 <> 5 then
        later (fun () ->
            receive_client
              (Proto.Reduction
                 { id = client; root;
                   share =
                     Multisig.sign (dense_kp client).Types.ms_sk
                       (Types.reduction_statement ~root) }))
    | Proto.Deliver_cert { cert; seq; proof } ->
      delivered := (client, cert, seq, proof) :: !delivered
    | Proto.Signup_response _ -> ()
  in
  let counter = ref 0 in
  let send_server ~dst ~bytes:_ = function
    | Proto.Batch_announce { batch; witness_requested = true } ->
      let root = Batch.identity_root batch in
      let share =
        Certs.sign_shard (fst keys.(dst))
          (Certs.witness_statement ~root ~broker:batch.Batch.broker
             ~number:batch.Batch.number)
      in
      later (fun () -> receive_server ~src:dst (Proto.Witness_shard { root; share }))
    | Proto.Submit { root; _ } ->
      incr counter;
      let counter = !counter in
      let statement =
        Certs.completion_statement ~root ~counter ~exc_hash:(Certs.exceptions_hash [])
      in
      later (fun () ->
          receive_server ~src:dst (Proto.Submit_ack { root });
          Array.iteri
            (fun src (sk, _) ->
              receive_server ~src
                (Proto.Completion_shard
                   { root; counter; exceptions = [];
                     share = Certs.sign_shard sk statement }))
            keys)
    | Proto.Batch_announce _ | Proto.Witness_request _ | Proto.Relay_signup _ -> ()
  in
  broker :=
    Some
      (Broker.create ~engine ~cpu:(Cpu.create engine ~cores:4 ())
         ~config:(Broker.default_config ~n_servers:4 ~clients:16)
         ~directory:(Directory.create ~dense_count:16 ())
         ~certs:(Certs.checker ~capacity:4 ~server_ms_pk:(fun i -> snd keys.(i)))
         ~send_server ~send_client
         ~send_anon:(fun ~nonce:_ ~bytes:_ _ -> ())
         ~stob_signup:ignore ());
  Broker.start (Option.get !broker);
  (* Evidence legitimising sequence numbers up to 3. *)
  let evidence = Some (delivery_cert keys ~signers:[ 0; 1 ] ~root:"earlier" ~counter:3) in
  let submit ids =
    List.iter
      (fun id ->
        let seq = seq id and msg = msg id in
        receive_client
          (Proto.Submission
             { id; seq; msg;
               tsig =
                 Schnorr.sign (dense_kp id).Types.sig_sk
                   (Types.message_statement ~id ~seq msg);
               evidence; ctx = Trace.Ctx.make ~root:id }))
      ids
  in
  submit (List.init 8 Fun.id);
  Repro_sim.Engine.schedule engine ~delay:1.5 (fun () -> submit (List.init 8 (( + ) 8)));
  Repro_sim.Engine.run engine ~until:10.0;
  checki "one certificate per client" 16 (List.length !delivered);
  List.iter
    (fun (id, cert, s, proof) ->
      checki (Printf.sprintf "client %d: its own number" id) (seq id) s;
      checkb (Printf.sprintf "client %d: proof verifies" id) true
        (match proof with
         | Some proof ->
           Merkle.verify cert.Certs.root ~leaf:(Batch.leaf ~id ~seq:s (msg id)) proof
         | None -> false);
      checkb
        (Printf.sprintf "client %d: identity root is the reduction root" id)
        (id >= 8)
        (String.equal cert.Certs.root (Hashtbl.find included id)))
    !delivered

(* The pool keeps one submission per client: a higher sequence number
   replaces the pooled one, an equal or lower one is dropped, and nothing
   waits behind it for the next flush. *)
let test_broker_pools_highest_seq () =
  let keys = server_keys 4 in
  let engine = Repro_sim.Engine.create () in
  let inclusions = ref [] in
  let send_client ~client ~bytes:_ = function
    | Proto.Inclusion { root; proof; agg_seq; _ } ->
      inclusions := (client, root, proof, agg_seq) :: !inclusions
    | Proto.Deliver_cert _ | Proto.Signup_response _ -> ()
  in
  let broker =
    Broker.create ~engine ~cpu:(Cpu.create engine ~cores:4 ())
      ~config:(Broker.default_config ~n_servers:4 ~clients:16)
      ~directory:(Directory.create ~dense_count:16 ())
      ~certs:(Certs.checker ~capacity:4 ~server_ms_pk:(fun i -> snd keys.(i)))
      ~send_server:(fun ~dst:_ ~bytes:_ _ -> ()) ~send_client
      ~send_anon:(fun ~nonce:_ ~bytes:_ _ -> ())
      ~stob_signup:ignore ()
  in
  Broker.start broker;
  let evidence = Some (delivery_cert keys ~signers:[ 0; 1 ] ~root:"earlier" ~counter:5) in
  let id = 3 in
  let submit seq msg =
    Broker.receive_client broker
      (Proto.Submission
         { id; seq; msg;
           tsig = Schnorr.sign (dense_kp id).Types.sig_sk (Types.message_statement ~id ~seq msg);
           evidence; ctx = Trace.Ctx.make ~root:id })
  in
  submit 2 "m2";
  submit 4 "m4";
  submit 4 "m4-again";
  submit 3 "m3";
  checki "one pooled submission" 1 (Broker.pool_depth broker);
  Repro_sim.Engine.run engine ~until:3.5;
  match !inclusions with
  | [ (client, root, proof, agg_seq) ] ->
    checki "included client" id client;
    checki "the highest sequence number was pooled" 4 agg_seq;
    checkb "its message is the first one with that number" true
      (Merkle.verify root ~leaf:(Batch.leaf ~id ~seq:4 "m4") proof)
  | l -> Alcotest.failf "expected one inclusion, got %d" (List.length l)

(* --- protocol integration over the idealised sequencer ----------------------- *)

let mk_deployment ?(underlay = Deployment.Sequencer) ?(n_servers = 4) ?(dense = 0) () =
  Deployment.create
    { Deployment.default_config with underlay; n_servers; dense_clients = dense }

(* Deployments built from one config value must not share a counter
   table: each one's counters start at zero and move only with its run. *)
let test_deployments_own_counters () =
  let steps d =
    match
      List.find_opt
        (fun (c, n, _) -> c = "sim" && n = "steps")
        (Trace.Sink.counters (Deployment.config d).Deployment.trace)
    with
    | Some (_, _, v) -> v
    | None -> 0
  in
  let a = Deployment.create Deployment.default_config in
  Deployment.run a ~until:2.0;
  let ran = steps a in
  checkb "the first deployment counted its steps" true (ran > 0);
  let b = Deployment.create Deployment.default_config in
  checki "a fresh deployment starts from zero" 0 (steps b);
  Deployment.run b ~until:2.0;
  checki "the second run leaves the first's counters alone" ran (steps a);
  checki "same config, same count" ran (steps b)

let test_e2e_agreement_nodup () =
  let d = mk_deployment () in
  let per_server = Array.make 4 [] in
  Deployment.server_deliver_hook d (fun srv del ->
      match del with
      | Proto.Ops ops -> per_server.(srv) <- Array.to_list ops @ per_server.(srv)
      | Proto.Bulk _ -> ());
  let clients = List.init 5 (fun _ -> Deployment.add_client d ()) in
  List.iter Client.signup clients;
  Deployment.run d ~until:3.0;
  List.iteri
    (fun i c ->
      Client.broadcast c (Printf.sprintf "a%d" i);
      Client.broadcast c (Printf.sprintf "b%d" i))
    clients;
  Deployment.run d ~until:40.0;
  let logs = Array.map List.rev per_server in
  checki "all 10 delivered" 10 (List.length logs.(0));
  Array.iter (fun l -> checkb "agreement" true (l = logs.(0))) logs;
  checkb "no duplication" true
    (List.length (List.sort_uniq compare logs.(0)) = 10);
  List.iteri
    (fun i c -> checki (Printf.sprintf "client %d completed" i) 2 (Client.completed c))
    clients

let test_signup_ranks_agree () =
  let d = mk_deployment () in
  let clients = List.init 6 (fun _ -> Deployment.add_client d ()) in
  List.iter Client.signup clients;
  Deployment.run d ~until:5.0;
  let ids = List.filter_map Client.id clients in
  checki "all signed up" 6 (List.length ids);
  checkb "ids are a permutation of 0..5" true
    (List.sort compare ids = [ 0; 1; 2; 3; 4; 5 ]);
  Array.iter
    (fun sv -> checki "directory size agrees" 6 (Directory.size (Server.directory sv)))
    (Deployment.servers d)

(* A sign-up nonce is the client's node id, echoed back by the broker
   unchecked.  At the broker on even node b, the nonce (1 lsl 31) lor c
   packs to the link key of client node c and broker node b + 1: the
   response must not go down that link to c (where it would also bind
   the new identity to c's node). *)
let test_forged_signup_nonce () =
  let d = mk_deployment () in
  let b0 = Deployment.broker_node_id d 0 in
  checkb "brokers on nodes b, b + 1 with b even" true
    (b0 land 1 = 0 && Deployment.broker_node_id d 1 = b0 + 1);
  let victim = Deployment.add_client d ~brokers:[ 1 ] () in
  Client.signup victim;
  Deployment.run d ~until:3.0;
  Client.broadcast victim "m";
  Deployment.run d ~until:20.0;
  checki "the victim completed" 1 (Client.completed victim);
  let c = Option.get (Deployment.node_of_client d victim) in
  let before = Deployment.server_ingress_bytes d c in
  Broker.receive_client (Deployment.broker d 0)
    (Proto.Signup_request
       { card = (Types.keypair_of_seed "forger").card; nonce = (1 lsl 31) lor c });
  Deployment.run d ~until:40.0;
  checki "the forged sign-up was ordered" 2
    (Directory.size (Server.directory (Deployment.servers d).(0)));
  checki "nothing more reached the victim's node" before
    (Deployment.server_ingress_bytes d c)

let test_sequence_numbers_increase () =
  let d = mk_deployment () in
  let c = Deployment.add_client d () in
  Client.signup c;
  Deployment.run d ~until:3.0;
  for i = 0 to 4 do
    Client.broadcast c (Printf.sprintf "msg%d" i)
  done;
  Deployment.run d ~until:60.0;
  checki "five completions" 5 (Client.completed c);
  checkb "sequence advanced at least 5" true (Client.last_sequence c >= 4)

let test_consecutive_duplicate_dropped () =
  (* The no-duplication rule (§4.2): a server delivers m iff seq > last
     and m <> last message — a client violating CR2 (same message twice
     in a row) has the second copy treated as a replay, and its delivery
     certificate arrives through the exceptions path. *)
  let d = mk_deployment () in
  let delivered = ref 0 in
  Deployment.server_deliver_hook d (fun srv del ->
      if srv = 0 then delivered := !delivered + Proto.delivery_count del);
  let c = Deployment.add_client d () in
  Client.signup c;
  Deployment.run d ~until:3.0;
  Client.broadcast c "same";
  Client.broadcast c "same";
  Client.broadcast c "different";
  Deployment.run d ~until:60.0;
  checki "replay suppressed: 2 of 3 delivered" 2 !delivered;
  checki "client still completed all three" 3 (Client.completed c)

let test_byzantine_clients_straggle () =
  let d = mk_deployment () in
  let delivered = ref [] in
  Deployment.server_deliver_hook d (fun srv del ->
      if srv = 2 then
        match del with
        | Proto.Ops ops -> Array.iter (fun (_, m) -> delivered := m :: !delivered) ops
        | Proto.Bulk _ -> ());
  let bad = Deployment.add_client d () in
  let mute = Deployment.add_client d () in
  let good = Deployment.add_client d () in
  List.iter Client.signup [ bad; mute; good ];
  Deployment.run d ~until:3.0;
  Client.misbehave_bad_share bad;
  Client.misbehave_mute_reduction mute;
  Client.broadcast bad "from-bad";
  Client.broadcast mute "from-mute";
  Client.broadcast good "from-good";
  Deployment.run d ~until:60.0;
  List.iter
    (fun m -> checkb ("delivered " ^ m) true (List.mem m !delivered))
    [ "from-bad"; "from-mute"; "from-good" ];
  checki "bad client completed (as straggler)" 1 (Client.completed bad);
  checki "mute client completed (as straggler)" 1 (Client.completed mute)

let test_every_share_bad () =
  (* Every client of the batch sends a bad reduction share: the broker's
     tree search rejects all of them, the batch ships fully classic, and
     every message is still delivered and certified. *)
  let d = mk_deployment () in
  let delivered = ref 0 in
  Deployment.server_deliver_hook d (fun srv del ->
      if srv = 0 then delivered := !delivered + Proto.delivery_count del);
  let clients = List.init 6 (fun _ -> Deployment.add_client d ()) in
  List.iter Client.signup clients;
  Deployment.run d ~until:3.0;
  List.iteri
    (fun i c ->
      Client.misbehave_bad_share c;
      Client.broadcast c (Printf.sprintf "bad-share-%d" i))
    clients;
  Deployment.run d ~until:60.0;
  checki "all six delivered" 6 !delivered;
  List.iter (fun c -> checki "completed as straggler" 1 (Client.completed c)) clients

let test_forged_batch_never_delivered () =
  (* A Byzantine (load) broker submits a malformed batch: no correct
     server witnesses it, so it cannot enter the total order. *)
  let d = mk_deployment ~dense:10_000 () in
  let delivered = ref 0 in
  Deployment.server_deliver_hook d (fun _ del ->
      delivered := !delivered + Proto.delivery_count del);
  let dir = Server.directory (Deployment.servers d).(0) in
  let good =
    Batch.forge_dense dir ~broker:0 ~number:0 ~first_id:0 ~count:64 ~msg_bytes:8
      ~tag:1 ~straggler_count:0
  in
  let forged = { good with Batch.agg_sig = Some (Multisig.forge_garbage ()) } in
  Broker.submit_prebuilt (Deployment.broker d 0) forged ~on_complete:(fun _ ->
      Alcotest.fail "forged batch must not complete");
  Deployment.run d ~until:30.0;
  checki "nothing delivered" 0 !delivered

let test_replayed_batch_deduplicated () =
  (* A faulty broker replays the same distilled batch (same range, same
     tag): the second copy is ignored by every server. *)
  let d = mk_deployment ~dense:10_000 () in
  let delivered = ref 0 in
  Deployment.server_deliver_hook d (fun srv del ->
      if srv = 0 then delivered := !delivered + Proto.delivery_count del);
  let dir = Server.directory (Deployment.servers d).(0) in
  let b1 =
    Batch.forge_dense dir ~broker:0 ~number:0 ~first_id:0 ~count:64 ~msg_bytes:8
      ~tag:1 ~straggler_count:0
  in
  let b2 =
    (* Same content, different broker-local number: a genuine replay. *)
    Batch.forge_dense dir ~broker:0 ~number:1 ~first_id:0 ~count:64 ~msg_bytes:8
      ~tag:1 ~straggler_count:0
  in
  Broker.submit_prebuilt (Deployment.broker d 0) b1 ~on_complete:(fun _ -> ());
  Repro_sim.Engine.schedule (Deployment.engine d) ~delay:5.0 (fun () ->
      Broker.submit_prebuilt (Deployment.broker d 0) b2 ~on_complete:(fun _ -> ()));
  Deployment.run d ~until:40.0;
  checki "64 messages delivered exactly once" 64 !delivered

let test_illegitimate_sequence_rejected () =
  (* A Byzantine client pushes a far-future sequence number without a
     legitimacy certificate: brokers must not batch it (§4.2). *)
  let d = mk_deployment ~dense:1000 () in
  let delivered = ref 0 in
  Deployment.server_deliver_hook d (fun _ del ->
      delivered := !delivered + Proto.delivery_count del);
  let id = 7 in
  let kp = dense_kp id in
  let msg = "evil" in
  let seq = 1_000_000 in
  let tsig = Schnorr.sign kp.Types.sig_sk (Types.message_statement ~id ~seq msg) in
  Broker.receive_client (Deployment.broker d 0)
    (Proto.Submission
       { id; seq; msg; tsig; evidence = None;
         ctx = Repro_trace.Trace.Ctx.make ~root:0 });
  Deployment.run d ~until:20.0;
  checki "illegitimate submission dropped" 0 !delivered;
  (* The same submission with seq 0 is accepted. *)
  let tsig0 = Schnorr.sign kp.Types.sig_sk (Types.message_statement ~id ~seq:0 msg) in
  Broker.receive_client (Deployment.broker d 0)
    (Proto.Submission
       { id; seq = 0; msg; tsig = tsig0; evidence = None;
         ctx = Repro_trace.Trace.Ctx.make ~root:0 });
  Deployment.run d ~until:40.0;
  checki "legitimate first message delivered (as straggler)" 4 !delivered

(* Legitimacy evidence naming a signer outside the deployment's key slots
   is an invalid certificate: the broker drops it and the run goes on. *)
let test_evidence_signer_out_of_range () =
  let d = mk_deployment ~dense:16 () in
  let keys =
    Array.init 4 (fun i ->
        Multisig.keygen_deterministic ~seed:(Printf.sprintf "server-%d" i))
  in
  let dc = delivery_cert keys ~signers:[ 0; 1 ] ~root:"r" ~counter:3 in
  let evidence = Some { dc with qc = { dc.qc with Certs.signers = [ 0; 99 ] } } in
  let id = 3 and seq = 1 and msg = "m" in
  let send = Deployment.add_injector d () in
  send ~broker:0 ~bytes:200
    (Proto.Submission
       { id; seq; msg;
         tsig = Schnorr.sign (dense_kp id).Types.sig_sk (Types.message_statement ~id ~seq msg);
         evidence; ctx = Trace.Ctx.make ~root:id });
  Deployment.run d ~until:10.0;
  checkb "the run reaches its horizon" true
    (Repro_sim.Engine.now (Deployment.engine d) >= 10.0)

(* A Byzantine broker announces [batch] to every server of a 4-server
   deployment and asks each to witness it: every server refuses it, and
   the run reaches its horizon. *)
let check_byzantine_batch_rejected ~until batch =
  let trace = Trace.Sink.memory () in
  let d =
    Deployment.create { Deployment.default_config with dense_clients = 16; trace }
  in
  Array.iter
    (fun sv ->
      Server.receive_broker sv ~src_broker:0
        (Proto.Batch_announce { batch; witness_requested = true }))
    (Deployment.servers d);
  Deployment.run d ~until;
  let rejects =
    List.length
      (List.filter
         (fun (e : Trace.event) -> e.ev_phase = Trace.I && e.ev_name = "reject_batch")
         (Trace.Sink.events trace))
  in
  checki "every server rejects the batch" 4 rejects;
  Array.iter
    (fun sv ->
      checki "the refused batch is not kept" 0 (Server.stored_batches sv);
      checki "nor its bytes" 0 (Server.stored_bytes sv))
    (Deployment.servers d);
  checkb "the run reaches its horizon" true
    (Repro_sim.Engine.now (Deployment.engine d) >= until)

(* [first_id + count] wraps around past [max_int]. *)
let test_overflowing_dense_range () =
  let dir = Directory.create ~dense_count:16 () in
  let b =
    Batch.forge_dense dir ~broker:0 ~number:0 ~first_id:0 ~count:16 ~msg_bytes:8 ~tag:1
      ~straggler_count:0
  in
  let d = match b.Batch.entries with Batch.Dense d -> d | Batch.Explicit _ -> assert false in
  check_byzantine_batch_rejected ~until:5.0
    { b with Batch.entries = Batch.Dense { d with Batch.first_id = max_int - 10; count = 100 } }

(* A reducer id no directory holds. *)
let test_negative_reducer_id () =
  check_byzantine_batch_rejected ~until:5.0
    (Batch.make_explicit ~broker:0 ~number:0 ~entries:(mk_entries [ -1 ]) ~agg_seq:0
       ~stragglers:[||] ~agg_sig:(Some (Multisig.forge_garbage ())))

(* A reducer id the order never produced: each server defers its witness
   while its directory might still catch up (100 tries, 0.2 s apart), then
   refuses for good. *)
let test_made_up_reducer_id () =
  check_byzantine_batch_rejected ~until:25.0
    (Batch.make_explicit ~broker:0 ~number:0 ~entries:(mk_entries [ 1_000_000 ])
       ~agg_seq:0 ~stragglers:[||] ~agg_sig:(Some (Multisig.forge_garbage ())))

(* A Byzantine broker announces a garbled copy of a batch to every server
   (same identity root, forged aggregate signature) and asks each to
   witness it; the valid copy then arrives while every server is still
   checking the garbled one, so it finds that one stored, and it is
   witnessed, certified and ordered.  Refusing the garbled copy must not
   leave the servers without a body for the root they witnessed: the
   batch is delivered everywhere. *)
let test_garbled_copy_then_valid () =
  let d = mk_deployment ~dense:10_000 () in
  let delivered = Array.make 4 0 in
  Deployment.server_deliver_hook d (fun srv del ->
      delivered.(srv) <- delivered.(srv) + Proto.delivery_count del);
  let dir = Server.directory (Deployment.servers d).(0) in
  let good =
    Batch.forge_dense dir ~broker:0 ~number:0 ~first_id:0 ~count:64 ~msg_bytes:8
      ~tag:1 ~straggler_count:0
  in
  let garbled = { good with Batch.agg_sig = Some (Multisig.forge_garbage ()) } in
  Array.iteri
    (fun i sv ->
      (* Busy for longer than any broker-to-server latency. *)
      Repro_sim.Cpu.submit (Deployment.server_cpu d i)
        ~work:(Repro_sim.Cpu.parallel 10.0) (fun () -> ());
      Server.receive_broker sv ~src_broker:0
        (Proto.Batch_announce { batch = garbled; witness_requested = true }))
    (Deployment.servers d);
  let completed = ref false in
  Broker.submit_prebuilt (Deployment.broker d 0) good ~on_complete:(fun _ ->
      completed := true);
  Deployment.run d ~until:30.0;
  checkb "the valid batch completes" true !completed;
  Array.iter (checki "delivered at every server" 64) delivered

let test_gc_collects () =
  let d = mk_deployment ~dense:100_000 () in
  let dir = Server.directory (Deployment.servers d).(0) in
  for k = 0 to 9 do
    let b =
      Batch.forge_dense dir ~broker:0 ~number:k ~first_id:0 ~count:256 ~msg_bytes:8
        ~tag:(k + 1) ~straggler_count:0
    in
    Repro_sim.Engine.schedule (Deployment.engine d) ~delay:(0.5 *. float_of_int k)
      (fun () -> Broker.submit_prebuilt (Deployment.broker d 0) b ~on_complete:(fun _ -> ()))
  done;
  Deployment.run d ~until:60.0;
  Array.iter
    (fun sv ->
      checki "all batches delivered" 10 (Server.delivery_counter sv);
      checkb "garbage collected" true (Server.stored_batches sv <= 1))
    (Deployment.servers d)

let test_gc_blocked_by_crashed_server () =
  (* §5.2 / §8: if one server stops delivering, the others cannot collect
     — memory grows.  (The crashed server stops gossiping its counter.) *)
  let d = mk_deployment ~dense:100_000 () in
  let dir = Server.directory (Deployment.servers d).(0) in
  Deployment.crash_server d 3;
  for k = 0 to 9 do
    let b =
      Batch.forge_dense dir ~broker:0 ~number:k ~first_id:0 ~count:256 ~msg_bytes:8
        ~tag:(k + 1) ~straggler_count:0
    in
    Repro_sim.Engine.schedule (Deployment.engine d) ~delay:(0.5 *. float_of_int k)
      (fun () -> Broker.submit_prebuilt (Deployment.broker d 0) b ~on_complete:(fun _ -> ()))
  done;
  Deployment.run d ~until:60.0;
  checkb "survivors hold all batches" true
    (Server.stored_batches (Deployment.servers d).(0) >= 10)

let test_crash_f_servers_liveness () =
  (* f = 1 of 4 servers crash: clients still complete. *)
  let d = mk_deployment ~underlay:Deployment.Pbft () in
  let c = Deployment.add_client d () in
  Client.signup c;
  Deployment.run d ~until:4.0;
  Deployment.crash_server d 3;
  Client.broadcast c "survives";
  Deployment.run d ~until:90.0;
  checki "completed despite crash" 1 (Client.completed c)

let test_no_send_before_cpu_completion () =
  (* The completion-gating invariant: a broker's externally visible steps
     (batch launch, distillation start) happen inside the continuation of
     the CPU job that models their work, never earlier on the sim clock.
     Every such trace event must coincide — same actor, same instant —
     with a cpu/job_done completion. *)
  let sink = Trace.Sink.memory () in
  let d =
    Deployment.create
      { Deployment.default_config with
        underlay = Deployment.Sequencer; n_servers = 4; trace = sink }
  in
  let clients = List.init 4 (fun _ -> Deployment.add_client d ()) in
  List.iter Client.signup clients;
  Deployment.run d ~until:3.0;
  List.iteri (fun i c -> Client.broadcast c (Printf.sprintf "m%d" i)) clients;
  Deployment.run d ~until:40.0;
  List.iter (fun c -> checki "client completed" 1 (Client.completed c)) clients;
  let evs = Trace.Sink.events sink in
  let cpu_done = Hashtbl.create 64 in
  List.iter
    (fun ev ->
      if ev.Trace.ev_cat = "cpu" && ev.Trace.ev_name = "job_done" then
        Hashtbl.replace cpu_done (ev.Trace.ev_actor, ev.Trace.ev_time) ())
    evs;
  let gated ev =
    ev.Trace.ev_cat = "broker"
    && (ev.Trace.ev_name = "launch"
        || (ev.Trace.ev_name = "distill" && ev.Trace.ev_phase = Trace.B))
  in
  let checked = ref 0 in
  List.iter
    (fun ev ->
      if gated ev then begin
        incr checked;
        checkb
          (Printf.sprintf "%s at t=%g rides a cpu completion" ev.Trace.ev_name
             ev.Trace.ev_time)
          true
          (Hashtbl.mem cpu_done (ev.Trace.ev_actor, ev.Trace.ev_time))
      end)
    evs;
  checkb "saw gated broker events" true (!checked > 0)

let test_stob_item_bytes () =
  let qc = Certs.assemble [] in
  checkb "batch ref fits a hash + witness" true
    (Stob_item.wire_bytes
       (Stob_item.Batch_ref { broker = 0; number = 0; root = "r"; witness = qc })
     < 400);
  checkb "signup carries two keys" true
    (Stob_item.wire_bytes
       (Stob_item.Signup
          { card = (Types.keypair_of_seed "s").card; reply_broker = 0; nonce = 1 })
     >= 64)

(* Quadratic reference implementations of the straggler joins, as written
   before the joins went linear: every lookup is a first-match scan. *)
module Ref_batch = struct
  module Merkle = Repro_crypto.Merkle

  let find_straggler (b : Batch.t) id =
    Array.find_opt (fun s -> s.Batch.s_id = id) b.Batch.stragglers

  let entries (b : Batch.t) =
    match b.Batch.entries with Batch.Explicit es -> es | Batch.Dense _ -> assert false

  let root b seq_of =
    Merkle.root
      (Merkle.build
         (Array.map (fun e -> Batch.leaf ~id:e.Batch.e_id ~seq:(seq_of e) e.Batch.e_msg)
            (entries b)))

  let reduction_root (b : Batch.t) = root b (fun _ -> b.Batch.agg_seq)

  let identity_root (b : Batch.t) =
    root b (fun e ->
        match find_straggler b e.Batch.e_id with
        | Some s -> s.Batch.s_seq
        | None -> b.Batch.agg_seq)

  let reducer_ids b =
    Array.to_list (entries b)
    |> List.filter_map (fun e ->
           if find_straggler b e.Batch.e_id = None then Some e.Batch.e_id else None)

  let verify dir (b : Batch.t) =
    let es = entries b in
    let sorted = ref true in
    for i = 1 to Array.length es - 1 do
      if es.(i - 1).Batch.e_id >= es.(i).Batch.e_id then sorted := false
    done;
    !sorted
    && Array.for_all
         (fun s ->
           match Directory.find dir s.Batch.s_id with
           | None -> false
           | Some card ->
             (match Array.find_opt (fun e -> e.Batch.e_id = s.Batch.s_id) es with
              | None -> false
              | Some e ->
                Schnorr.verify card.Types.sig_pk
                  (Types.message_statement ~id:s.Batch.s_id ~seq:s.Batch.s_seq e.Batch.e_msg)
                  s.Batch.s_sig))
         b.Batch.stragglers
    &&
    match (reducer_ids b, b.Batch.agg_sig) with
    | [], None -> true
    | [], Some _ | _ :: _, None -> false
    | reducers, Some agg ->
      Multisig.verify
        (Directory.aggregate_ms_pks dir reducers)
        (Types.reduction_statement ~root:(reduction_root b))
        agg
end

let straggler_for id ~seq ~valid =
  let msg = Printf.sprintf "m%d" id in
  { Batch.s_id = id; s_seq = seq;
    s_sig =
      (if valid then
         Schnorr.sign (dense_kp id).Types.sig_sk
           (Types.message_statement ~id ~seq msg)
       else Schnorr.forge_garbage ()) }

(* [Batch.check] is held to the reference too: on its first call (which
   runs the signatures), on a repeated call and on a renumbered copy
   (which reuse the verdict). *)
let agrees_with_reference dir b =
  let expected = Ref_batch.verify dir b in
  Batch.identity_root b = Ref_batch.identity_root b
  && Batch.reduction_root b = Ref_batch.reduction_root b
  && Batch.reducer_ids b = Ref_batch.reducer_ids b
  && Batch.verify dir b = expected
  && Batch.check dir b = expected
  && Batch.check dir b = expected
  && Batch.check dir { b with Batch.number = b.Batch.number + 1 } = expected

let test_batch_memo_invalidation () =
  let dir = Directory.create ~dense_count:100 () in
  let good = explicit_batch dir ~ids:[ 1; 5; 9; 42 ] ~agg_seq:3 ~straggler_ids:[ 5; 42 ] in
  checkb "good verifies" true (Batch.verify dir good);
  let id0 = Batch.identity_root good and red0 = Batch.reduction_root good in
  let renumbered = { good with Batch.number = 7 } in
  checkb "renumbered copy keeps its roots" true
    (Batch.identity_root renumbered = id0 && Batch.reduction_root renumbered = red0);
  let fresh name (bad : Batch.t) =
    checkb (name ^ ": identity root re-derived") true
      (Batch.identity_root bad = Ref_batch.identity_root bad);
    checkb (name ^ ": reduction root re-derived") true
      (Batch.reduction_root bad = Ref_batch.reduction_root bad);
    checkb (name ^ ": rejected") false (Batch.verify dir bad)
  in
  let tampered = Array.copy (Ref_batch.entries good) in
  tampered.(0) <- { (tampered.(0)) with Batch.e_msg = "EVIL" };
  let bad_entries = { good with Batch.entries = Batch.Explicit tampered } in
  fresh "tampered entries" bad_entries;
  checkb "tampered entries: roots moved" true
    (Batch.identity_root bad_entries <> id0 && Batch.reduction_root bad_entries <> red0);
  let forged =
    Array.map (fun s -> { s with Batch.s_seq = s.Batch.s_seq + 1 }) good.Batch.stragglers
  in
  let bad_stragglers = { good with Batch.stragglers = forged } in
  fresh "forged stragglers" bad_stragglers;
  checkb "forged stragglers: identity root moved" true
    (Batch.identity_root bad_stragglers <> id0);
  let bad_seq = { good with Batch.agg_seq = 4 } in
  fresh "new agg_seq" bad_seq;
  checkb "new agg_seq: roots moved" true
    (Batch.identity_root bad_seq <> id0 && Batch.reduction_root bad_seq <> red0);
  checkb "the original still has its roots and verifies" true
    (Batch.identity_root good = id0 && Batch.reduction_root good = red0
     && Batch.verify dir good)

(* A verdict kept on a batch is reused only for the same batch fields and
   the same directory keys. *)
let test_batch_verdict_inputs () =
  let dir = Directory.create ~dense_count:100 () in
  let good = explicit_batch dir ~ids:[ 1; 5; 9; 42 ] ~agg_seq:3 ~straggler_ids:[ 5; 42 ] in
  checkb "valid verdict" true (Batch.check dir good);
  checkb "garbage aggregate rejected" false
    (Batch.check dir { good with Batch.agg_sig = Some (Multisig.forge_garbage ()) });
  let forged =
    Array.map (fun s -> { s with Batch.s_sig = Schnorr.forge_garbage () }) good.Batch.stragglers
  in
  checkb "tampered stragglers rejected" false
    (Batch.check dir { good with Batch.stragglers = forged });
  let tampered = Array.copy (Ref_batch.entries good) in
  tampered.(0) <- { (tampered.(0)) with Batch.e_msg = "EVIL" };
  checkb "tampered entries rejected" false
    (Batch.check dir { good with Batch.entries = Batch.Explicit tampered });
  checkb "the original keeps its verdict" true (Batch.check dir good);
  (* Two directories that differ only in straggler 3's explicit card. *)
  let with_cards other =
    let d = Directory.create () in
    for id = 0 to 3 do
      let kp = if id = 3 && other then Types.keypair_of_seed "other" else dense_kp id in
      ignore (Directory.append d kp.Types.card)
    done;
    d
  in
  let dir_a = with_cards false and dir_b = with_cards true in
  let fresh () = explicit_batch dir ~ids:[ 0; 1; 2; 3 ] ~agg_seq:1 ~straggler_ids:[ 1; 3 ] in
  let b = fresh () in
  checkb "A first: valid under A" true (Batch.check dir_a b);
  checkb "A first: invalid under B" false (Batch.check dir_b b);
  checkb "A first: valid under A again" true (Batch.check dir_a b);
  let b = fresh () in
  checkb "B first: invalid under B" false (Batch.check dir_b b);
  checkb "B first: valid under A" true (Batch.check dir_a b);
  (* A dense range the smaller population does not hold. *)
  let big = Directory.create ~dense_count:1000 () in
  let dense =
    Batch.forge_dense big ~broker:0 ~number:0 ~first_id:900 ~count:100 ~msg_bytes:8
      ~tag:1 ~straggler_count:10
  in
  checkb "dense valid" true (Batch.check big dense);
  checkb "dense outside a smaller population rejected" false
    (Batch.check (Directory.create ~dense_count:950 ()) dense)

let suite_batch_props =
  [ qtest ~count:150 "identity root matches a fresh tree"
      QCheck.(
        triple
          (list_of_size (Gen.int_range 1 12) (int_bound 40))
          (list_of_size (Gen.int_range 0 10) (pair (int_bound 45) (int_bound 2)))
          bool)
      (fun (raw_ids, spec, raw) ->
        let agg_seq = 2 in
        let entries = mk_entries (List.sort_uniq compare raw_ids) in
        (* Stragglers carrying [agg_seq] (the reduction leaves exactly) or
           a number of their own, some not in the batch; [raw] keeps them
           unsorted and duplicated instead of letting [make_explicit] sort
           them. *)
        let stragglers =
          Array.of_list
            (List.map
               (fun (id, k) ->
                 { Batch.s_id = id; s_seq = (if k = 0 then agg_seq - 1 else agg_seq);
                   s_sig = Schnorr.forge_garbage () })
               spec)
        in
        let tree =
          Merkle.build
            (Array.map (fun e -> Batch.leaf ~id:e.Batch.e_id ~seq:agg_seq e.Batch.e_msg)
               entries)
        in
        let b =
          Batch.of_reduction_tree ~broker:0 ~number:0 ~entries ~agg_seq ~stragglers
            ~agg_sig:None tree
        in
        let b = if raw then { b with Batch.stragglers } else b in
        let seqs = Batch.entry_seqs b in
        let fresh =
          Merkle.build
            (Array.mapi
               (fun i e -> Batch.leaf ~id:e.Batch.e_id ~seq:seqs.(i) e.Batch.e_msg)
               entries)
        in
        Batch.identity_root b = Merkle.root fresh
        && Batch.reduction_root b = Merkle.root tree);
    qtest ~count:150 "joins match the quadratic reference on Byzantine stragglers"
      QCheck.(
        triple
          (list_of_size (Gen.int_range 1 12) (int_bound 40))
          (list_of_size (Gen.int_range 0 10) (pair (int_bound 45) bool))
          (int_bound 3))
      (fun (raw_ids, spec, mode) ->
        let dir = Directory.create ~dense_count:100 () in
        let ids = List.sort_uniq compare raw_ids in
        let half = List.filteri (fun i _ -> i mod 2 = 0) ids in
        let good = explicit_batch dir ~ids ~agg_seq:5 ~straggler_ids:half in
        (* Unsorted, duplicated and not-in-entries stragglers, some with a
           sequence number of their own and some badly signed. *)
        let extra =
          Array.of_list
            (List.mapi (fun i (id, valid) -> straggler_for id ~seq:(i mod 3) ~valid) spec)
        in
        let b =
          match mode with
          | 0 -> good
          | 1 -> { good with Batch.stragglers = extra }
          | 2 -> { good with Batch.stragglers = Array.append good.Batch.stragglers extra }
          | _ ->
            let es = Array.copy (Ref_batch.entries good) in
            let n = Array.length es in
            { good with
              Batch.entries = Batch.Explicit (Array.init n (fun i -> es.(n - 1 - i)));
              stragglers = Array.append extra good.Batch.stragglers }
        in
        agrees_with_reference dir b
        && (mode <> 0 || Batch.verify dir b));
    qtest ~count:40 "random straggler subsets verify; any corruption fails"
      QCheck.(pair (list_of_size (Gen.int_range 1 12) (int_bound 60)) (int_bound 2))
      (fun (raw_ids, mutation) ->
        let dir = Directory.create ~dense_count:100 () in
        let ids = List.sort_uniq compare raw_ids in
        let k = List.length ids / 2 in
        let stragglers = List.filteri (fun i _ -> i < k) ids in
        let b = explicit_batch dir ~ids ~agg_seq:5 ~straggler_ids:stragglers in
        let ok = Batch.verify dir b in
        let corrupted =
          match mutation with
          | 0 when b.Batch.agg_sig <> None ->
            Some { b with Batch.agg_sig = Some (Multisig.forge_garbage ()) }
          | 1 ->
            (* A different aggregate sequence number breaks the root the
               reducers signed (unless everyone straggled). *)
            if Batch.reduced_count b > 0 then Some { b with Batch.agg_seq = 6 }
            else None
          | _ -> None
        in
        ok
        && (match corrupted with
            | Some bad -> not (Batch.verify dir bad)
            | None -> true));
    qtest ~count:40 "wire size grows monotonically with stragglers"
      QCheck.(pair (int_range 1 1000) (int_range 0 1000))
      (fun (count, s) ->
        let s = min s count in
        Wire.distilled_batch_bytes ~clients:1_000_000 ~count ~msg_bytes:8 ~stragglers:s
        >= Wire.distilled_batch_bytes ~clients:1_000_000 ~count ~msg_bytes:8 ~stragglers:0) ]

let () =
  Alcotest.run "chopchop"
    [ ("wire",
       Alcotest.test_case "paper numbers" `Quick test_wire_paper_numbers
       :: Alcotest.test_case "straggler cost" `Quick test_wire_stragglers_cost
       :: suite_wire_props);
      ("directory",
       [ Alcotest.test_case "ranks" `Quick test_directory_ranks;
         Alcotest.test_case "dense population" `Quick test_directory_dense;
         Alcotest.test_case "dense keypair pure = memoised" `Quick
           test_directory_dense_keypair_pure;
         Alcotest.test_case "range aggregation" `Quick test_directory_range_aggregation;
         Alcotest.test_case "secret range aggregation" `Quick test_directory_sk_range;
         test_directory_range_sums;
         Alcotest.test_case "range bounds" `Quick test_directory_range_bounds ]);
      ("certs",
       [ Alcotest.test_case "quorum" `Quick test_certs_quorum;
         Alcotest.test_case "signer dedup" `Quick test_certs_dedup_signers;
         Alcotest.test_case "forged signer list" `Quick test_certs_forged_signer_list;
         Alcotest.test_case "legitimizes" `Quick test_legitimizes;
         Alcotest.test_case "checker reuses only equal inputs" `Quick test_checker_inputs;
         Alcotest.test_case "out-of-range signer rejected" `Quick
           test_certs_out_of_range_signer;
         Alcotest.test_case "checker forgets a replaced key" `Quick
           test_checker_replaced_key;
         Alcotest.test_case "checker bounded under a flood" `Quick
           test_checker_bounded;
         well_formed_agrees ]);
      ("batch",
       [ Alcotest.test_case "explicit verifies" `Quick test_batch_explicit_verifies;
         Alcotest.test_case "with stragglers" `Quick test_batch_with_stragglers;
         Alcotest.test_case "all stragglers (classic)" `Quick test_batch_all_stragglers;
         Alcotest.test_case "rejects unsorted/duplicate" `Quick test_batch_rejects_unsorted;
         Alcotest.test_case "rejects forgery" `Quick test_batch_rejects_forgery;
         Alcotest.test_case "rejects bad straggler sig" `Quick test_batch_rejects_bad_straggler_sig;
         Alcotest.test_case "root memo follows rebuilt fields" `Quick test_batch_memo_invalidation;
         Alcotest.test_case "verdict reuses only equal inputs" `Quick test_batch_verdict_inputs;
         Alcotest.test_case "dense verifies" `Quick test_batch_dense_verifies;
         Alcotest.test_case "dense rejects" `Quick test_batch_dense_rejects;
         Alcotest.test_case "dense/explicit equivalence" `Quick test_batch_dense_explicit_equivalence;
         Alcotest.test_case "cost model monotone" `Quick test_batch_costs_monotone;
         Alcotest.test_case "fallback verify cost" `Quick test_fallback_verify_cost;
         Alcotest.test_case "ceil_log2 boundaries" `Quick test_ceil_log2_boundaries ]
       @ suite_batch_props);
      ("protocol",
       [ Alcotest.test_case "e2e agreement + no-dup" `Quick test_e2e_agreement_nodup;
         Alcotest.test_case "deployments own their counters" `Quick
           test_deployments_own_counters;
         Alcotest.test_case "signup ranks agree" `Quick test_signup_ranks_agree;
         Alcotest.test_case "forged sign-up nonce dropped" `Quick test_forged_signup_nonce;
         Alcotest.test_case "sequence numbers increase" `Quick test_sequence_numbers_increase;
         Alcotest.test_case "consecutive duplicate dropped" `Quick test_consecutive_duplicate_dropped;
         Alcotest.test_case "byzantine clients straggle" `Quick test_byzantine_clients_straggle;
         Alcotest.test_case "every reduction share bad" `Quick test_every_share_bad;
         Alcotest.test_case "forged batch never delivered" `Quick test_forged_batch_never_delivered;
         Alcotest.test_case "replayed batch deduplicated" `Quick test_replayed_batch_deduplicated;
         Alcotest.test_case "illegitimate sequence rejected" `Quick test_illegitimate_sequence_rejected;
         Alcotest.test_case "gc collects" `Quick test_gc_collects;
         Alcotest.test_case "gc blocked by crash" `Quick test_gc_blocked_by_crashed_server;
         Alcotest.test_case "liveness under f crashes" `Quick test_crash_f_servers_liveness;
         Alcotest.test_case "no send before cpu completion" `Quick
           test_no_send_before_cpu_completion;
         Alcotest.test_case "stob item bytes" `Quick test_stob_item_bytes;
         Alcotest.test_case "delivery proof reuse" `Quick test_delivery_proof_reuse;
         Alcotest.test_case "broker delivery proofs verify" `Quick
           test_broker_delivery_proofs;
         Alcotest.test_case "broker pools the highest sequence number" `Quick
           test_broker_pools_highest_seq;
         Alcotest.test_case "out-of-range evidence signer dropped" `Quick
           test_evidence_signer_out_of_range;
         Alcotest.test_case "overflowing dense range rejected" `Quick
           test_overflowing_dense_range;
         Alcotest.test_case "negative reducer id rejected" `Quick
           test_negative_reducer_id;
         Alcotest.test_case "made-up reducer id rejected" `Quick
           test_made_up_reducer_id;
         Alcotest.test_case "garbled copy then valid delivered" `Quick
           test_garbled_copy_then_valid ]) ]
