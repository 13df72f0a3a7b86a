module Multisig = Repro_crypto.Multisig
module Sha256 = Repro_crypto.Sha256
module Field61 = Repro_crypto.Field61

type quorum_cert = { signers : int list; agg : Multisig.signature }

let witness_statement ~root ~broker ~number =
  Printf.sprintf "witness|%s|%d|%d" (Sha256.to_hex root) broker number

let completion_statement ~root ~counter ~exc_hash =
  Printf.sprintf "completion|%s|%d|%s" (Sha256.to_hex root) counter (Sha256.to_hex exc_hash)

let exceptions_hash exceptions =
  Sha256.digest_list
    (List.map (fun (id, seq) -> Printf.sprintf "%d:%d;" id seq) exceptions)

let sign_shard sk statement = Multisig.sign sk statement

let assemble shards =
  let shards = List.sort_uniq (fun (a, _) (b, _) -> Int.compare a b) shards in
  { signers = List.map fst shards;
    agg = Multisig.aggregate_signatures (List.map snd shards) }

(* At least [quorum] signers, none twice, each one of the [capacity] key
   slots: the part of {!verify} that reads no key. *)
let well_formed ~capacity ~quorum qc =
  let distinct = List.sort_uniq Int.compare qc.signers in
  List.length distinct = List.length qc.signers
  && List.length distinct >= quorum
  && List.for_all (fun i -> i >= 0 && i < capacity) distinct

let verify ~statement ~server_ms_pk ~capacity ~quorum qc =
  well_formed ~capacity ~quorum qc
  && Multisig.verify_multi (List.map server_ms_pk qc.signers) statement qc.agg

type delivery_cert = {
  root : string;
  counter : int;
  exceptions : (Types.client_id * Types.sequence_number) list;
  qc : quorum_cert;
}

let delivery_statement dc =
  completion_statement ~root:dc.root ~counter:dc.counter
    ~exc_hash:(exceptions_hash dc.exceptions)

let verify_delivery ~server_ms_pk ~quorum dc =
  verify ~statement:(delivery_statement dc) ~server_ms_pk ~capacity:max_int
    ~quorum dc.qc

(* --- the deployment's checker ------------------------------------------- *)

(* What a verdict was given on, besides the signers' keys.  A delivery
   certificate carries its own statement fields, so the record
   itself (compared physically) is the whole subject; a witness certificate
   is judged against the (root, broker, number) it is presented under. *)
type subject =
  | Delivery of delivery_cert
  | Witness of { root : string; broker : int; number : int; qc : quorum_cert }

module Memo = Hashtbl.Make (struct
  type t = subject

  let equal a b =
    match (a, b) with
    | Delivery x, Delivery y -> x == y
    | Witness x, Witness y ->
      x.qc == y.qc && x.broker = y.broker && x.number = y.number
      && String.equal x.root y.root
    | Delivery _, Witness _ | Witness _, Delivery _ -> false

  (* The aggregate is in the hash so that distinct forgeries of one
     statement spread over the buckets. *)
  let hash = function
    | Delivery d -> Hashtbl.hash (d.root, d.counter, d.qc.agg)
    | Witness w -> Hashtbl.hash (w.root, w.broker, w.number, w.qc.agg)
end)

(* The signers' keys enter a check only through their aggregate, so the
   aggregate of their keys at check time stands for all of them: a
   replaced signer's new key changes it. *)
type verdict = { v_agg_pk : Multisig.public_key; v_ok : bool }

type checker = {
  server_ms_pk : int -> Multisig.public_key;
  capacity : int; (* key slots: valid signers are [0, capacity) *)
  memo : verdict Memo.t;
  order : subject Queue.t; (* memo keys, oldest first *)
}

let memo_bound = 64

let checker ~capacity ~server_ms_pk =
  { server_ms_pk; capacity; memo = Memo.create memo_bound; order = Queue.create () }

let server_pk c i = c.server_ms_pk i
let memo_size c = Memo.length c.memo

(* [verify]: the quorum and duplicate checks on every call, the
   multi-signature only when no verdict was given on the same subject
   under the same keys. *)
let check c subject ~quorum qc statement =
  well_formed ~capacity:c.capacity ~quorum qc
  &&
  let agg_pk = Multisig.aggregate_public_keys (List.map c.server_ms_pk qc.signers) in
  match Memo.find_opt c.memo subject with
  | Some v when Field61.equal v.v_agg_pk agg_pk -> v.v_ok
  | known ->
    let ok = Multisig.verify agg_pk (statement ()) qc.agg in
    if Option.is_none known then begin
      Queue.add subject c.order;
      if Queue.length c.order > memo_bound then Memo.remove c.memo (Queue.pop c.order)
    end;
    Memo.replace c.memo subject { v_agg_pk = agg_pk; v_ok = ok };
    ok

let check_delivery c ~quorum dc =
  check c (Delivery dc) ~quorum dc.qc (fun () -> delivery_statement dc)

let check_witness c ~root ~broker ~number ~quorum qc =
  check c (Witness { root; broker; number; qc }) ~quorum qc (fun () ->
      witness_statement ~root ~broker ~number)

let legitimizes evidence k =
  k = 0 || (match evidence with Some dc -> dc.counter >= k | None -> false)
