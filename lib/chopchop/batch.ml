module Schnorr = Repro_crypto.Schnorr
module Multisig = Repro_crypto.Multisig
module Merkle = Repro_crypto.Merkle
module Sha256 = Repro_crypto.Sha256
module Field61 = Repro_crypto.Field61
module Decimal = Repro_crypto.Decimal
module Cost = Repro_sim.Cost
module Cpu = Repro_sim.Cpu

type straggler = {
  s_id : Types.client_id;
  s_seq : Types.sequence_number;
  s_sig : Schnorr.signature;
}

type entry = { e_id : Types.client_id; e_msg : Types.message }

type dense = {
  first_id : int;
  count : int;
  msg_bytes : int;
  tag : int;
  straggler_count : int;
  straggler_sample : (Types.client_id * Schnorr.signature) array;
}

type entries = Explicit of entry array | Dense of dense

(* A [verify] verdict and every directory key it was given under: each
   straggler's (or each sampled dense straggler's) signature key, in order,
   and the reducers' aggregate multi-signature key, if there are reducers.
   A multi-signature reads the reducers' keys only through their
   aggregate, so the aggregate stands for all of them. *)
type verdict = {
  sig_pks : Schnorr.public_key array;
  agg_pk : Multisig.public_key option;
  ok : bool;
}

(* Roots and verdict derived from exactly these field values (compared
   physically for the arrays and the signature).  A copy made with
   [{ b with number = ... }] shares them; a rebuild with new [entries],
   [stragglers], [agg_seq] or [agg_sig] fails the tag check and derives
   its own. *)
type roots = {
  of_entries : entries;
  of_stragglers : straggler array;
  of_agg_seq : Types.sequence_number;
  of_agg_sig : Multisig.signature option;
  mutable reduction : string option;
  mutable identity : string option;
  mutable verdict : verdict option;
}

type t = {
  broker : int;
  number : int;
  entries : entries;
  agg_seq : Types.sequence_number;
  stragglers : straggler array;
  agg_sig : Multisig.signature option;
  mutable roots : roots;
}

let no_roots =
  { of_entries =
      Dense { first_id = -1; count = 0; msg_bytes = 0; tag = 0;
              straggler_count = 0; straggler_sample = [||] };
    of_stragglers = [||]; of_agg_seq = 0; of_agg_sig = None; reduction = None;
    identity = None; verdict = None }

let roots t =
  let r = t.roots in
  if r.of_entries == t.entries && r.of_stragglers == t.stragglers
     && r.of_agg_seq = t.agg_seq && r.of_agg_sig == t.agg_sig
  then r
  else begin
    let r =
      { of_entries = t.entries; of_stragglers = t.stragglers;
        of_agg_seq = t.agg_seq; of_agg_sig = t.agg_sig; reduction = None;
        identity = None; verdict = None }
    in
    t.roots <- r;
    r
  end

let count t =
  match t.entries with Explicit a -> Array.length a | Dense d -> d.count

let straggler_count t =
  match t.entries with
  | Explicit _ -> Array.length t.stragglers
  | Dense d -> d.straggler_count

let reduced_count t = count t - straggler_count t

let dense_message d id =
  (* Deterministic, cheap, and long enough for any msg_bytes. *)
  let base = Printf.sprintf "%08x%08x" (d.tag * 2654435761) (id * 40503) in
  let rec pad s = if String.length s >= d.msg_bytes then String.sub s 0 d.msg_bytes else pad (s ^ s) in
  pad base

let leaf ~id ~seq msg = String.concat "|" [ Decimal.of_int id; Decimal.of_int seq; msg ]

let dense_straggler_seq d = d.tag
(* Dense stragglers carry their own per-round sequence number (the round
   tag), individually signed — like real clients that missed reduction. *)

let is_straggler_dense d id = id >= d.first_id + d.count - d.straggler_count

let dense_root kind d agg_seq =
  Sha256.digest
    (Printf.sprintf "dense-root|%s|%d|%d|%d|%d|%d" kind d.first_id d.count d.tag
       d.straggler_count agg_seq)

let strictly_sorted (key : _ -> int) a =
  let ok = ref true in
  for i = 1 to Array.length a - 1 do
    if key a.(i - 1) >= key a.(i) then ok := false
  done;
  !ok

(* Binary search for [id] in [a], sorted strictly by [key]: its index,
   or -1. *)
let search (key : _ -> int) a id =
  let rec go lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) / 2 in
      let k = key a.(mid) in
      if k = id then mid else if k < id then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length a)

(* The straggler lookup every consumer of a batch needs: for an id, the
   FIRST element of [stragglers] carrying it — what a left-to-right scan
   returns — in O(log s) after O(s log s) indexing.  A correct broker's
   stragglers are strictly sorted already and are searched in place; a
   Byzantine list (unsorted, duplicated) is stably sorted and thinned to
   its first occurrence per id. *)
let straggler_finder stragglers =
  let index =
    if strictly_sorted (fun s -> s.s_id) stragglers then stragglers
    else begin
      let a = Array.copy stragglers in
      Array.stable_sort (fun x y -> Int.compare x.s_id y.s_id) a;
      let firsts = ref [] in
      Array.iteri
        (fun i s -> if i = 0 || a.(i - 1).s_id <> s.s_id then firsts := s :: !firsts)
        a;
      Array.of_list (List.rev !firsts)
    end
  in
  fun id ->
    let i = search (fun s -> s.s_id) index id in
    if i < 0 then None else Some index.(i)

let entry_seqs t =
  match t.entries with
  | Explicit entries ->
    let find = straggler_finder t.stragglers in
    Array.map
      (fun e -> match find e.e_id with Some s -> s.s_seq | None -> t.agg_seq)
      entries
  | Dense _ -> invalid_arg "Batch.entry_seqs: dense batch"

(* Root of the tree whose leaf [i] carries sequence number [seq_of i]. *)
let explicit_root entries seq_of =
  Merkle.root
    (Merkle.build (Array.mapi (fun i e -> leaf ~id:e.e_id ~seq:(seq_of i) e.e_msg) entries))

let reduction_root t =
  let r = roots t in
  match r.reduction with
  | Some root -> root
  | None ->
    let root =
      match t.entries with
      | Explicit entries -> explicit_root entries (fun _ -> t.agg_seq)
      | Dense d -> dense_root "reduction" d t.agg_seq
    in
    r.reduction <- Some root;
    root

let identity_root t =
  let r = roots t in
  match r.identity with
  | Some root -> root
  | None ->
    let root =
      match t.entries with
      | Explicit _ when Array.for_all (fun s -> s.s_seq = t.agg_seq) t.stragglers ->
        (* Every leaf carries [agg_seq]: the reduction leaves exactly. *)
        reduction_root t
      | Explicit entries -> explicit_root entries (Array.get (entry_seqs t))
      | Dense d -> dense_root "identity" d t.agg_seq
    in
    r.identity <- Some root;
    root

let reducer_ids t =
  match t.entries with
  | Explicit entries ->
    let find = straggler_finder t.stragglers in
    Array.fold_right
      (fun e acc -> if Option.is_none (find e.e_id) then e.e_id :: acc else acc)
      entries []
  | Dense d ->
    List.init (d.count - d.straggler_count) (fun i -> d.first_id + i)

(* Size of one application message in this batch. *)
let payload_bytes_per_entry t =
  match t.entries with
  | Explicit entries ->
    if Array.length entries = 0 then 0 else String.length entries.(0).e_msg
  | Dense d -> d.msg_bytes

let wire_bytes ~clients t =
  Wire.distilled_batch_bytes ~clients ~count:(count t)
    ~msg_bytes:(payload_bytes_per_entry t) ~stragglers:(straggler_count t)

(* The ids whose signatures are checked one by one, in order: an explicit
   batch's stragglers, a dense batch's sampled stragglers. *)
let signed_count t =
  match t.entries with
  | Explicit _ -> Array.length t.stragglers
  | Dense d -> Array.length d.straggler_sample

let signed_id t k =
  match t.entries with
  | Explicit _ -> t.stragglers.(k).s_id
  | Dense d -> fst d.straggler_sample.(k)

let sig_pk dir t k = Option.map (fun c -> c.Types.sig_pk) (Directory.find dir (signed_id t k))

(* The first half of [verify]: every check that needs neither a signature
   key nor cryptography, then the reducers' aggregate key ([Some None]
   without reducers).  [None] when the batch fails them.  No bound can
   overflow. *)
let read_agg_pk dir t =
  match t.entries with
  | Explicit entries ->
    let n = Array.length entries in
    (* Sorted ids lie in [0, size) when the first and the last do. *)
    if not (strictly_sorted (fun e -> e.e_id) entries
            && (n = 0 || (entries.(0).e_id >= 0 && entries.(n - 1).e_id < Directory.size dir)))
    then None
    else (
      match (reducer_ids t, t.agg_sig) with
      | [], None -> Some None
      | [], Some _ | _ :: _, None -> None
      | reducers, Some _ -> Some (Some (Directory.aggregate_ms_pks dir reducers)))
  | Dense d ->
    let reduced = d.count - d.straggler_count in
    if not (d.count > 0 && d.straggler_count >= 0 && d.straggler_count <= d.count
            && d.first_id >= 0
            && d.count <= Directory.dense_count dir - d.first_id
            && Array.for_all (fun (id, _) -> is_straggler_dense d id) d.straggler_sample)
    then None
    else (
      match t.agg_sig with
      | None when reduced = 0 -> Some None
      | Some _ when reduced > 0 ->
        Some (Some (Directory.aggregate_ms_pks_range dir ~first:d.first_id ~count:reduced))
      | None | Some _ -> None)

(* The signature key of every signed id, or [None] if one has no card. *)
let read_sig_pks dir t =
  let pks = Array.make (signed_count t) Field61.zero in
  let rec fill k =
    k = Array.length pks
    ||
    match sig_pk dir t k with
    | Some pk -> pks.(k) <- pk; fill (k + 1)
    | None -> false
  in
  if fill 0 then Some pks else None

(* The second half: every signature of [t] under the keys read for it. *)
let signatures_hold t sig_pks agg_pk =
  (match t.entries with
   | Explicit entries ->
     Array.for_all2
       (fun pk s ->
         (* [entries] are strictly sorted: a binary search finds the one
            entry with this id. *)
         match search (fun e -> e.e_id) entries s.s_id with
         | -1 -> false
         | i ->
           Schnorr.verify pk
             (Types.message_statement ~id:s.s_id ~seq:s.s_seq entries.(i).e_msg)
             s.s_sig)
       sig_pks t.stragglers
   | Dense d ->
     (* The sample of straggler signatures is genuinely checked. *)
     Array.for_all2
       (fun pk (id, s) ->
         Schnorr.verify pk
           (Types.message_statement ~id ~seq:(dense_straggler_seq d) (dense_message d id))
           s)
       sig_pks d.straggler_sample)
  &&
  match (agg_pk, t.agg_sig) with
  | Some pk, Some agg ->
    Multisig.verify pk (Types.reduction_statement ~root:(reduction_root t)) agg
  | _ -> true

let verify dir t =
  match read_agg_pk dir t with
  | None -> false
  | Some agg_pk ->
    (match read_sig_pks dir t with
     | None -> false
     | Some sig_pks -> signatures_hold t sig_pks agg_pk)

(* Re-reads every signed id's key and compares it with [pks] in place: a
   verdict reused by many servers costs no array per server. *)
let same_sig_pks dir t pks =
  let rec go k =
    k = Array.length pks
    || (match sig_pk dir t k with Some pk -> Field61.equal pk pks.(k) | None -> false)
       && go (k + 1)
  in
  go 0

let check dir t =
  match read_agg_pk dir t with
  | None -> false
  | Some agg_pk ->
    let r = roots t in
    (match r.verdict with
     | Some v when Option.equal Field61.equal v.agg_pk agg_pk && same_sig_pks dir t v.sig_pks ->
       v.ok
     | _ ->
       (match read_sig_pks dir t with
        | None -> false
        | Some sig_pks ->
          let ok = signatures_hold t sig_pks agg_pk in
          r.verdict <- Some { sig_pks; agg_pk; ok };
          ok))

(* The full well-formedness check.  For a fully distilled 65,536-message
   batch this matches the paper's §3.2 anchor (2.19 ms per batch: public
   key aggregation dominates; root recomputation and sortedness ride
   within the measured figure), degrading to the classic 61.7 ms anchor
   when every entry is a straggler. *)
let witness_cpu_work t =
  let n = count t and s = straggler_count t and r = reduced_count t in
  let msg = payload_bytes_per_entry t in
  Cpu.work
    ~parallel:
      (Cost.ed25519_batch_verify s
      +. (if r > 0 then Cost.bls_aggregate_pks r else 0.)
      +. (float_of_int (n * (msg + 4)) *. Cost.serialize_per_byte))
    ~serial:(if r > 0 then Cost.bls_verify else 0.)

let delivery_cpu_work t =
  let n = count t in
  let msg = payload_bytes_per_entry t in
  Cpu.parallel
    ((float_of_int n *. Cost.dedup_per_message)
    +. (float_of_int (n * (msg + 4)) *. Cost.serialize_per_byte))

let make_explicit ~broker ~number ~entries ~agg_seq ~stragglers ~agg_sig =
  if not (strictly_sorted (fun e -> e.e_id) entries) then
    invalid_arg "Batch.make_explicit: entries must be sorted strictly by id";
  let stragglers = Array.copy stragglers in
  Array.sort (fun a b -> Int.compare a.s_id b.s_id) stragglers;
  { broker; number; entries = Explicit entries; agg_seq; stragglers; agg_sig;
    roots = no_roots }

let of_reduction_tree ~broker ~number ~entries ~agg_seq ~stragglers ~agg_sig tree =
  if Merkle.leaf_count tree <> Array.length entries then
    invalid_arg "Batch.of_reduction_tree: tree and entries differ in length";
  let t = make_explicit ~broker ~number ~entries ~agg_seq ~stragglers ~agg_sig in
  (roots t).reduction <- Some (Merkle.root tree);
  t

let forge_dense dir ~broker ~number ~first_id ~count ~msg_bytes ~tag ~straggler_count =
  if straggler_count < 0 || straggler_count > count then
    invalid_arg "Batch.forge_dense: bad straggler_count";
  let reduced = count - straggler_count in
  let d0 =
    { first_id; count; msg_bytes; tag; straggler_count; straggler_sample = [||] }
  in
  (* Sequence numbers advance with the round tag so replayed ranges stay
     fresh: the aggregate sequence number is the tag itself. *)
  let agg_seq = tag in
  let sample_size = min straggler_count 16 in
  let sample =
    Array.init sample_size (fun i ->
        let id = first_id + count - 1 - i in
        let kp = Directory.dense_keypair dir id in
        let msg = dense_message d0 id in
        ( id,
          Schnorr.sign kp.Types.sig_sk
            (Types.message_statement ~id ~seq:(dense_straggler_seq d0) msg) ))
  in
  let d = { d0 with straggler_sample = sample } in
  let agg_sig =
    if reduced = 0 then None
    else begin
      let agg_sk = Directory.aggregate_dense_ms_sks_range dir ~first:first_id ~count:reduced in
      let root = dense_root "reduction" d agg_seq in
      Some (Multisig.sign agg_sk (Types.reduction_statement ~root))
    end
  in
  { broker; number; entries = Dense d; agg_seq; stragglers = [||]; agg_sig;
    roots = no_roots }
