let pk_bytes = 32
let sig_bytes = 64
let seqno_bytes = 8
let multisig_bytes = 192
let hash_bytes = 32

let id_bits ~clients =
  if clients <= 1 then 1
  else begin
    let rec bits n acc = if n = 0 then acc else bits (n lsr 1) (acc + 1) in
    bits (clients - 1) 0
  end

(* Fractional bytes per identifier under bit packing (3.5 for 257 M). *)
let id_bytes ~clients = float_of_int (id_bits ~clients) /. 8.

let classic_payload_bytes ~msg_bytes = pk_bytes + seqno_bytes + msg_bytes + sig_bytes

let classic_batch_bytes ~count ~msg_bytes = count * classic_payload_bytes ~msg_bytes

let distilled_entry_bytes ~clients ~msg_bytes =
  id_bytes ~clients +. float_of_int msg_bytes

let distilled_batch_bytes ~clients ~count ~msg_bytes ~stragglers =
  let entries = float_of_int count *. distilled_entry_bytes ~clients ~msg_bytes in
  let exceptions = stragglers * (seqno_bytes + sig_bytes) in
  multisig_bytes + seqno_bytes + int_of_float (ceil entries) + exceptions

let header_bytes = 16

(* Legitimacy certificate: one aggregated multi-signature, the delivery
   counter and a signer bitmap (f+1 out of n servers). *)
let legitimacy_cert_bytes = multisig_bytes + seqno_bytes + 8

(* Causal trace context piggybacked on submissions: 4 B root id + 1 B hop. *)
let trace_ctx_bytes = Repro_trace.Trace.Ctx.wire_bytes

let submission_bytes ~clients ~msg_bytes =
  header_bytes
  + int_of_float (ceil (id_bytes ~clients))
  + seqno_bytes + msg_bytes + sig_bytes + legitimacy_cert_bytes
  + trace_ctx_bytes

let inclusion_bytes ~count =
  let depth =
    if count <= 1 then 1
    else int_of_float (ceil (log (float_of_int count) /. log 2.))
  in
  header_bytes + hash_bytes + seqno_bytes + (depth * hash_bytes) + legitimacy_cert_bytes

let reduction_bytes = header_bytes + hash_bytes + multisig_bytes

let witness_request_bytes = header_bytes + hash_bytes
let witness_shard_bytes = header_bytes + hash_bytes + multisig_bytes
let witness_bytes = multisig_bytes + 8 (* aggregate + signer bitmap *)

let stob_submission_bytes = header_bytes + hash_bytes + witness_bytes

let completion_shard_bytes ~exceptions =
  header_bytes + hash_bytes + multisig_bytes + seqno_bytes
  + (exceptions * (8 + seqno_bytes))

let delivery_cert_bytes = header_bytes + hash_bytes + multisig_bytes + seqno_bytes + 8

(* --- durable state & state transfer (lib/store) ----------------------- *)

let keycard_bytes = 2 * pk_bytes

let sync_request_bytes = header_bytes + 8
