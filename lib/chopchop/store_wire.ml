(* Post-deduplication batch outcome: (id, seqno, message) triples for
   explicit entries, four sequence numbers for a dense range. *)
let wal_op_bytes (op : Proto.wal_op) =
  match op with
  | Proto.Wal_ops entries ->
    Array.fold_left
      (fun acc (_, _, msg) -> acc + 8 + Wire.seqno_bytes + String.length msg)
      0 entries
  | Proto.Wal_bulk _ -> 4 * Wire.seqno_bytes

let wal_record_bytes (r : Proto.wal_record) =
  match r with
  | Proto.Wal_batch { w_ops; _ } ->
    Wire.header_bytes + 8 + 8 + Wire.hash_bytes + wal_op_bytes w_ops
  | Proto.Wal_signup _ -> Wire.header_bytes + 8 + Wire.keycard_bytes + 8
  | Proto.Wal_reconfig _ -> Wire.header_bytes + 16 + Wire.pk_bytes + 8

let checkpoint_bytes (ck : Proto.checkpoint) =
  let last_msg_bytes =
    List.fold_left
      (fun acc (_, _, msg) -> acc + 8 + Wire.seqno_bytes + String.length msg)
      0 ck.Proto.ck_last_msg
  in
  Wire.header_bytes + (3 * 8) (* position, messages, counts *)
  + last_msg_bytes
  + (List.length ck.Proto.ck_dense_last * 3 * Wire.seqno_bytes)
  + List.fold_left
      (fun acc (_, _, above) -> acc + ((3 + List.length above) * 8))
      0 ck.Proto.ck_windows (* broker, mark, count, numbers above *)
  + (List.length ck.Proto.ck_signups * 8)
  + (List.length ck.Proto.ck_cards * Wire.keycard_bytes)
  + (match ck.Proto.ck_app with Some s -> String.length s | None -> 0)
  + 8 (* epoch *)
  + (List.length ck.Proto.ck_members * 9) (* active flag + generation *)

let sync_response_bytes ~checkpoint ~records =
  let ck_bytes =
    match checkpoint with Some ck -> checkpoint_bytes ck | None -> 0
  in
  Wire.header_bytes + (3 * 8) + ck_bytes
  + List.fold_left (fun acc r -> acc + wal_record_bytes r) 0 records
