(** Wire-format sizing for durable state and state transfer.

    Split from {!Wire} because these sizes are computed over the
    {!Proto} record types ({!Wire} itself must stay [Proto]-free to
    avoid a Wire → Proto → Batch → Wire module cycle).  Same encoding
    constants, same rules: every byte the store writes to its simulated
    device or ships to a recovering peer is priced here. *)

val wal_record_bytes : Proto.wal_record -> int

val checkpoint_bytes : Proto.checkpoint -> int
(** Serialized snapshot size: dedup tables, delivered refs, sign-up
    nonces, directory entries and the opaque application snapshot. *)

val sync_response_bytes :
  checkpoint:Proto.checkpoint option -> records:Proto.wal_record list -> int
(** State-transfer payload — these bytes ride the regular inter-server
    links and are counted by the network model like any other traffic. *)
