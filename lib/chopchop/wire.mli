(** Wire-format sizing.

    Every byte count the network model charges comes from here, using the
    paper's encoding constants (§2.1, §3.2, Figs. 2–3) — independent of the
    in-memory representation of the simulation-grade crypto:

    - Ed25519: 32 B public keys, 64 B signatures;
    - BLS12-381: 192 B uncompressed multi-signatures (96 B compressed);
    - sequence numbers: 8 B;
    - client identifiers: ⌈bits(client-count)/8⌉ with bit packing —
      28 bits = 3.5 B for the paper's 257 M simulated clients.

    The paper's headline arithmetic is reproduced exactly: a classic
    8 B-message payload is 112 B; a fully distilled batch of 65,536
    messages is ~736 KB (11.5 B per message). *)

val pk_bytes : int (* 32 *)
val seqno_bytes : int (* 8 *)
val hash_bytes : int (* 32 *)

val id_bits : clients:int -> int
(** Bits needed for an identifier in a directory of [clients]. *)

val classic_payload_bytes : msg_bytes:int -> int
(** Public key + sequence number + message + signature (112 for 8 B). *)

val classic_batch_bytes : count:int -> msg_bytes:int -> int

val distilled_entry_bytes : clients:int -> msg_bytes:int -> float
(** Identifier + message only (11.5 B for 8 B messages, 257 M clients). *)

val distilled_batch_bytes :
  clients:int -> count:int -> msg_bytes:int -> stragglers:int -> int
(** Aggregate signature and sequence number, packed (id, msg) entries, and
    one (seqno + signature) exception per straggler. *)

val header_bytes : int
(** Fixed per-message protocol header (framing, type tag). *)

val trace_ctx_bytes : int
(** Causal trace context carried by submissions (root id + hop). *)

val submission_bytes : clients:int -> msg_bytes:int -> int
(** Client → broker first message (#2): id, seqno, message, individual
    signature, legitimacy certificate reference, trace context. *)

val inclusion_bytes : count:int -> int
(** Broker → client (#4): root, aggregate seqno, Merkle proof, evidence. *)

val reduction_bytes : int
(** Client → broker (#6): root reference + multi-signature share. *)

val witness_request_bytes : int
val witness_shard_bytes : int

val stob_submission_bytes : int
(** Broker's submission to the server-run Atomic Broadcast (#12):
    batch hash + witness. *)

val completion_shard_bytes : exceptions:int -> int
val delivery_cert_bytes : int

(** {2 Durable state and state transfer (lib/store)}

    Sizes that depend on the {!Proto} record types live in {!Store_wire}
    (keeping this module free of a Wire → Proto → Batch → Wire cycle). *)

val keycard_bytes : int
(** An explicit directory entry: signature + multisig public key. *)

val sync_request_bytes : int
