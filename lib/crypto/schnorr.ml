type secret_key = Field61.t
type public_key = Field61.t
type signature = { r : Field61.t; s : Field61.t }

(* Any nonzero element generates the additive group Z_p (p prime); a fixed
   odd constant keeps transcripts readable. *)
let generator = Field61.of_int 7

let scale x = Field61.mul generator x

let public_key_of_secret sk = scale sk

let keygen next64 =
  let sk = Field61.random next64 in
  (sk, scale sk)

let keygen_deterministic ~seed =
  let sk = Field61.of_bytes (Sha256.digest ("keygen|" ^ seed)) in
  (sk, scale sk)

let enc x = Decimal.of_int (Field61.to_int x)

let challenge ~r ~pk msg =
  Field61.of_bytes (Sha256.digest_list [ "chal|"; enc r; "|"; enc pk; "|"; msg ])

let sign sk msg =
  (* Deterministic nonce, Ed25519-style: k = H(sk || m). *)
  let k = Field61.of_bytes (Sha256.digest_list [ "nonce|"; enc sk; "|"; msg ]) in
  let r = scale k in
  let e = challenge ~r ~pk:(scale sk) msg in
  let s = Field61.add k (Field61.mul e sk) in
  { r; s }

(* Verification equation: s*G = R + e*pk  (additive Schnorr). *)
let verify pk msg { r; s } =
  let e = challenge ~r ~pk msg in
  Field61.equal (scale s) (Field61.add r (Field61.mul e pk))

(* Each entry costs one digest and two multiplications; a random linear
   combination would add a transcript digest and one more digest per
   entry.  The amortisation Ed25519 batching buys is charged by
   [Cost.ed25519_batch_verify], not executed here. *)
let batch_verify entries = List.for_all (fun (pk, msg, sg) -> verify pk msg sg) entries

let pp_signature fmt { r; s } = Format.fprintf fmt "(%a,%a)" Field61.pp r Field61.pp s

let signature_equal a b = Field61.equal a.r b.r && Field61.equal a.s b.s

let forge_garbage () = { r = Field61.of_int 1; s = Field61.of_int 1 }
