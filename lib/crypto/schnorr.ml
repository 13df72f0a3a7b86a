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

let challenge ~r ~pk msg =
  let enc x = string_of_int (Field61.to_int x) in
  Field61.of_bytes (Sha256.digest_list [ "chal|"; enc r; "|"; enc pk; "|"; msg ])

let sign sk msg =
  (* Deterministic nonce, Ed25519-style: k = H(sk || m). *)
  let k =
    Field61.of_bytes
      (Sha256.digest_list [ "nonce|"; string_of_int (Field61.to_int sk); "|"; msg ])
  in
  let r = scale k in
  let e = challenge ~r ~pk:(scale sk) msg in
  let s = Field61.add k (Field61.mul e sk) in
  { r; s }

(* Verification equation: s*G = R + e*pk  (additive Schnorr). *)
let verify pk msg { r; s } =
  let e = challenge ~r ~pk msg in
  Field61.equal (scale s) (Field61.add r (Field61.mul e pk))

let batch_verify entries =
  match entries with
  | [] -> true
  | entries ->
    (* Random coefficients derived from the whole batch transcript make the
       linear combination non-malleable across entries. *)
    let transcript =
      Sha256.digest_list
        (List.concat_map
           (fun (pk, msg, { r; s }) ->
             [ string_of_int (Field61.to_int pk); msg;
               string_of_int (Field61.to_int r);
               string_of_int (Field61.to_int s) ])
           entries)
    in
    let lhs = ref Field61.zero and rhs = ref Field61.zero in
    List.iteri
      (fun i (pk, msg, { r; s }) ->
        let z = Field61.of_bytes (Sha256.digest (transcript ^ string_of_int i)) in
        let e = challenge ~r ~pk msg in
        lhs := Field61.add !lhs (Field61.mul z s);
        rhs := Field61.add !rhs (Field61.add (Field61.mul z r) (Field61.mul (Field61.mul z e) pk)))
      entries;
    Field61.equal (scale !lhs) !rhs

let pp_signature fmt { r; s } = Format.fprintf fmt "(%a,%a)" Field61.pp r Field61.pp s

let signature_equal a b = Field61.equal a.r b.r && Field61.equal a.s b.s

let forge_garbage () = { r = Field61.of_int 1; s = Field61.of_int 1 }
