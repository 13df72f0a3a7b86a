module Field61 = Repro_crypto.Field61
module Multisig = Repro_crypto.Multisig
module Int_table = Repro_sim.Int_table

(* Dense identities are deterministic functions of their index, so their
   keypairs and secret-scalar prefix sums are memoised — per population
   (one deployment: a directory and its replicas), never
   process-wide.  Only the indices actually touched are ever materialised:
   a 257 M-client directory costs nothing until a range is queried.  A
   range's aggregate public key is derived from its secret sum: pk = x·G
   is linear, so it equals the sum of the range's public keys. *)

let zero_sk = Multisig.aggregate_secret_keys []

type population = {
  mutable sk_prefix : Multisig.secret_key array;
  mutable prefix_len : int;
  keypairs : Types.keypair Int_table.t; (* by dense id; never iterated *)
}

let ensure_prefix pop upto =
  if upto + 1 > pop.prefix_len then begin
    let needed = upto + 1 in
    let cap = Array.length pop.sk_prefix in
    if needed > cap then begin
      let sk = Array.make (max needed (2 * cap)) zero_sk in
      Array.blit pop.sk_prefix 0 sk 0 pop.prefix_len;
      pop.sk_prefix <- sk
    end;
    let sk = pop.sk_prefix in
    for i = pop.prefix_len to needed - 1 do
      (* Prefix building does not need the signature keypair: derive only
         the multisig scalar to keep first-touch cost down. *)
      let ms_sk, _ =
        Multisig.keygen_deterministic ~seed:(Types.dense_seed (i - 1))
      in
      sk.(i) <- Multisig.aggregate_secret_keys [ sk.(i - 1); ms_sk ]
    done;
    pop.prefix_len <- needed
  end

type t = {
  dense : int;
  pop : population;
  explicit : Types.keycard array ref;
  mutable explicit_len : int;
}

let replica t =
  { t with
    explicit = ref (Array.make 16 { Types.sig_pk = Field61.zero; ms_pk = Field61.zero });
    explicit_len = 0 }

let create ?(dense_count = 0) () =
  replica
    { dense = dense_count; explicit = ref [||]; explicit_len = 0;
      pop =
        { sk_prefix = Array.make 1 zero_sk; prefix_len = 1;
          keypairs = Int_table.create 4096 } }

let dense_keypair t i =
  match Int_table.find t.pop.keypairs i with
  | kp -> kp
  | exception Not_found ->
    let kp = Types.dense_keypair i in
    Int_table.add t.pop.keypairs i kp;
    kp

let dense_count t = t.dense
let size t = t.dense + t.explicit_len

let append t card =
  let id = t.dense + t.explicit_len in
  let arr = !(t.explicit) in
  if t.explicit_len = Array.length arr then begin
    let bigger = Array.make (2 * Array.length arr) card in
    Array.blit arr 0 bigger 0 t.explicit_len;
    t.explicit := bigger
  end;
  !(t.explicit).(t.explicit_len) <- card;
  t.explicit_len <- t.explicit_len + 1;
  id

let explicit_cards t = Array.to_list (Array.sub !(t.explicit) 0 t.explicit_len)

let find t id =
  if id < 0 then None
  else if id < t.dense then Some (dense_keypair t id).card
  else if id - t.dense < t.explicit_len then Some !(t.explicit).(id - t.dense)
  else None

let sig_pk t id =
  match find t id with Some c -> c.Types.sig_pk | None -> raise Not_found

let ms_pk t id =
  match find t id with Some c -> c.Types.ms_pk | None -> raise Not_found

let aggregate_ms_pks t ids =
  Multisig.aggregate_public_keys_by (ms_pk t) ids

let sk_range name t ~first ~count =
  if first < 0 || count < 0 || count > t.dense - first then
    invalid_arg ("Directory." ^ name ^ ": outside dense population");
  ensure_prefix t.pop (first + count);
  Multisig.diff_secret_keys t.pop.sk_prefix.(first + count) t.pop.sk_prefix.(first)

let aggregate_ms_pks_range t ~first ~count =
  Multisig.public_key_of_secret
    (sk_range "aggregate_ms_pks_range" t ~first ~count)

let aggregate_dense_ms_sks_range t = sk_range "aggregate_dense_ms_sks_range" t
