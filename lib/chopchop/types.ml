type client_id = int
type sequence_number = int
type message = string

type keycard = {
  sig_pk : Repro_crypto.Schnorr.public_key;
  ms_pk : Repro_crypto.Multisig.public_key;
}

type keypair = {
  sig_sk : Repro_crypto.Schnorr.secret_key;
  ms_sk : Repro_crypto.Multisig.secret_key;
  card : keycard;
}

let keypair_of_seed seed =
  let sig_sk, sig_pk = Repro_crypto.Schnorr.keygen_deterministic ~seed in
  let ms_sk, ms_pk = Repro_crypto.Multisig.keygen_deterministic ~seed in
  { sig_sk; ms_sk; card = { sig_pk; ms_pk } }

let dense_seed i = "dense-client-" ^ string_of_int i

let dense_keypair i = keypair_of_seed (dense_seed i)

let message_statement ~id ~seq msg =
  let enc = Repro_crypto.Decimal.of_int in
  String.concat "|" [ "message"; enc id; enc seq; msg ]

let reduction_statement ~root = "reduction|" ^ root
