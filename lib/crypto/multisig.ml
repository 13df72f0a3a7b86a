type secret_key = Field61.t
type public_key = Field61.t
type signature = Field61.t

let generator = Field61.of_int 11

let scale x = Field61.mul generator x

let public_key_of_secret sk = scale sk

let keygen next64 =
  let sk = Field61.random next64 in
  (sk, scale sk)

let keygen_deterministic ~seed =
  let sk = Field61.of_bytes (Sha256.digest ("ms-keygen|" ^ seed)) in
  (sk, scale sk)

let hash_to_field msg = Field61.of_bytes (Sha256.digest ("ms-h2f|" ^ msg))

let sign sk msg = Field61.mul sk (hash_to_field msg)

let aggregate_signatures sigs = List.fold_left Field61.add Field61.zero sigs

let aggregate_public_keys pks = List.fold_left Field61.add Field61.zero pks

let aggregate_public_keys_by key l =
  List.fold_left (fun acc x -> Field61.add acc (key x)) Field61.zero l

(* Shares are x_i * H(m); the aggregate is (Σ x_i) * H(m).  Scaling it by G
   must equal H(m) * Σ pk_i since pk_i = x_i * G. *)
let verify agg_pk msg agg_sig =
  Field61.equal (scale agg_sig) (Field61.mul (hash_to_field msg) agg_pk)

let verify_multi pks msg agg_sig = verify (aggregate_public_keys pks) msg agg_sig

let signature_equal = Field61.equal
let pp_signature = Field61.pp

let find_invalid entries msg =
  let arr = Array.of_list entries in
  let n = Array.length arr in
  let bad = ref [] in
  (* Verify the aggregate over [lo, hi); recurse into halves on failure.
     A singleton failing range pinpoints an invalid share. *)
  let rec search lo hi =
    if lo < hi then begin
      let pks = ref Field61.zero and sigs = ref Field61.zero in
      for i = lo to hi - 1 do
        let pk, s = arr.(i) in
        pks := Field61.add !pks pk;
        sigs := Field61.add !sigs s
      done;
      if not (verify !pks msg !sigs) then
        if hi - lo = 1 then bad := lo :: !bad
        else begin
          let mid = lo + ((hi - lo) / 2) in
          search lo mid;
          search mid hi
        end
    end
  in
  search 0 n;
  List.rev !bad

let drop_indices bad l =
  let rec go i bad l acc =
    match (l, bad) with
    | [], _ -> List.rev acc
    | _ :: rest, b :: bad' when b = i -> go (i + 1) bad' rest acc
    | _, b :: bad' when b < i -> go i bad' l acc
    | x :: rest, _ -> go (i + 1) bad rest (x :: acc)
  in
  go 0 bad l []

let forge_garbage () = Field61.of_int 1

let aggregate_secret_keys sks = List.fold_left Field61.add Field61.zero sks

let diff_secret_keys a b = Field61.sub a b
