(* Tests for the cryptographic substrate: SHA-256 against FIPS vectors,
   field arithmetic laws, Schnorr and multi-signature behaviour, Merkle
   inclusion proofs. *)

open Repro_crypto

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let qtest ?(count = 300) ?long_factor name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ?long_factor ~name gen prop)

let rng = Repro_sim.Rng.create 7L
let next64 () = Repro_sim.Rng.next64 rng

let field_gen = QCheck.map (fun i -> Field61.of_int i) QCheck.int

(* --- SHA-256 ---------------------------------------------------------- *)

let sha_vectors =
  [ ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
    ( "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno" ^
      "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
      "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1" ) ]

let test_sha_vectors () =
  List.iter
    (fun (input, expected) ->
      check Alcotest.string input expected (Sha256.to_hex (Sha256.digest input));
      check Alcotest.string (input ^ " (reference)") expected
        (Sha256.to_hex (Sha256.reference_digest input)))
    sha_vectors

let test_sha_million_a () =
  check Alcotest.string "10^6 x 'a'"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.to_hex (Sha256.digest (String.make 1_000_000 'a')))

let test_sha_incremental () =
  (* Feeding in arbitrary splits must match the one-shot digest. *)
  let s = String.init 1000 (fun i -> Char.chr (i mod 256)) in
  let expected = Sha256.digest s in
  List.iter
    (fun chunk ->
      let ctx = Sha256.init () in
      let rec go i =
        if i < String.length s then begin
          let len = min chunk (String.length s - i) in
          Sha256.feed ctx (String.sub s i len);
          go (i + len)
        end
      in
      go 0;
      checkb (Printf.sprintf "chunk %d" chunk) true (Sha256.finalize ctx = expected))
    [ 1; 3; 63; 64; 65; 1000 ]

let test_sha_digest_list () =
  checkb "digest_list = digest of concat" true
    (Sha256.digest_list [ "foo"; "bar"; "baz" ] = Sha256.digest "foobarbaz")

(* Lengths around the padding boundaries: 55 is the longest message whose
   padding fits its last block, 56..63 spill into a second block, and 64,
   119/120 and 128 land on or next to block edges.  Byte i of each message
   is (7i + 3) mod 256; the digests were produced once with Python's
   hashlib:
   python3 -c 'import hashlib; print(hashlib.sha256(bytes((i*7+3)&255
     for i in range(N))).hexdigest())' *)
let boundary_message n = String.init n (fun i -> Char.chr (((i * 7) + 3) land 255))

let sha_boundary_vectors =
  [ (55, "e7313d333c272e639f790978283f9eb392e843d0f29b7016828bb1daa4aac70b");
    (56, "4324d65f3c103567f5589c710bc08f8523f929a9272e3af36fc968e52abc6c27");
    (63, "81c80242132f230c3bd41b3e63bbcff16107339549214a99614ff26664625055");
    (64, "39e3d7b6b5d075d37d053ad89b24b41bef4f3c29760c84447cab3f3be1882241");
    (65, "aacca6ff74fdbb296d165a45cecfa04e5127bc008770fbbdd48006f2d2fae95e");
    (119, "9ce7368e4daf32341631b492e80359dc9f594b48453cd0dd5bf0b19279cc177e");
    (120, "7836b787757e95e58b3ca5aec90b1b004e8deba1e50e9675af9cabf1a13a04b5");
    (128, "d2742f1f4ac6bb7ca2b239ee18402ba8b3f9f8e652d2a72973c2b9ba11c08cf6") ]

let feed_parts parts =
  let ctx = Sha256.init () in
  List.iter (Sha256.feed ctx) parts;
  Sha256.finalize ctx

let test_sha_boundaries () =
  List.iter
    (fun (n, expected) ->
      let m = boundary_message n in
      let name what = Printf.sprintf "%d bytes, %s" n what in
      check Alcotest.string (name "one shot") expected (Sha256.to_hex (Sha256.digest m));
      check Alcotest.string (name "reference") expected
        (Sha256.to_hex (Sha256.reference_digest m));
      check Alcotest.string (name "1-byte chunks") expected
        (Sha256.to_hex (feed_parts (List.init n (fun i -> String.make 1 m.[i]))));
      if n > 0 then
        check Alcotest.string (name "tagged") expected
          (Sha256.to_hex
             (Sha256.digest_tagged m.[0] (String.sub m 1 (n / 2))
                (String.sub m (1 + (n / 2)) (n - 1 - (n / 2)))));
      List.iter
        (fun cut ->
          if cut <= n then
            check Alcotest.string
              (name (Printf.sprintf "%d+%d split" cut (n - cut)))
              expected
              (Sha256.to_hex
                 (feed_parts [ String.sub m 0 cut; String.sub m cut (n - cut) ])))
        [ 63; 64 ];
      check Alcotest.string (name "digest_list") expected
        (Sha256.to_hex
           (Sha256.digest_list
              [ String.sub m 0 (n / 3); String.sub m (n / 3) (n - (n / 3)) ])))
    sha_boundary_vectors

let printf_hex s =
  String.to_seq s
  |> Seq.map (fun c -> Printf.sprintf "%02x" (Char.code c))
  |> List.of_seq |> String.concat ""

(* The digests in use ([Sha256.kernel]) against the OCaml reference:
   every entry point, with the input cut into random pieces, so a piece
   often starts at an odd offset into a part-filled block.  The tagged
   digest takes the first byte as its tag and the rest cut in two.  Under
   QCHECK_LONG (scripts/ci.sh) the property runs 20,100 cases. *)
let split_at s cuts =
  let rec go from = function
    | [] -> [ String.sub s from (String.length s - from) ]
    | c :: rest -> String.sub s from (c - from) :: go c rest
  in
  go 0 cuts

let agrees_with_reference s cuts =
  let expected = Sha256.reference_digest s and pieces = split_at s cuts in
  let n = String.length s in
  let tagged () =
    let cut = match cuts with c :: _ when c > 0 -> c | _ -> 1 in
    Sha256.digest_tagged s.[0] (String.sub s 1 (cut - 1)) (String.sub s cut (n - cut))
  in
  Sha256.digest s = expected
  && Sha256.digest_list pieces = expected
  && feed_parts pieces = expected
  && (n = 0 || tagged () = expected)

let sha_input =
  let open QCheck.Gen in
  let* s = string_size (int_bound 1100) in
  let* cuts = list_size (int_bound 6) (int_bound (String.length s)) in
  return (s, List.sort_uniq compare cuts)

let test_sha_kernel () =
  let k = Sha256.kernel () in
  Printf.printf "sha256 kernel: %s\n" k;
  checkb "a known kernel" true (k = "sha-ni" || k = "ocaml");
  (* Where the CPU lists the three extensions, the probe must find them. *)
  match In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all with
  | exception Sys_error _ -> ()
  | info ->
    let flags = String.split_on_char ' ' (String.map (function '\t' | '\n' -> ' ' | c -> c) info) in
    if List.for_all (fun f -> List.mem f flags) [ "sha_ni"; "ssse3"; "sse4_1" ] then
      check Alcotest.string "cpuinfo lists sha_ni" "sha-ni" k

let test_sha_kernel_boundaries () =
  let rng = Random.State.make [| 28 |] in
  let random n = String.init n (fun _ -> Char.chr (Random.State.int rng 256)) in
  List.iter
    (fun n ->
      let s = random n in
      checkb (Printf.sprintf "%d bytes" n) true
        (agrees_with_reference s [ n / 2 ] && agrees_with_reference s []))
    [ 0; 1; 55; 56; 63; 64; 65; 119; 120; 127; 128; 129 ];
  (* A multi-block [feed] whose first whole block starts at an odd offset
     of the string: the buffer holds [k] bytes, the top-up takes [64 - k]. *)
  let big = random 1000 in
  List.iter
    (fun k ->
      let ctx = Sha256.init () in
      Sha256.feed ctx (String.sub big 0 k);
      Sha256.feed ctx (String.sub big k (1000 - k));
      checkb (Printf.sprintf "%d-byte head" k) true
        (Sha256.finalize ctx = Sha256.reference_digest big))
    [ 1; 3; 31; 33; 63 ]

(* Every one-shot entry point at every length up to a few blocks, and a
   Merkle node's 65 bytes (tag, left, right) cut at every point. *)
let test_sha_one_shot () =
  let rng = Random.State.make [| 30 |] in
  let random n = String.init n (fun _ -> Char.chr (Random.State.int rng 256)) in
  for n = 0 to 200 do
    let s = random n in
    let expected = Sha256.reference_digest s in
    let name what = Printf.sprintf "%d bytes, %s" n what in
    checkb (name "digest") true (Sha256.digest s = expected);
    checkb (name "digest_list") true (Sha256.digest_list [ s ] = expected);
    if n > 0 then
      checkb (name "tagged") true
        (Sha256.digest_tagged s.[0] (String.sub s 1 (n - 1)) "" = expected)
  done;
  let node = random 65 in
  let expected = Sha256.reference_digest node in
  for k = 0 to 64 do
    checkb (Printf.sprintf "node, left %d bytes" k) true
      (Sha256.digest_tagged node.[0] (String.sub node 1 k) (String.sub node (1 + k) (64 - k))
       = expected);
    checkb (Printf.sprintf "node as a list cut at %d" k) true
      (Sha256.digest_list [ String.sub node 0 k; String.sub node k (65 - k) ] = expected)
  done;
  checkb "empty list" true (Sha256.digest_list [] = Sha256.reference_digest "");
  checkb "empty parts" true
    (Sha256.digest_list [ ""; "abc"; ""; ""; "def"; "" ] = Sha256.reference_digest "abcdef");
  let l = random 32 and r = random 32 in
  let leaf x = Sha256.reference_digest ("\x00" ^ x) in
  checkb "merkle root of two leaves" true
    (Merkle.root (Merkle.build [| l; r |])
     = Sha256.reference_digest ("\x01" ^ leaf l ^ leaf r))

let suite_sha_props =
  [ qtest ~count:200 "to_hex matches the %02x rendering"
      QCheck.(string_of_size (Gen.return 32))
      (fun s -> Sha256.to_hex s = printf_hex s);
    qtest ~count:300 ~long_factor:67 "kernel agrees with the reference"
      (QCheck.make
         ~print:(fun (s, cuts) ->
           Printf.sprintf "%d bytes, cut at [%s]" (String.length s)
             (String.concat "; " (List.map string_of_int cuts)))
         sha_input)
      (fun (s, cuts) -> agrees_with_reference s cuts) ]

let test_hmac_rfc4231 () =
  check Alcotest.string "case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Sha256.to_hex (Sha256.hmac ~key:(String.make 20 '\x0b') "Hi There"));
  check Alcotest.string "case 2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Sha256.to_hex (Sha256.hmac ~key:"Jefe" "what do ya want for nothing?"));
  check Alcotest.string "case 6 (long key)"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (Sha256.to_hex
       (Sha256.hmac
          ~key:(String.make 131 '\xaa')
          "Test Using Larger Than Block-Size Key - Hash Key First"))

(* --- Field61 ------------------------------------------------------------ *)

let test_field_basics () =
  checkb "p is 2^61-1" true (Field61.p = (1 lsl 61) - 1);
  checkb "canonical of_int" true (Field61.to_int (Field61.of_int Field61.p) = 0);
  checkb "negative of_int" true
    (Field61.equal (Field61.of_int (-1)) (Field61.of_int (Field61.p - 1)))

(* [Field61.of_bytes] as it folded one byte at a time, before it read
   words: bytes [7k .. 7k+6] form the little-endian word [k]. *)
let of_bytes_bytewise s =
  let n = String.length s in
  let acc = ref Field61.zero and word = ref 0 in
  for i = 0 to n - 1 do
    word := !word lor (Char.code s.[i] lsl (8 * (i mod 7)));
    if i mod 7 = 6 || i = n - 1 then begin
      acc :=
        Field61.add (Field61.mul !acc (Field61.of_int 1_099_511_628_211)) (Field61.of_int !word);
      word := 0
    end
  done;
  Field61.to_int (if Field61.equal !acc Field61.zero then Field61.one else !acc)

let suite_field =
  [ qtest "mul matches double-and-add reference"
      QCheck.(pair field_gen field_gen)
      (fun (a, b) -> Field61.equal (Field61.mul a b) (Field61.mul_slow a b));
    qtest "addition commutes" QCheck.(pair field_gen field_gen)
      (fun (a, b) -> Field61.equal (Field61.add a b) (Field61.add b a));
    qtest "multiplication commutes" QCheck.(pair field_gen field_gen)
      (fun (a, b) -> Field61.equal (Field61.mul a b) (Field61.mul b a));
    qtest "distributivity" QCheck.(triple field_gen field_gen field_gen)
      (fun (a, b, c) ->
        Field61.equal
          (Field61.mul a (Field61.add b c))
          (Field61.add (Field61.mul a b) (Field61.mul a c)));
    qtest "sub inverts add" QCheck.(pair field_gen field_gen)
      (fun (a, b) -> Field61.equal (Field61.sub (Field61.add a b) b) a);
    qtest "inverse law" field_gen (fun a ->
        QCheck.assume (not (Field61.equal a Field61.zero));
        Field61.equal (Field61.mul a (Field61.inv a)) Field61.one);
    qtest ~count:50 "pow matches repeated mul" QCheck.(pair field_gen (int_bound 200))
      (fun (a, e) ->
        let rec naive acc i = if i = 0 then acc else naive (Field61.mul acc a) (i - 1) in
        Field61.equal (Field61.pow a e) (naive Field61.one e));
    qtest ~count:50 "fermat little theorem" field_gen (fun a ->
        QCheck.assume (not (Field61.equal a Field61.zero));
        Field61.equal (Field61.pow a (Field61.p - 1)) Field61.one);
    qtest ~count:500 ~long_factor:40 "of_bytes matches the byte-wise fold"
      QCheck.(string_of_size (Gen.int_bound 100))
      (fun s -> Field61.to_int (Field61.of_bytes s) = of_bytes_bytewise s) ]

let test_field_of_bytes () =
  checkb "empty gives one" true (Field61.equal (Field61.of_bytes "") Field61.one);
  let rng = Random.State.make [| 61 |] in
  for n = 0 to 80 do
    List.iter
      (fun s ->
        Alcotest.(check int) (Printf.sprintf "%d bytes" n) (of_bytes_bytewise s)
          (Field61.to_int (Field61.of_bytes s)))
      [ String.make n '\xff'; String.make n '\x00';
        String.init n (fun _ -> Char.chr (Random.State.int rng 256)) ]
  done

let test_field_random_range () =
  for _ = 1 to 1000 do
    let x = Field61.to_int (Field61.random next64) in
    assert (x >= 0 && x < Field61.p)
  done

(* --- Decimal ------------------------------------------------------------- *)

let decimal_edges =
  [ min_int; min_int + 1; max_int; max_int - 1; 0; 1; -1; 9; 10; -9; -10; 99; 100;
    -100; 1_000_000_007; -1_000_000_007; Field61.p; -Field61.p ]

let fields_reference a b rest = String.concat "|" [ string_of_int a; string_of_int b; rest ]

let test_decimal_edges () =
  List.iter
    (fun n -> check Alcotest.string (string_of_int n) (string_of_int n) (Decimal.of_int n))
    decimal_edges;
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          check Alcotest.string "fields"
            (fields_reference a b "m") (Decimal.fields a b "m"))
        decimal_edges)
    decimal_edges

let suite_decimal =
  [ qtest ~count:500 ~long_factor:40 "of_int = string_of_int" QCheck.int (fun n ->
        Decimal.of_int n = string_of_int n);
    qtest ~count:500 ~long_factor:40 "of_int = string_of_int on every magnitude"
      QCheck.(pair (int_bound 62) int)
      (fun (bits, n) ->
        let n = n asr (62 - bits) in
        Decimal.of_int n = string_of_int n);
    qtest ~count:500 ~long_factor:40 "fields = the concatenated parts"
      QCheck.(triple int (pair (int_bound 62) int) string)
      (fun (a, (bits, b), rest) ->
        let b = b asr (62 - bits) in
        Decimal.fields a b rest = fields_reference a b rest) ]

(* --- Schnorr --------------------------------------------------------------- *)

let test_schnorr_roundtrip () =
  let sk, pk = Schnorr.keygen next64 in
  let s = Schnorr.sign sk "the message" in
  checkb "verifies" true (Schnorr.verify pk "the message" s);
  checkb "wrong message fails" false (Schnorr.verify pk "the messagE" s);
  let _, pk2 = Schnorr.keygen next64 in
  checkb "wrong key fails" false (Schnorr.verify pk2 "the message" s);
  checkb "garbage fails" false (Schnorr.verify pk "the message" (Schnorr.forge_garbage ()))

let test_schnorr_deterministic () =
  let sk, pk = Schnorr.keygen_deterministic ~seed:"alice" in
  let _, pk' = Schnorr.keygen_deterministic ~seed:"alice" in
  checkb "same seed same key" true
    (Field61.equal (Schnorr.public_key_of_secret sk) pk && Field61.equal pk pk');
  let _, pk2 = Schnorr.keygen_deterministic ~seed:"bob" in
  checkb "different seed different key" false (Field61.equal pk pk2);
  checkb "deterministic signatures" true
    (Schnorr.signature_equal (Schnorr.sign sk "m") (Schnorr.sign sk "m"))

let suite_schnorr_props =
  [ qtest ~count:100 "sign/verify for arbitrary messages" QCheck.string (fun m ->
        let sk, pk = Schnorr.keygen_deterministic ~seed:"prop" in
        Schnorr.verify pk m (Schnorr.sign sk m));
    qtest ~count:100 "batch verification accepts honest batches"
      QCheck.(list_of_size (Gen.int_range 1 20) small_string)
      (fun msgs ->
        let entries =
          List.mapi
            (fun i m ->
              let sk, pk = Schnorr.keygen_deterministic ~seed:(string_of_int i) in
              (pk, m, Schnorr.sign sk m))
            msgs
        in
        Schnorr.batch_verify entries);
    qtest ~count:100 "batch verification rejects any corrupted entry"
      QCheck.(list_of_size (Gen.int_range 1 12) small_string)
      (fun msgs ->
        (* At each position, a garbage signature and one made for another
           message; every other entry is valid. *)
        let entries =
          List.mapi
            (fun i m ->
              let sk, pk = Schnorr.keygen_deterministic ~seed:(string_of_int i) in
              (sk, pk, m))
            msgs
        in
        let with_forgery bad forge =
          List.mapi
            (fun i (sk, pk, m) -> (pk, m, if i = bad then forge sk m else Schnorr.sign sk m))
            entries
        in
        List.for_all
          (fun bad ->
            not (Schnorr.batch_verify (with_forgery bad (fun _ _ -> Schnorr.forge_garbage ())))
            && not (Schnorr.batch_verify (with_forgery bad (fun sk m -> Schnorr.sign sk (m ^ "'")))))
          (List.init (List.length msgs) Fun.id)) ]

let test_batch_verify_empty () = checkb "empty batch ok" true (Schnorr.batch_verify [])

(* --- Multisig ----------------------------------------------------------------- *)

let keys n = List.init n (fun i -> Multisig.keygen_deterministic ~seed:("ms" ^ string_of_int i))

let test_multisig_single () =
  let sk, pk = Multisig.keygen next64 in
  let s = Multisig.sign sk "root" in
  checkb "single share verifies" true (Multisig.verify pk "root" s);
  checkb "wrong message fails" false (Multisig.verify pk "toor" s)

let test_multisig_aggregate () =
  let ks = keys 8 in
  let shares = List.map (fun (sk, _) -> Multisig.sign sk "root") ks in
  let agg = Multisig.aggregate_signatures shares in
  let pks = List.map snd ks in
  checkb "aggregate verifies" true (Multisig.verify_multi pks "root" agg);
  checkb "subset of keys fails" false
    (Multisig.verify_multi (List.tl pks) "root" agg);
  checkb "superset of keys fails" false
    (Multisig.verify_multi (snd (Multisig.keygen next64) :: pks) "root" agg)

let test_multisig_partial_aggregation () =
  (* Aggregation is associative: combining partial aggregates works
     (the broker's tree-search relies on this). *)
  let ks = keys 6 in
  let shares = List.map (fun (sk, _) -> Multisig.sign sk "r") ks in
  let left = Multisig.aggregate_signatures (List.filteri (fun i _ -> i < 3) shares) in
  let right = Multisig.aggregate_signatures (List.filteri (fun i _ -> i >= 3) shares) in
  let agg = Multisig.aggregate_signatures [ left; right ] in
  checkb "partial aggregates compose" true
    (Multisig.verify_multi (List.map snd ks) "r" agg)

let test_multisig_secret_aggregation () =
  (* The workload generator's shortcut: the sum of secrets signs like the
     aggregate of the shares. *)
  let ks = keys 5 in
  let agg_sk = Multisig.aggregate_secret_keys (List.map fst ks) in
  let direct = Multisig.sign agg_sk "root" in
  let agg =
    Multisig.aggregate_signatures (List.map (fun (sk, _) -> Multisig.sign sk "root") ks)
  in
  checkb "sum-of-secrets = aggregate-of-shares" true (Multisig.signature_equal direct agg)

let test_multisig_diff_secrets () =
  let ks = keys 4 in
  let all = Multisig.aggregate_secret_keys (List.map fst ks) in
  let head = Multisig.aggregate_secret_keys [ List.hd (List.map fst ks) ] in
  let tail_sk = Multisig.diff_secret_keys all head in
  let agg_tail =
    Multisig.aggregate_signatures
      (List.map (fun (sk, _) -> Multisig.sign sk "z") (List.tl ks))
  in
  checkb "diff of secrets signs like the tail" true
    (Multisig.signature_equal (Multisig.sign tail_sk "z") agg_tail)

let test_find_invalid () =
  let ks = keys 16 in
  let entries =
    List.mapi
      (fun i (sk, pk) ->
        let s = if i = 3 || i = 11 then Multisig.forge_garbage () else Multisig.sign sk "m" in
        (pk, s))
      ks
  in
  Alcotest.(check (list int)) "finds exactly the bad shares" [ 3; 11 ]
    (Multisig.find_invalid entries "m");
  let all_good = List.map (fun (sk, pk) -> (pk, Multisig.sign sk "m")) ks in
  Alcotest.(check (list int)) "no false positives" [] (Multisig.find_invalid all_good "m")

let test_drop_every_share () =
  (* Every share of the batch is bad: the tree search names all of them
     and nothing survives the filter. *)
  let ks = keys 64 in
  let shares = List.map (fun (_, pk) -> (pk, Multisig.forge_garbage ())) ks in
  let bad = Multisig.find_invalid shares "m" in
  Alcotest.(check (list int)) "all bad" (List.init 64 Fun.id) bad;
  Alcotest.(check int) "none kept" 0 (List.length (Multisig.drop_indices bad shares))

let suite_multisig_props =
  [ qtest ~count:200 "drop_indices = filteri over List.mem"
      QCheck.(pair (list small_nat) (list bool))
      (fun (l, marks) ->
        let n = List.length l in
        let bad =
          List.filteri (fun i _ -> i < n + 2) marks
          |> List.mapi (fun i b -> (i, b))
          |> List.filter_map (fun (i, b) -> if b then Some i else None)
        in
        Multisig.drop_indices bad l = List.filteri (fun i _ -> not (List.mem i bad)) l);
    qtest ~count:60 "find_invalid locates arbitrary corruption patterns"
      QCheck.(list_of_size (Gen.int_range 1 24) bool)
      (fun pattern ->
        let entries =
          List.mapi
            (fun i bad ->
              let sk, pk = Multisig.keygen_deterministic ~seed:("fi" ^ string_of_int i) in
              (pk, if bad then Multisig.forge_garbage () else Multisig.sign sk "x"))
            pattern
        in
        let found = Multisig.find_invalid entries "x" in
        let expected =
          List.mapi (fun i bad -> (i, bad)) pattern
          |> List.filter_map (fun (i, bad) -> if bad then Some i else None)
        in
        found = expected) ]

(* --- Merkle ----------------------------------------------------------------- *)

let test_merkle_roundtrip () =
  List.iter
    (fun n ->
      let leaves = Array.init n (fun i -> "leaf" ^ string_of_int i) in
      let t = Merkle.build leaves in
      Alcotest.(check int) "leaf_count" n (Merkle.leaf_count t);
      for i = 0 to n - 1 do
        let proof = Merkle.prove t i in
        checkb
          (Printf.sprintf "n=%d i=%d verifies" n i)
          true
          (Merkle.verify (Merkle.root t) ~leaf:leaves.(i) proof);
        Alcotest.(check int) "proof index" i (Merkle.proof_index proof)
      done)
    [ 1; 2; 3; 4; 5; 7; 8; 9; 15; 16; 17; 33; 100 ]

let test_merkle_rejects () =
  let leaves = Array.init 10 (fun i -> "L" ^ string_of_int i) in
  let t = Merkle.build leaves in
  let proof = Merkle.prove t 4 in
  checkb "wrong leaf fails" false (Merkle.verify (Merkle.root t) ~leaf:"L5" proof);
  let t2 = Merkle.build (Array.map (fun l -> l ^ "!") leaves) in
  checkb "wrong root fails" false (Merkle.verify (Merkle.root t2) ~leaf:"L4" proof)

let test_merkle_empty () =
  Alcotest.check_raises "empty vector rejected"
    (Invalid_argument "Merkle.build: empty leaf vector") (fun () ->
      ignore (Merkle.build [||]))

let test_merkle_out_of_range () =
  let t = Merkle.build [| "a"; "b" |] in
  Alcotest.check_raises "index out of range"
    (Invalid_argument "Merkle.prove: index out of range") (fun () ->
      ignore (Merkle.prove t 2))

let test_merkle_distinct_roots () =
  (* Domain separation: a two-leaf tree's root differs from the leaf hash
     of the concatenation. *)
  let t1 = Merkle.build [| "ab" |] in
  let t2 = Merkle.build [| "a"; "b" |] in
  checkb "no leaf/node confusion" false
    (Merkle.root_equal (Merkle.root t1) (Merkle.root t2))

let test_merkle_proof_size () =
  let t = Merkle.build (Array.init 65536 string_of_int) in
  let proof = Merkle.prove t 12345 in
  Alcotest.(check int) "depth 16 for 65,536 leaves" 16 (Merkle.proof_length proof);
  Alcotest.(check int) "wire size" ((16 * 32) + 8) (Merkle.proof_size_bytes proof)

let suite_merkle_props =
  [ qtest ~count:100 "random trees: every proof verifies, flipped leaf changes root"
      QCheck.(list_of_size (Gen.int_range 2 40) small_string)
      (fun leaves ->
        let arr = Array.of_list leaves in
        let t = Merkle.build arr in
        let ok = ref true in
        Array.iteri
          (fun i leaf ->
            if not (Merkle.verify (Merkle.root t) ~leaf (Merkle.prove t i)) then ok := false)
          arr;
        let arr2 = Array.copy arr in
        arr2.(0) <- arr2.(0) ^ "~";
        !ok && not (Merkle.root_equal (Merkle.root t) (Merkle.root (Merkle.build arr2)))) ]

let () =
  Alcotest.run "crypto"
    [ ("sha256",
       [ Alcotest.test_case "FIPS vectors" `Quick test_sha_vectors;
         Alcotest.test_case "million a" `Slow test_sha_million_a;
         Alcotest.test_case "incremental feeding" `Quick test_sha_incremental;
         Alcotest.test_case "digest_list" `Quick test_sha_digest_list;
         Alcotest.test_case "padding boundaries and splits" `Quick test_sha_boundaries;
         Alcotest.test_case "hmac rfc4231" `Quick test_hmac_rfc4231;
         Alcotest.test_case "kernel matches the CPU" `Quick test_sha_kernel;
         Alcotest.test_case "kernel at block boundaries" `Quick test_sha_kernel_boundaries;
         Alcotest.test_case "one-shot digests at every length" `Quick test_sha_one_shot ]
       @ suite_sha_props);
      ("field61",
       Alcotest.test_case "basics" `Quick test_field_basics
       :: Alcotest.test_case "of_bytes at every length" `Quick test_field_of_bytes
       :: Alcotest.test_case "random range" `Quick test_field_random_range
       :: suite_field);
      ("decimal", Alcotest.test_case "edges" `Quick test_decimal_edges :: suite_decimal);
      ("schnorr",
       Alcotest.test_case "roundtrip" `Quick test_schnorr_roundtrip
       :: Alcotest.test_case "deterministic" `Quick test_schnorr_deterministic
       :: Alcotest.test_case "empty batch" `Quick test_batch_verify_empty
       :: suite_schnorr_props);
      ("multisig",
       Alcotest.test_case "single" `Quick test_multisig_single
       :: Alcotest.test_case "aggregate" `Quick test_multisig_aggregate
       :: Alcotest.test_case "partial aggregation" `Quick test_multisig_partial_aggregation
       :: Alcotest.test_case "secret aggregation" `Quick test_multisig_secret_aggregation
       :: Alcotest.test_case "diff secrets" `Quick test_multisig_diff_secrets
       :: Alcotest.test_case "find_invalid" `Quick test_find_invalid
       :: Alcotest.test_case "every share bad" `Quick test_drop_every_share
       :: suite_multisig_props);
      ("merkle",
       Alcotest.test_case "roundtrip all sizes" `Quick test_merkle_roundtrip
       :: Alcotest.test_case "rejects" `Quick test_merkle_rejects
       :: Alcotest.test_case "empty" `Quick test_merkle_empty
       :: Alcotest.test_case "out of range" `Quick test_merkle_out_of_range
       :: Alcotest.test_case "domain separation" `Quick test_merkle_distinct_roots
       :: Alcotest.test_case "proof size" `Quick test_merkle_proof_size
       :: suite_merkle_props) ]
