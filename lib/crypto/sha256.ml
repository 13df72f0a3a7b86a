(* SHA-256.  Where the CPU has the SHA extensions, every one-shot digest
   is one call into sha256_stubs.c, which absorbs, pads and compresses in
   C.  Elsewhere, and always for the streaming context, the compression
   runs in OCaml on native ints: 32-bit words live in the low bits of an
   int and are masked after every addition, and rotations work on the
   masked word doubled into the high half (see [dbl]). *)

let mask = 0xFFFF_FFFF

let k = [|
  0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
  0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
  0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
  0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
  0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
  0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
  0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
  0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
  0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
  0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
  0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

type ctx = {
  h : int array;              (* 8 state words *)
  buf : Bytes.t;              (* 64-byte block buffer *)
  mutable buf_len : int;      (* bytes pending in [buf] *)
  mutable total : int;        (* total message length in bytes *)
}

external ni_probe : unit -> bool = "caml_sha256_ni_probe" [@@noalloc]

(* [ni_digest tag a b] digests the byte [tag] (none when negative), then
   [a], then [b]; [ni_digest_list] digests a list's concatenation. *)
external ni_digest : int -> string -> string -> string = "caml_sha256_ni_digest"
external ni_digest_list : string list -> string = "caml_sha256_ni_digest_list"

(* Asked once: the CPU does not change under a running process. *)
let has_ni = ni_probe ()

let kernel () = if has_ni then "sha-ni" else "ocaml"

let init () = {
  h = [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a;
         0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |];
  buf = Bytes.create 64;
  buf_len = 0;
  total = 0;
}

(* The 64-word message schedule only lives inside one [compress] call, so
   every context of a domain shares one scratch copy instead of each
   allocating its own. *)
let schedule = Domain.DLS.new_key (fun () -> Array.make 64 0)

(* Rotations on a value doubled into the high half ([x lor (x lsl 32)]):
   bits [n, n+32) of the doubled value are [x] rotated right by [n].  All
   rotation amounts SHA-256 uses are below 32, so the doubled value never
   needs bit 63, which a native int does not have. *)
let dbl x = x lor (x lsl 32)

(* The reference compression of the block of [s] at [off] into [h]. *)
let compress h s off =
  let w = Domain.DLS.get schedule in
  for i = 0 to 15 do
    Array.unsafe_set w i
      (Int32.to_int (String.get_int32_be s (off + (4 * i))) land mask)
  done;
  for i = 16 to 63 do
    let x = Array.unsafe_get w (i - 15) and y = Array.unsafe_get w (i - 2) in
    let x2 = dbl x and y2 = dbl y in
    let s0 = ((x2 lsr 7) lxor (x2 lsr 18)) land mask lxor (x lsr 3) in
    let s1 = ((y2 lsr 17) lxor (y2 lsr 19)) land mask lxor (y lsr 10) in
    Array.unsafe_set w i
      ((Array.unsafe_get w (i - 16) + s0 + Array.unsafe_get w (i - 7) + s1) land mask)
  done;
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for i = 0 to 63 do
    let e2 = dbl !e and a2 = dbl !a in
    let s1 = ((e2 lsr 6) lxor (e2 lsr 11) lxor (e2 lsr 25)) land mask in
    let ch = (!e land !f) lxor (lnot !e land !g) in
    let t1 = !hh + s1 + ch + Array.unsafe_get k i + Array.unsafe_get w i in
    let s0 = ((a2 lsr 2) lxor (a2 lsr 13) lxor (a2 lsr 22)) land mask in
    let maj = (!a land !b) lxor (!a land !c) lxor (!b land !c) in
    hh := !g; g := !f; f := !e;
    e := (!d + t1) land mask;
    d := !c; c := !b; b := !a;
    a := (t1 + s0 + maj) land mask
  done;
  h.(0) <- (h.(0) + !a) land mask;
  h.(1) <- (h.(1) + !b) land mask;
  h.(2) <- (h.(2) + !c) land mask;
  h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask;
  h.(5) <- (h.(5) + !f) land mask;
  h.(6) <- (h.(6) + !g) land mask;
  h.(7) <- (h.(7) + !hh) land mask

let compress_buf ctx = compress ctx.h (Bytes.unsafe_to_string ctx.buf) 0

let feed ctx s =
  let n = String.length s in
  ctx.total <- ctx.total + n;
  let pos = ref 0 in
  (* Top up a partially filled buffer first. *)
  if ctx.buf_len > 0 then begin
    let take = min (64 - ctx.buf_len) n in
    Bytes.blit_string s 0 ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := take;
    if ctx.buf_len = 64 then begin
      compress_buf ctx;
      ctx.buf_len <- 0
    end
  end;
  (* Whole blocks straight from the caller's string: only a partial block
     is ever copied into [ctx.buf]. *)
  while n - !pos >= 64 do
    compress ctx.h s !pos;
    pos := !pos + 64
  done;
  if !pos < n then begin
    Bytes.blit_string s !pos ctx.buf 0 (n - !pos);
    ctx.buf_len <- n - !pos
  end

let finalize ctx =
  (* Padding, written in place: 0x80, zeros up to byte 56 of a block (a
     second block when fewer than 9 bytes are left), then the 8-byte
     big-endian bit length. *)
  let buf = ctx.buf in
  Bytes.set buf ctx.buf_len '\x80';
  let used = ctx.buf_len + 1 in
  if used > 56 then begin
    Bytes.fill buf used (64 - used) '\x00';
    compress_buf ctx;
    Bytes.fill buf 0 56 '\x00'
  end
  else Bytes.fill buf used (56 - used) '\x00';
  Bytes.set_int64_be buf 56 (Int64.of_int (ctx.total * 8));
  compress_buf ctx;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set_int32_be out (4 * i) (Int32.of_int ctx.h.(i))
  done;
  Bytes.unsafe_to_string out

let stream parts =
  let ctx = init () in
  List.iter (feed ctx) parts;
  finalize ctx

let reference_digest s = stream [ s ]

let digest s = if has_ni then ni_digest (-1) s "" else reference_digest s

let digest_list ss = if has_ni then ni_digest_list ss else stream ss

let digest_tagged tag a b =
  if has_ni then ni_digest (Char.code tag) a b else stream [ String.make 1 tag; a; b ]

let hmac ~key msg =
  let key = if String.length key > 64 then digest key else key in
  let pad fill =
    let b = Bytes.make 64 (Char.chr fill) in
    String.iteri (fun i c -> Bytes.set b i (Char.chr (Char.code c lxor fill))) key;
    Bytes.to_string b
  in
  digest (pad 0x5c ^ digest (pad 0x36 ^ msg))

let hex_digits = "0123456789abcdef"

let to_hex s =
  let b = Bytes.create (2 * String.length s) in
  for i = 0 to String.length s - 1 do
    let c = Char.code s.[i] in
    Bytes.set b (2 * i) hex_digits.[c lsr 4];
    Bytes.set b ((2 * i) + 1) hex_digits.[c land 0xF]
  done;
  Bytes.unsafe_to_string b
