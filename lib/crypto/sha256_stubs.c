/* One-shot SHA-256 digests on the x86 SHA extensions (SHA-NI).

   The only C in the repository.  [Sha256] probes the CPU once at module
   initialisation; where the probe fails, or on any target other than
   x86-64 with a GCC-compatible compiler, it digests in OCaml and this
   file contributes a probe that answers false.

   Each digest is one call: the input is absorbed into a context on the C
   stack (whole blocks straight from the caller's strings, a partial block
   through a 64-byte buffer), padded there, and only the 32-byte result is
   allocated, after the last read of an input string.  The calls run
   without the OCaml runtime lock being released and raise nothing. */

#include <stdint.h>
#include <string.h>
#include <caml/alloc.h>
#include <caml/mlvalues.h>

#if defined(__x86_64__) && defined(__GNUC__)

#include <cpuid.h>
#include <immintrin.h>

static const uint32_t K[64] __attribute__((aligned(16))) = {
  0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
  0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
  0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
  0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
  0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
  0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
  0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
  0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
  0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
  0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
  0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2
};

/* SHA (leaf 7, EBX bit 29) for the round and schedule instructions,
   SSSE3 (leaf 1, ECX bit 9) for the byte shuffle and alignr, SSE4.1
   (leaf 1, ECX bit 19) for the blend. */
value caml_sha256_ni_probe(value unit)
{
  unsigned int a, b, c, d;
  (void)unit;
  if (!__get_cpuid(1, &a, &b, &c, &d)) return Val_false;
  if (!(c & (1u << 9)) || !(c & (1u << 19))) return Val_false;
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return Val_false;
  return Val_bool(b & (1u << 29));
}

/* The SHA-NI round instruction keeps the working variables as two
   vectors, ABEF and CDGH.  Each iteration of the round loop runs four
   rounds (two [sha256rnds2]) on message words w[4i .. 4i+3], held in
   [w[i % 4]], and extends the schedule with [sha256msg1]/[sha256msg2]
   four words at a time. */
__attribute__((target("sha,sse4.1,ssse3")))
static void compress_ni(uint32_t state[8], const uint8_t *p, intnat n)
{
  const __m128i bswap =
    _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i abef, cdgh, tmp, msg, w[4];

  tmp = _mm_shuffle_epi32(_mm_loadu_si128((const __m128i *)&state[0]), 0xB1);
  cdgh = _mm_shuffle_epi32(_mm_loadu_si128((const __m128i *)&state[4]), 0x1B);
  abef = _mm_alignr_epi8(tmp, cdgh, 8);
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);

  for (; n > 0; n--, p += 64) {
    const __m128i abef_in = abef, cdgh_in = cdgh;
#pragma GCC unroll 4
    for (int i = 0; i < 4; i++)
      w[i] = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 16 * i)), bswap);
#pragma GCC unroll 16
    for (int i = 0; i < 16; i++) {
      msg = _mm_add_epi32(w[i % 4], _mm_load_si128((const __m128i *)&K[4 * i]));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, msg);
      if (i >= 3 && i < 15) {
        tmp = _mm_alignr_epi8(w[i % 4], w[(i + 3) % 4], 4);
        w[(i + 1) % 4] = _mm_sha256msg2_epu32(_mm_add_epi32(w[(i + 1) % 4], tmp), w[i % 4]);
      }
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(msg, 0x0E));
      if (i >= 1 && i < 13)
        w[(i + 3) % 4] = _mm_sha256msg1_epu32(w[(i + 3) % 4], w[i % 4]);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  tmp = _mm_shuffle_epi32(abef, 0x1B);
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128((__m128i *)&state[0], _mm_blend_epi16(tmp, cdgh, 0xF0));
  _mm_storeu_si128((__m128i *)&state[4], _mm_alignr_epi8(cdgh, tmp, 8));
}

typedef struct {
  uint32_t h[8];
  uint8_t buf[64];
  size_t len;                   /* bytes pending in [buf] */
  uint64_t total;               /* message length in bytes */
} ctx;

static void init(ctx *c)
{
  static const uint32_t iv[8] = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19
  };
  memcpy(c->h, iv, sizeof iv);
  c->len = 0;
  c->total = 0;
}

static void feed(ctx *c, const uint8_t *p, size_t n)
{
  c->total += n;
  if (c->len > 0) {
    size_t take = 64 - c->len < n ? 64 - c->len : n;
    memcpy(c->buf + c->len, p, take);
    c->len += take;
    p += take;
    n -= take;
    if (c->len < 64) return;
    compress_ni(c->h, c->buf, 1);
    c->len = 0;
  }
  if (n >= 64) {
    compress_ni(c->h, p, (intnat)(n / 64));
    p += n & ~(size_t)63;
    n &= 63;
  }
  memcpy(c->buf, p, n);
  c->len = n;
}

static void feed_string(ctx *c, value s)
{
  feed(c, (const uint8_t *)String_val(s), caml_string_length(s));
}

/* Pad (0x80, zeros to byte 56 of a block, a second block when fewer than
   9 bytes are left, then the big-endian bit length) and allocate the
   big-endian digest. */
static value finish(ctx *c)
{
  uint64_t bits = c->total * 8;
  c->buf[c->len++] = 0x80;
  if (c->len > 56) {
    memset(c->buf + c->len, 0, 64 - c->len);
    compress_ni(c->h, c->buf, 1);
    c->len = 0;
  }
  memset(c->buf + c->len, 0, 56 - c->len);
  for (int i = 0; i < 8; i++) c->buf[56 + i] = (uint8_t)(bits >> (56 - 8 * i));
  compress_ni(c->h, c->buf, 1);
  value out = caml_alloc_string(32);
  uint8_t *o = (uint8_t *)Bytes_val(out);
  for (int i = 0; i < 8; i++) {
    o[4 * i] = (uint8_t)(c->h[i] >> 24);
    o[4 * i + 1] = (uint8_t)(c->h[i] >> 16);
    o[4 * i + 2] = (uint8_t)(c->h[i] >> 8);
    o[4 * i + 3] = (uint8_t)c->h[i];
  }
  return out;
}

/* Digest of [tag] as one byte (none when [tag] is negative), then [a],
   then [b]: a plain digest, a Merkle leaf or a Merkle node. */
value caml_sha256_ni_digest(value tag, value a, value b)
{
  ctx c;
  init(&c);
  if (Long_val(tag) >= 0) {
    uint8_t t = (uint8_t)Long_val(tag);
    feed(&c, &t, 1);
  }
  feed_string(&c, a);
  feed_string(&c, b);
  return finish(&c);
}

/* Digest of the concatenation of a string list. */
value caml_sha256_ni_digest_list(value l)
{
  ctx c;
  init(&c);
  for (; Is_block(l); l = Field(l, 1)) feed_string(&c, Field(l, 0));
  return finish(&c);
}

#else

#include <stdlib.h>

value caml_sha256_ni_probe(value unit)
{
  (void)unit;
  return Val_false;
}

/* Unreachable: [Sha256] calls these only after the probe answered true. */
value caml_sha256_ni_digest(value tag, value a, value b)
{
  (void)tag; (void)a; (void)b;
  abort();
}

value caml_sha256_ni_digest_list(value l)
{
  (void)l;
  abort();
}

#endif
