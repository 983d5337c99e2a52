/* SHA-256 compression (FIPS 180-4) for Ucrypto.Sha256.

   One entry, [unicert_sha256_blocks state buf off nblocks], runs the
   compression function over [nblocks] 64-byte blocks of [buf] starting
   at byte [off], updating [state] (an OCaml int array of the eight
   32-bit chaining words) in place.  It never allocates and never
   raises; the OCaml side checks the bounds.

   Two paths compute the same function:
   - the x86 SHA extensions (SHA-NI), compiled per function with
     __attribute__((target(...))) and used when CPUID reports SHA,
     SSSE3 and SSE4.1;
   - a portable C loop, the only path built off x86-64.
   [unicert_sha256_select] picks one once, when the OCaml module
   initialises, before any other domain can hash.  The two
   [_portable]/[_accel] entries run one path directly, for the tests
   that compare them. */

#include <stddef.h>
#include <stdint.h>

#include <caml/mlvalues.h>

#if defined(__x86_64__) && defined(__GNUC__)
#define UNICERT_SHA_NI 1
#include <cpuid.h>
#include <immintrin.h>
#endif

static const uint32_t K[64] = {
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
  0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

/* --- portable path ---------------------------------------------------- */

#define ROR(x, n) (((x) >> (n)) | ((x) << (32 - (n))))
#define BSIG0(x) (ROR(x, 2) ^ ROR(x, 13) ^ ROR(x, 22))
#define BSIG1(x) (ROR(x, 6) ^ ROR(x, 11) ^ ROR(x, 25))
#define SSIG0(x) (ROR(x, 7) ^ ROR(x, 18) ^ ((x) >> 3))
#define SSIG1(x) (ROR(x, 17) ^ ROR(x, 19) ^ ((x) >> 10))
#define CH(e, f, g) ((g) ^ ((e) & ((f) ^ (g))))
#define MAJ(a, b, c) (((a) & (b)) | ((c) & ((a) | (b))))

/* Schedule word [j + i] of a 16-word window kept in [w]: the first 16
   are the block's words, later ones are extended in place. */
#define W(i)                                                            \
  (j == 0 ? w[i]                                                        \
          : (w[i] += SSIG1(w[((i) + 14) & 15]) + w[((i) + 9) & 15]      \
                     + SSIG0(w[((i) + 1) & 15])))

/* Round [j + i] with the working variables passed under rotated names,
   so no round moves all eight. */
#define ROUND(a, b, c, d, e, f, g, h, i)                                \
  do {                                                                  \
    uint32_t t1 = (h) + BSIG1(e) + CH(e, f, g) + K[j + (i)] + W(i);     \
    (d) += t1;                                                          \
    (h) = t1 + BSIG0(a) + MAJ(a, b, c);                                 \
  } while (0)

static inline uint32_t load_be32(const uint8_t *p)
{
  return ((uint32_t)p[0] << 24) | ((uint32_t)p[1] << 16)
         | ((uint32_t)p[2] << 8) | (uint32_t)p[3];
}

static void blocks_portable(uint32_t s[8], const uint8_t *p, size_t n)
{
  uint32_t w[16];
  for (; n > 0; n--, p += 64) {
    uint32_t a = s[0], b = s[1], c = s[2], d = s[3];
    uint32_t e = s[4], f = s[5], g = s[6], h = s[7];
    for (int i = 0; i < 16; i++) w[i] = load_be32(p + 4 * i);
    for (int j = 0; j < 64; j += 16) {
      ROUND(a, b, c, d, e, f, g, h, 0);
      ROUND(h, a, b, c, d, e, f, g, 1);
      ROUND(g, h, a, b, c, d, e, f, 2);
      ROUND(f, g, h, a, b, c, d, e, 3);
      ROUND(e, f, g, h, a, b, c, d, 4);
      ROUND(d, e, f, g, h, a, b, c, 5);
      ROUND(c, d, e, f, g, h, a, b, 6);
      ROUND(b, c, d, e, f, g, h, a, 7);
      ROUND(a, b, c, d, e, f, g, h, 8);
      ROUND(h, a, b, c, d, e, f, g, 9);
      ROUND(g, h, a, b, c, d, e, f, 10);
      ROUND(f, g, h, a, b, c, d, e, 11);
      ROUND(e, f, g, h, a, b, c, d, 12);
      ROUND(d, e, f, g, h, a, b, c, 13);
      ROUND(c, d, e, f, g, h, a, b, 14);
      ROUND(b, c, d, e, f, g, h, a, 15);
    }
    s[0] += a; s[1] += b; s[2] += c; s[3] += d;
    s[4] += e; s[5] += f; s[6] += g; s[7] += h;
  }
}

/* --- SHA-NI path ------------------------------------------------------ */

#ifdef UNICERT_SHA_NI

/* The SHA instructions keep the state as two vectors, ABEF and CDGH,
   and take the message four words at a time: group j of the schedule
   (rounds 4j..4j+3) is
   msg2(msg1(W[j-4], W[j-3]) + alignr(W[j-1], W[j-2]), W[j-1]). */
__attribute__((target("sha,ssse3,sse4.1")))
static void blocks_shani(uint32_t s[8], const uint8_t *p, size_t n)
{
  const __m128i bswap =
    _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  __m128i tmp = _mm_loadu_si128((const __m128i *)&s[0]);
  __m128i st1 = _mm_loadu_si128((const __m128i *)&s[4]);
  tmp = _mm_shuffle_epi32(tmp, 0xB1);           /* CDAB */
  st1 = _mm_shuffle_epi32(st1, 0x1B);           /* EFGH */
  __m128i st0 = _mm_alignr_epi8(tmp, st1, 8);   /* ABEF */
  st1 = _mm_blend_epi16(st1, tmp, 0xF0);        /* CDGH */

  for (; n > 0; n--, p += 64) {
    __m128i abef = st0, cdgh = st1, w[4];
#pragma GCC unroll 16
    for (int j = 0; j < 16; j++) {
      if (j < 4) {
        w[j] = _mm_shuffle_epi8(
          _mm_loadu_si128((const __m128i *)(p + 16 * j)), bswap);
      } else {
        __m128i prev = w[(j + 3) & 3];
        __m128i m = _mm_sha256msg1_epu32(w[j & 3], w[(j + 1) & 3]);
        m = _mm_add_epi32(m, _mm_alignr_epi8(prev, w[(j + 2) & 3], 4));
        w[j & 3] = _mm_sha256msg2_epu32(m, prev);
      }
      __m128i m = _mm_add_epi32(
        w[j & 3], _mm_loadu_si128((const __m128i *)&K[4 * j]));
      st1 = _mm_sha256rnds2_epu32(st1, st0, m);
      st0 = _mm_sha256rnds2_epu32(st0, st1, _mm_shuffle_epi32(m, 0x0E));
    }
    st0 = _mm_add_epi32(st0, abef);
    st1 = _mm_add_epi32(st1, cdgh);
  }

  tmp = _mm_shuffle_epi32(st0, 0x1B);           /* FEBA */
  st1 = _mm_shuffle_epi32(st1, 0xB1);           /* DCHG */
  st0 = _mm_blend_epi16(tmp, st1, 0xF0);        /* DCBA */
  st1 = _mm_alignr_epi8(st1, tmp, 8);           /* HGFE */
  _mm_storeu_si128((__m128i *)&s[0], st0);
  _mm_storeu_si128((__m128i *)&s[4], st1);
}

static int shani_supported(void)
{
  unsigned int a, b, c, d;
  if (!__get_cpuid(1, &a, &b, &c, &d)) return 0;
  if (!(c & bit_SSSE3) || !(c & bit_SSE4_1)) return 0;
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return 0;
  return (b & bit_SHA) != 0;
}

#endif

/* --- OCaml entries ---------------------------------------------------- */

typedef void (*blocks_fn)(uint32_t[8], const uint8_t *, size_t);

static blocks_fn kernel = blocks_portable;

static void run(blocks_fn fn, value state, value buf, value off, value nblocks)
{
  uint32_t s[8];
  for (int i = 0; i < 8; i++) s[i] = (uint32_t)Long_val(Field(state, i));
  fn(s, (const uint8_t *)String_val(buf) + Long_val(off),
     (size_t)Long_val(nblocks));
  /* Immediates need no write barrier. */
  for (int i = 0; i < 8; i++) Field(state, i) = Val_long(s[i]);
}

value unicert_sha256_select(value unit)
{
  (void)unit;
#ifdef UNICERT_SHA_NI
  if (shani_supported()) {
    kernel = blocks_shani;
    return Val_true;
  }
#endif
  return Val_false;
}

value unicert_sha256_blocks(value state, value buf, value off, value nblocks)
{
  run(kernel, state, buf, off, nblocks);
  return Val_unit;
}

value unicert_sha256_blocks_portable(value state, value buf, value off,
                                     value nblocks)
{
  run(blocks_portable, state, buf, off, nblocks);
  return Val_unit;
}

/* Only called when [unicert_sha256_select] returned true. */
value unicert_sha256_blocks_accel(value state, value buf, value off,
                                  value nblocks)
{
#ifdef UNICERT_SHA_NI
  run(blocks_shani, state, buf, off, nblocks);
#else
  run(blocks_portable, state, buf, off, nblocks);
#endif
  return Val_unit;
}
