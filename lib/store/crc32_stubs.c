/* CRC-32 (IEEE 802.3 polynomial, reflected form) for Store.Crc32.

   [unicert_crc32_sub buf off len] is the CRC-32 of [len] bytes of
   [buf] starting at byte [off].  It never allocates and never raises;
   the OCaml side checks the range.

   Slicing-by-8: eight 256-entry tables let one step fold eight input
   bytes into the running remainder, where the classic table loop folds
   one.  Table [k][b] is the remainder of byte [b] followed by [k] zero
   bytes.  Input words are assembled byte by byte, so the code reads
   the same on either byte order and at any alignment.

   [unicert_crc32_init] fills the tables.  It runs once, when the OCaml
   module initialises, before any other domain can checksum. */

#include <stddef.h>
#include <stdint.h>

#include <caml/mlvalues.h>

#define POLY 0xEDB88320u

static uint32_t table[8][256];

value unicert_crc32_init(value unit)
{
  (void)unit;
  for (uint32_t n = 0; n < 256; n++) {
    uint32_t c = n;
    for (int k = 0; k < 8; k++) c = (c & 1) ? POLY ^ (c >> 1) : c >> 1;
    table[0][n] = c;
  }
  for (uint32_t n = 0; n < 256; n++)
    for (int k = 1; k < 8; k++)
      table[k][n] = (table[k - 1][n] >> 8) ^ table[0][table[k - 1][n] & 0xFF];
  return Val_unit;
}

static inline uint32_t load_le32(const uint8_t *p)
{
  return (uint32_t)p[0] | ((uint32_t)p[1] << 8) | ((uint32_t)p[2] << 16)
         | ((uint32_t)p[3] << 24);
}

value unicert_crc32_sub(value buf, value off, value len)
{
  const uint8_t *p = (const uint8_t *)String_val(buf) + Long_val(off);
  size_t n = (size_t)Long_val(len);
  uint32_t c = 0xFFFFFFFFu;
  for (; n >= 8; n -= 8, p += 8) {
    uint32_t lo = load_le32(p) ^ c, hi = load_le32(p + 4);
    c = table[7][lo & 0xFF] ^ table[6][(lo >> 8) & 0xFF]
        ^ table[5][(lo >> 16) & 0xFF] ^ table[4][lo >> 24]
        ^ table[3][hi & 0xFF] ^ table[2][(hi >> 8) & 0xFF]
        ^ table[1][(hi >> 16) & 0xFF] ^ table[0][hi >> 24];
  }
  for (; n > 0; n--, p++) c = table[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  return Val_long(c ^ 0xFFFFFFFFu);
}
