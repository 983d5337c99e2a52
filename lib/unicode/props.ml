let is_c0_control cp = cp >= 0x00 && cp <= 0x1F
let is_del cp = cp = 0x7F
let is_c1_control cp = cp >= 0x80 && cp <= 0x9F
let is_control cp = is_c0_control cp || is_del cp || is_c1_control cp

(* Interval/range-chain implementations.  These remain the source of
   truth: the flat BMP table below is generated from them at module
   init, they serve code points beyond the BMP directly, and the test
   suite checks the table against them over the full code-point
   range. *)
module Ref = struct
  let is_layout_control cp =
    (cp >= 0x200B && cp <= 0x200F)
    || (cp >= 0x202A && cp <= 0x202E)
    || (cp >= 0x2060 && cp <= 0x2064)
    || (cp >= 0x2066 && cp <= 0x206F)
    || cp = 0x2028 || cp = 0x2029

  let is_bidi_control cp =
    cp = 0x061C || cp = 0x200E || cp = 0x200F
    || (cp >= 0x202A && cp <= 0x202E)
    || (cp >= 0x2066 && cp <= 0x2069)

  let is_format cp =
    cp = 0x00AD
    || (cp >= 0x0600 && cp <= 0x0605)
    || cp = 0x061C || cp = 0x06DD || cp = 0x070F || cp = 0x08E2
    || (cp >= 0x200B && cp <= 0x200F)
    || (cp >= 0x202A && cp <= 0x202E)
    || (cp >= 0x2060 && cp <= 0x2064)
    || (cp >= 0x2066 && cp <= 0x206F)
    || cp = 0xFEFF
    || (cp >= 0xFFF9 && cp <= 0xFFFB)
    || cp = 0x110BD
    || (cp >= 0x1BCA0 && cp <= 0x1BCA3)
    || (cp >= 0x1D173 && cp <= 0x1D17A)
    || cp = 0xE0001
    || (cp >= 0xE0020 && cp <= 0xE007F)

  let is_whitespace cp =
    (cp >= 0x0009 && cp <= 0x000D)
    || cp = 0x0020 || cp = 0x0085 || cp = 0x00A0 || cp = 0x1680
    || (cp >= 0x2000 && cp <= 0x200A)
    || cp = 0x2028 || cp = 0x2029 || cp = 0x202F || cp = 0x205F || cp = 0x3000

  let is_nonascii_whitespace cp = is_whitespace cp && cp > 0x20
end

let is_ascii_upper cp = cp >= Char.code 'A' && cp <= Char.code 'Z'
let is_ascii_lower cp = cp >= Char.code 'a' && cp <= Char.code 'z'
let is_ascii_digit cp = cp >= Char.code '0' && cp <= Char.code '9'
let is_ascii_letter cp = is_ascii_upper cp || is_ascii_lower cp
let ascii_lowercase cp = if is_ascii_upper cp then cp + 32 else cp

let is_printable_string_char cp =
  is_ascii_letter cp || is_ascii_digit cp
  ||
  match cp with
  | 0x20 (* space *) | 0x27 (* ' *) | 0x28 (* ( *) | 0x29 (* ) *)
  | 0x2B (* + *) | 0x2C (* , *) | 0x2D (* - *) | 0x2E (* . *)
  | 0x2F (* / *) | 0x3A (* : *) | 0x3D (* = *) | 0x3F (* ? *) -> true
  | _ -> false

let is_ia5_char cp = cp >= 0x00 && cp <= 0x7F
let is_visible_string_char cp = cp >= 0x20 && cp <= 0x7E
let is_numeric_string_char cp = is_ascii_digit cp || cp = 0x20

let is_teletex_char cp =
  is_visible_string_char cp || (cp >= 0xA0 && cp <= 0xFF)

let is_ldh cp = is_ascii_letter cp || is_ascii_digit cp || cp = Char.code '-'
(* Property bitmask: every class a lint tests for, resolved by one
   table load.  Bits are computed once per BMP code point at module
   init; astral code points fall back to the range chains. *)
let m_c0 = 1 lsl 0
let m_del = 1 lsl 1
let m_c1 = 1 lsl 2
let m_layout = 1 lsl 3
let m_bidi = 1 lsl 4
let m_format = 1 lsl 5
let m_whitespace = 1 lsl 6
let m_nonascii_ws = 1 lsl 7
let m_surrogate = 1 lsl 8
let m_noncharacter = 1 lsl 9
let m_replacement = 1 lsl 10
let m_nonascii = 1 lsl 11
let m_not_printable = 1 lsl 12
let m_not_visible = 1 lsl 13
let m_not_numeric = 1 lsl 14
let m_not_teletex = 1 lsl 15
let m_control = m_c0 lor m_del lor m_c1
let m_invisible = m_layout lor m_nonascii_ws

let is_noncharacter cp =
  (cp >= 0xFDD0 && cp <= 0xFDEF) || cp land 0xFFFE = 0xFFFE

let compute_mask cp =
  (if is_c0_control cp then m_c0 else 0)
  lor (if is_del cp then m_del else 0)
  lor (if is_c1_control cp then m_c1 else 0)
  lor (if Ref.is_layout_control cp then m_layout else 0)
  lor (if Ref.is_bidi_control cp then m_bidi else 0)
  lor (if Ref.is_format cp then m_format else 0)
  lor (if Ref.is_whitespace cp then m_whitespace else 0)
  lor (if Ref.is_nonascii_whitespace cp then m_nonascii_ws else 0)
  lor (if Cp.is_surrogate cp then m_surrogate else 0)
  lor (if is_noncharacter cp then m_noncharacter else 0)
  lor (if cp = 0xFFFD then m_replacement else 0)
  lor (if cp > 0x7F then m_nonascii else 0)
  lor (if is_printable_string_char cp then 0 else m_not_printable)
  lor (if is_visible_string_char cp then 0 else m_not_visible)
  lor (if is_numeric_string_char cp then 0 else m_not_numeric)
  lor (if is_teletex_char cp then 0 else m_not_teletex)

(* Built eagerly: module initialisation is single-threaded, so the
   table is read-only by the time `Par` domains touch it. *)
let bmp_masks = Array.init 0x10000 compute_mask

let mask cp =
  if cp lsr 16 = 0 then Array.unsafe_get bmp_masks cp else compute_mask cp

let is_layout_control cp = mask cp land m_layout <> 0
let is_bidi_control cp = mask cp land m_bidi <> 0
let is_format cp = mask cp land m_format <> 0
let is_whitespace cp = mask cp land m_whitespace <> 0
let is_nonascii_whitespace cp = mask cp land m_nonascii_ws <> 0
let is_invisible cp = mask cp land m_invisible <> 0
