type t = int

let min_value = 0x0000
let max_value = 0x10FFFF
let is_valid cp = cp >= min_value && cp <= max_value
let is_surrogate cp = cp >= 0xD800 && cp <= 0xDFFF
let is_scalar cp = is_valid cp && not (is_surrogate cp)
let is_ascii cp = cp >= 0 && cp <= 0x7F
let is_bmp cp = cp >= 0 && cp <= 0xFFFF
let to_string cp = Printf.sprintf "U+%04X" cp
