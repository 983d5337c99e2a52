(* CRC-32 (the zlib/IEEE polynomial, reflected form).  The checksum
   loop is the slicing-by-8 C kernel in crc32_stubs.c; this module
   checks ranges. *)

external init : unit -> unit = "unicert_crc32_init" [@@noalloc]

(* [unsafe_sub s pos len]: unchecked, callers keep [pos + len] within
   [s]. *)
external unsafe_sub : string -> int -> int -> int = "unicert_crc32_sub" [@@noalloc]

(* Fills the kernel's tables once, before any other domain exists. *)
let () = init ()

let sub s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then invalid_arg "Store.Crc32.sub";
  unsafe_sub s pos len

let string s = unsafe_sub s 0 (String.length s)
