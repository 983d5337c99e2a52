(** Textbook RSA with PKCS#1 v1.5 signatures over SHA-256.

    Built entirely on {!Bignum}.  Key sizes are configurable and small
    by default (the study never attacks cryptography — see DESIGN.md);
    the signing and verification paths are nonetheless algorithmically
    standard, so chain verification in the experiments exercises real
    signature checks. *)

type public = { n : Bignum.t; e : Bignum.t }
type key = { public : public; d : Bignum.t }

val generate : ?bits:int -> Prng.t -> key
(** [generate ~bits g] produces a key with a [bits]-bit modulus
    (default 256).  [e] is 65537 (regenerating primes if needed for
    coprimality). *)

val sign : key -> string -> string
(** [sign key msg] is the PKCS#1 v1.5 signature over SHA-256([msg]),
    sized to the modulus. *)

val verify : public -> msg:string -> signature:string -> bool
(** [verify pub ~msg ~signature] checks the padding and digest. *)

val public_to_der : public -> string
(** [public_to_der pub] is an RSAPublicKey SEQUENCE (PKCS#1) in DER —
    embedded in SubjectPublicKeyInfo by the certificate layer. *)
