(** A minimal TLS 1.2 wire format (RFC 5246): record layer plus the
    handshake messages whose plaintext visibility the §6.2 traffic
    obfuscation threat depends on — ClientHello (with SNI),
    ServerHello, and the Certificate message.

    In TLS 1.2 and earlier the server certificate crosses the wire in
    clear, which is why middleboxes can match on its fields at all; the
    substrate below produces and parses exactly those bytes. *)

type record = { content_type : int; version : int * int; payload : string }
(** One TLS record; [content_type] 22 is handshake. *)

val encode_record : record -> string
val decode_records : string -> (record list, string) result
(** Parse a byte stream into records (strict lengths, no fragments
    across records for handshake messages in this model). *)

type handshake =
  | Client_hello of { version : int * int; random : string; sni : string option }
  | Server_hello of { version : int * int; random : string }
  | Certificate of string list  (** DER certificates, leaf first *)
  | Other of int * string      (** message type, raw body *)

(** {1 Flows} *)

type flow = string
(** A captured byte stream (client→server and server→client
    interleaved is out of scope; a flow is one direction). *)

val client_hello_flow : ?sni:string -> Ucrypto.Prng.t -> flow
(** The client's first flight. *)

val server_flight : Ucrypto.Prng.t -> X509.Certificate.t list -> flow
(** ServerHello + Certificate — the server's first flight carrying the
    chain in clear. *)

val handshakes_of_flow : flow -> (handshake list, string) result

val server_certificates : flow -> X509.Certificate.t list
(** Extract and parse every certificate from a server flight;
    unparsable entries are skipped (as a middlebox would). *)

val sni_of_flow : flow -> string option
