(* Line-based wire format shared by Ctlog.Server and Ctlog.Fetch.

   A body is newline-separated lines followed by a trailing integrity
   line ["end <sha256-hex of everything before it>"].  The checksum is
   what lets the fetch client distinguish a torn page (transport
   truncation / bit corruption — retryable) from well-formed data whose
   *content* is bad (a corrupt DER — quarantinable). *)

let to_hex = Ucrypto.Hex.encode
let of_hex = Ucrypto.Hex.decode

(* The frame is sized up front and filled in place: payload, then the
   trailer over the payload's bytes. *)
let seal lines =
  let payload = List.fold_left (fun n l -> n + String.length l + 1) 0 lines in
  let b = Bytes.create (payload + 69) in
  let pos =
    List.fold_left
      (fun pos l ->
        let n = String.length l in
        Bytes.blit_string l 0 b pos n;
        Bytes.unsafe_set b (pos + n) '\n';
        pos + n + 1)
      0 lines
  in
  let sum = Ucrypto.Sha256.hex_sub (Bytes.unsafe_to_string b) ~off:0 ~len:pos in
  Bytes.blit_string "end " 0 b pos 4;
  Bytes.blit_string sum 0 b (pos + 4) 64;
  Bytes.unsafe_set b (pos + 68) '\n';
  Bytes.unsafe_to_string b

(* The non-empty lines of [s] that end before [stop], in order. *)
let lines_before s stop =
  let acc = ref [] and lo = ref 0 in
  for i = 0 to stop - 1 do
    if String.unsafe_get s i = '\n' then begin
      if i > !lo then acc := String.sub s !lo (i - !lo) :: !acc;
      lo := i + 1
    end
  done;
  List.rev !acc

(* Validate the checksum and return the payload lines; [None] for a
   torn body.  The payload is hashed in place. *)
let open_ body =
  match String.rindex_opt body '\n' with
  | None -> None
  | Some last ->
      (* The final line is "end <hex>\n"; find its start. *)
      let start =
        match String.rindex_from_opt body (last - 1) '\n' with
        | Some i -> i + 1
        | None -> 0
      in
      if last - start = 68
         && String.sub body start 4 = "end "
         && String.sub body (start + 4) 64 = Ucrypto.Sha256.hex_sub body ~off:0 ~len:start
      then Some (lines_before body start)
      else None
