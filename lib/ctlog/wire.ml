(* Line-based wire format shared by Ctlog.Server and Ctlog.Fetch.

   A body is newline-separated lines followed by a trailing integrity
   line ["end <sha256-hex of everything before it>"].  The checksum is
   what lets the fetch client distinguish a torn page (transport
   truncation / bit corruption — retryable) from well-formed data whose
   *content* is bad (a corrupt DER — quarantinable). *)

let hex_digits = "0123456789abcdef"

let to_hex s =
  let n = String.length s in
  let b = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let c = Char.code s.[i] in
    Bytes.set b (2 * i) hex_digits.[c lsr 4];
    Bytes.set b ((2 * i) + 1) hex_digits.[c land 0xf]
  done;
  Bytes.unsafe_to_string b

let of_hex s =
  let n = String.length s in
  if n mod 2 <> 0 then None
  else begin
    (* -1 marks a non-hex character. *)
    let nib c =
      match c with
      | '0' .. '9' -> Char.code c - Char.code '0'
      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
      | _ -> -1
    in
    let b = Bytes.create (n / 2) in
    let ok = ref true in
    for i = 0 to (n / 2) - 1 do
      let hi = nib s.[2 * i] and lo = nib s.[(2 * i) + 1] in
      if hi < 0 || lo < 0 then ok := false
      else Bytes.set b i (Char.chr ((hi lsl 4) lor lo))
    done;
    if !ok then Some (Bytes.to_string b) else None
  end

let seal lines =
  let payload = String.concat "\n" lines ^ "\n" in
  payload ^ "end " ^ Ucrypto.Sha256.hex payload ^ "\n"

(* Validate the checksum and return the payload lines; [None] for a
   torn body. *)
let open_ body =
  match String.rindex_opt body '\n' with
  | None -> None
  | Some last ->
      (* The final line is "end <hex>\n"; find its start. *)
      let body = String.sub body 0 last in
      let start =
        match String.rindex_opt body '\n' with Some i -> i + 1 | None -> 0
      in
      let trailer = String.sub body start (String.length body - start) in
      let payload = String.sub body 0 start in
      if String.length trailer >= 4 && String.sub trailer 0 4 = "end " then begin
        let sum = String.sub trailer 4 (String.length trailer - 4) in
        if String.equal sum (Ucrypto.Sha256.hex payload) then
          Some
            (String.split_on_char '\n' payload
            |> List.filter (fun l -> l <> ""))
        else None
      end
      else None
