type issue =
  | Empty_name
  | Name_too_long of int
  | Empty_label
  | Label_too_long of string
  | Bad_character of string * Unicode.Cp.t
  | Leading_hyphen of string
  | Trailing_hyphen of string
  | Whitespace_in_name

let pp_issue ppf = function
  | Empty_name -> Format.fprintf ppf "empty name"
  | Name_too_long n -> Format.fprintf ppf "name length %d exceeds 253 octets" n
  | Empty_label -> Format.fprintf ppf "empty label"
  | Label_too_long l -> Format.fprintf ppf "label %S exceeds 63 octets" l
  | Bad_character (l, cp) ->
      Format.fprintf ppf "label %S contains %s" l (Unicode.Cp.to_string cp)
  | Leading_hyphen l -> Format.fprintf ppf "label %S starts with a hyphen" l
  | Trailing_hyphen l -> Format.fprintf ppf "label %S ends with a hyphen" l
  | Whitespace_in_name -> Format.fprintf ppf "whitespace inside name"

let split_labels name = String.split_on_char '.' name

(* [issues] is built back to front; [check] reverses it once at the
   end.  The offending characters of one label are prepended in index
   order, so they come out last-first: lint detail strings depend on
   that order.  Neither function builds a closure, so a clean name
   allocates only its label split. *)
let rec bad_characters label i issues =
  if i = String.length label then issues
  else
    let rest = bad_characters label (i + 1) issues in
    let cp = Char.code (String.unsafe_get label i) in
    if Unicode.Props.is_ldh cp then rest else Bad_character (label, cp) :: rest

let check_label label issues =
  if label = "" then Empty_label :: issues
  else begin
    let issues = if String.length label > 63 then Label_too_long label :: issues else issues in
    let issues = if label.[0] = '-' then Leading_hyphen label :: issues else issues in
    let issues =
      if label.[String.length label - 1] = '-' then Trailing_hyphen label :: issues
      else issues
    in
    bad_characters label 0 issues
  end

(* A trailing root dot is legal: a final empty label is not checked. *)
let rec check_labels labels issues =
  match labels with
  | [] | [ "" ] -> issues
  | label :: rest -> check_labels rest (check_label label issues)

let rec has_whitespace name i =
  i < String.length name
  && (name.[i] = ' ' || name.[i] = '\t' || has_whitespace name (i + 1))

let check ?(allow_wildcard = true) name =
  if name = "" then [ Empty_name ]
  else begin
    let issues = if String.length name > 253 then [ Name_too_long (String.length name) ] else [] in
    let issues = if has_whitespace name 0 then Whitespace_in_name :: issues else issues in
    let labels =
      match split_labels name with
      | "*" :: rest when allow_wildcard -> rest
      | labels -> labels
    in
    List.rev (check_labels labels (List.rev issues))
  end

let is_ldh_name name = check name = []

let is_a_label_candidate l =
  String.length l >= 4
  && (l.[0] = 'x' || l.[0] = 'X')
  && (l.[1] = 'n' || l.[1] = 'N')
  && l.[2] = '-' && l.[3] = '-'

(* IDN country-code TLDs (root-zone ccIDNs, A-label form).  Monitors
   that refuse "Punycode IDN ccTLD" queries (Table 6) refuse exactly
   these — an A-label under an IDN *generic* TLD (xn--q9jyb4c etc.) is
   an ordinary query that simply may match nothing. *)
let idn_cctlds =
  [ "xn--p1ai" (* .рф  Russia *);
    "xn--fiqs8s" (* .中国 China *);
    "xn--fiqz9s" (* .中國 China *);
    "xn--j6w193g" (* .香港 Hong Kong *);
    "xn--kprw13d" (* .台湾 Taiwan *);
    "xn--kpry57d" (* .台灣 Taiwan *);
    "xn--3e0b707e" (* .한국 Korea *);
    "xn--90ais" (* .бел Belarus *);
    "xn--90a3ac" (* .срб Serbia *);
    "xn--d1alf" (* .мкд North Macedonia *);
    "xn--e1a4c" (* .ею EU (Cyrillic) *);
    "xn--h2brj9c" (* .भारत India *);
    "xn--45brj9c" (* .বাংলা India *);
    "xn--s9brj9c" (* .ਭਾਰਤ India *);
    "xn--gecrj9c" (* .ભારત India *);
    "xn--xkc2dl3a5ee0h" (* .இந்தியா India *);
    "xn--fpcrj9c3d" (* .భారత్ India *);
    "xn--mgbbh1a71e" (* .بھارت India *);
    "xn--wgbh1c" (* .مصر Egypt *);
    "xn--mgberp4a5d4ar" (* .السعودية Saudi Arabia *);
    "xn--mgbaam7a8h" (* .امارات UAE *);
    "xn--mgbayh7gpa" (* .الاردن Jordan *);
    "xn--mgbc0a9azcg" (* .المغرب Morocco *);
    "xn--mgba3a4f16a" (* .ایران Iran *);
    "xn--mgbx4cd0ab" (* .مليسيا Malaysia *);
    "xn--mgbtx2b" (* .عراق Iraq *);
    "xn--mgbpl2fh" (* .سودان Sudan *);
    "xn--pgbs0dh" (* .تونس Tunisia *);
    "xn--lgbbat1ad8j" (* .الجزائر Algeria *);
    "xn--ygbi2ammx" (* .فلسطين Palestine *);
    "xn--mgb9awbf" (* .عمان Oman *);
    "xn--wgbl6a" (* .قطر Qatar *);
    "xn--4dbrk0ce" (* .ישראל Israel *);
    "xn--node" (* .გე Georgia *);
    "xn--qxam" (* .ελ Greece *);
    "xn--o3cw4h" (* .ไทย Thailand *);
    "xn--l1acc" (* .мон Mongolia *);
    "xn--j1amh" (* .укр Ukraine *);
    "xn--y9a3aq" (* .հայ Armenia *);
    "xn--clchc0ea0b2g2a9gcd" (* .சிங்கப்பூர் Singapore *);
    "xn--yfro4i67o" (* .新加坡 Singapore *);
    "xn--ogbpf8fl" (* .سورية Syria *);
    "xn--mgbtf8fl" (* .سوريا Syria *);
    "xn--fzc2c9e2c" (* .ලංකා Sri Lanka *);
    "xn--xkc2al3hye2a" (* .இலங்கை Sri Lanka *);
    "xn--mix891f" (* .澳門 Macao *);
    "xn--mix082f" (* .澳门 Macao *);
    "xn--mgbah1a3hjkrd" (* .موريتانيا Mauritania *);
    "xn--mgbai9azgqp6j" (* .پاکستان Pakistan *);
    "xn--mgbcpq6gpa1a" (* .البحرين Bahrain *) ]

let is_idn_cctld l = List.mem (String.lowercase_ascii l) idn_cctlds
