type t = { year : int; month : int; day : int; hour : int; minute : int; second : int }

let is_leap y = (y mod 4 = 0 && y mod 100 <> 0) || y mod 400 = 0

let days_in_month year month =
  match month with
  | 1 | 3 | 5 | 7 | 8 | 10 | 12 -> 31
  | 4 | 6 | 9 | 11 -> 30
  | 2 -> if is_leap year then 29 else 28
  | _ -> invalid_arg "Time.days_in_month"

let make ?(hour = 0) ?(minute = 0) ?(second = 0) year month day =
  if month < 1 || month > 12 then invalid_arg "Time.make: month";
  if day < 1 || day > days_in_month year month then invalid_arg "Time.make: day";
  if hour < 0 || hour > 23 || minute < 0 || minute > 59 || second < 0 || second > 60
  then invalid_arg "Time.make: time of day";
  { year; month; day; hour; minute; second }

let compare a b =
  Stdlib.compare
    (a.year, a.month, a.day, a.hour, a.minute, a.second)
    (b.year, b.month, b.day, b.hour, b.minute, b.second)

(* Day count from the proleptic Gregorian epoch 0001-01-01. *)
let to_days t =
  let y = t.year - 1 in
  let leap_days = (y / 4) - (y / 100) + (y / 400) in
  let month_days = ref 0 in
  for m = 1 to t.month - 1 do
    month_days := !month_days + days_in_month t.year m
  done;
  (y * 365) + leap_days + !month_days + (t.day - 1)

let days_between a b = to_days b - to_days a

let add_days t n =
  let rec forward t n =
    if n = 0 then t
    else
      let dim = days_in_month t.year t.month in
      if t.day + n <= dim then { t with day = t.day + n }
      else
        let consumed = dim - t.day + 1 in
        let t =
          if t.month = 12 then { t with year = t.year + 1; month = 1; day = 1 }
          else { t with month = t.month + 1; day = 1 }
        in
        forward t (n - consumed)
  in
  if n >= 0 then forward t n
  else
    let rec back t n =
      if n = 0 then t
      else if t.day - 1 >= -n then { t with day = t.day + n }
      else begin
        (* Cross into the previous month, consuming [t.day] days. *)
        let consumed = t.day in
        let t =
          if t.month = 1 then
            { t with year = t.year - 1; month = 12; day = days_in_month (t.year - 1) 12 }
          else { t with month = t.month - 1; day = days_in_month t.year (t.month - 1) }
        in
        back t (n + consumed)
      end
    in
    back t n

(* Hand-rolled digit emission: these run twice per certificate on the
   TBS-encode hot path, where [Printf.sprintf] costs more than the rest
   of the validity encoding combined. *)
let put2 b i n =
  Bytes.unsafe_set b i (Char.unsafe_chr (48 + (n / 10)));
  Bytes.unsafe_set b (i + 1) (Char.unsafe_chr (48 + (n mod 10)))

let to_utctime t =
  let b = Bytes.create 13 in
  put2 b 0 (t.year mod 100);
  put2 b 2 t.month;
  put2 b 4 t.day;
  put2 b 6 t.hour;
  put2 b 8 t.minute;
  put2 b 10 t.second;
  Bytes.unsafe_set b 12 'Z';
  Bytes.unsafe_to_string b

let to_generalized t =
  if t.year < 0 || t.year > 9999 then
    Printf.sprintf "%04d%02d%02d%02d%02d%02dZ" t.year t.month t.day t.hour
      t.minute t.second
  else begin
    let b = Bytes.create 15 in
    put2 b 0 (t.year / 100);
    put2 b 2 (t.year mod 100);
    put2 b 4 t.month;
    put2 b 6 t.day;
    put2 b 8 t.hour;
    put2 b 10 t.minute;
    put2 b 12 t.second;
    Bytes.unsafe_set b 14 'Z';
    Bytes.unsafe_to_string b
  end

let digits s i n =
  let rec go i n acc =
    if n = 0 then Some acc
    else
      match s.[i] with
      | '0' .. '9' -> go (i + 1) (n - 1) ((acc * 10) + (Char.code s.[i] - Char.code '0'))
      | _ -> None
  in
  if i + n <= String.length s then go i n 0 else None

let of_utctime s =
  if String.length s <> 13 || s.[12] <> 'Z' then Error "UTCTime must be YYMMDDHHMMSSZ"
  else
    match
      (digits s 0 2, digits s 2 2, digits s 4 2, digits s 6 2, digits s 8 2, digits s 10 2)
    with
    | Some yy, Some mo, Some d, Some h, Some mi, Some se -> (
        let year = if yy >= 50 then 1900 + yy else 2000 + yy in
        try Ok (make ~hour:h ~minute:mi ~second:se year mo d)
        with Invalid_argument m -> Error m)
    | _ -> Error "UTCTime: non-digit field"

let of_generalized_sub s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Asn1.Time.of_generalized_sub";
  if len <> 15 || s.[pos + 14] <> 'Z' then
    Error "GeneralizedTime must be YYYYMMDDHHMMSSZ"
  else
    match
      ( digits s pos 4,
        digits s (pos + 4) 2,
        digits s (pos + 6) 2,
        digits s (pos + 8) 2,
        digits s (pos + 10) 2,
        digits s (pos + 12) 2 )
    with
    | Some y, Some mo, Some d, Some h, Some mi, Some se -> (
        try Ok (make ~hour:h ~minute:mi ~second:se y mo d)
        with Invalid_argument m -> Error m)
    | _ -> Error "GeneralizedTime: non-digit field"

let of_generalized s = of_generalized_sub s ~pos:0 ~len:(String.length s)

let ( <= ) a b = compare a b <= 0
let ( < ) a b = compare a b < 0
