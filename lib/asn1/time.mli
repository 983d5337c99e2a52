(** Calendar time for certificate validity, and the ASN.1 UTCTime /
    GeneralizedTime encodings.

    Self-contained (no system clock): all times are constructed
    explicitly, which keeps corpus generation deterministic. *)

type t = { year : int; month : int; day : int; hour : int; minute : int; second : int }
(** A UTC timestamp. *)

val make : ?hour:int -> ?minute:int -> ?second:int -> int -> int -> int -> t
(** [make year month day] builds a timestamp (clamping is not applied;
    invalid dates raise [Invalid_argument]). *)

val ( <= ) : t -> t -> bool
val ( < ) : t -> t -> bool

val days_in_month : int -> int -> int
(** [days_in_month year month] accounts for leap years. *)

val days_between : t -> t -> int
(** [days_between a b] is [to_days b - to_days a]. *)

val add_days : t -> int -> t
(** [add_days t n] advances the date by [n] days (time of day kept). *)

val to_utctime : t -> string
(** [to_utctime t] is the 13-byte [YYMMDDHHMMSSZ] form (two-digit year;
    RFC 5280 requires UTCTime for dates before 2050). *)

val to_generalized : t -> string
(** [to_generalized t] is the 15-byte [YYYYMMDDHHMMSSZ] form. *)

val of_utctime : string -> (t, string) result
(** [of_utctime s] parses UTCTime with RFC 5280's 50-year window rule. *)

val of_generalized : string -> (t, string) result

val of_generalized_sub : string -> pos:int -> len:int -> (t, string) result
(** [of_generalized_sub s ~pos ~len] is
    [of_generalized (String.sub s pos len)] without the copy.
    @raise Invalid_argument on a range outside [s]. *)
