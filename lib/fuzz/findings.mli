(** Findings JSONL: one line per finding, fixed field order, discovery
    order — identical campaigns produce byte-identical files. *)

type finding = {
  round : int;
  index : int;
  exec : int;  (** global execution number at discovery *)
  cluster : string;  (** [class-<sig hash prefix>] *)
  cls : string;
  signature : string;
  op : string;
  context : string;
  declared : string;
  count : int;  (** total campaign occurrences of this signature *)
  der : string;  (** full candidate DER (serialized as [der_hex]) *)
  min_der : string option;  (** minimized reproducer, once computed *)
}

val cluster_id : cls:string -> signature:string -> string

val to_json : finding -> string
val of_json : string -> (finding, string) result

val write : string -> finding list -> unit
val read : string -> (finding list, string) result

val clusters : finding list -> (string * string * int * finding) list
(** [(cluster, class, count, exemplar)] in first-discovery order. *)

val report : Format.formatter -> finding list -> unit
