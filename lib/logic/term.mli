(** Logic terms.

    BrAID's languages (AI queries, CAQL, advice) are function-free Horn
    logic, so a term is just a variable or a constant; this keeps
    unification and subsumption decidable and cheap. *)

type t =
  | Var of string
  | Const of Braid_relalg.Value.t

val var : string -> t
val int : int -> t
val str : string -> t
val const : Braid_relalg.Value.t -> t

val is_var : t -> bool
val is_const : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int

val hash : t -> int
(** Compatible with {!equal}: constants hash through [Value.hash]. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
