(** The result line the benchmark prints last on standard output:
    [{"correct": .., "attempted": .., "failed": .., "metrics":
    {"<name>": {"value": .., "unit": ".."}, ..}}]. *)

type metric = { name : string; value : float; unit_ : string }
type t = { correct : bool; attempted : int; failed : int; metrics : metric list }

val to_string : t -> string
(** One line of JSON; values keep every digit ([%.17g]).
    @raise Invalid_argument on a non-finite value or a duplicate name. *)

(** A JSON value, as read by {!parse}. *)
type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

val parse : string -> (json, string) result
(** A small JSON reader (no surrogate pairs in [\u] escapes). *)

val of_string : string -> (t, string) result
(** Parses a result line, requiring exactly the four keys and exactly
    [value] and [unit] in each metric. *)
