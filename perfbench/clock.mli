(** The benchmark's clocks: a monotonic wall clock in nanoseconds and the
    number of words the program has allocated so far. *)

val now_ns : unit -> int64
val words : unit -> float
(** Words allocated since the process started (minor + major - promoted). *)

val ms_of_ns : int64 -> float

type span = { start : int64; stop : int64; words : float }
(** One timed interval: start and stop on {!now_ns}, words allocated inside. *)

val span : (unit -> 'a) -> 'a * span
val duration_ns : span -> int64
val duration_ms : span -> float
