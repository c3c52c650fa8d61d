(** Order statistics and span arithmetic for the benchmark's report. *)

val rank : n:int -> permille:int -> int
(** Nearest-rank position (1-based) of the [permille]/1000 quantile among
    [n] sorted samples: [ceil (permille * n / 1000)], at least 1. *)

val beyond : n:int -> permille:int -> int
(** Samples strictly above that rank: [n - rank]. *)

val reportable : n:int -> permille:int -> bool
(** Whether a percentile has at least ten samples beyond it. *)

val tail_permille : n:int -> int option
(** The highest of p99.9, p99, p90 and p50 that is {!reportable}. *)

val percentile : float array -> permille:int -> float
(** Nearest-rank percentile of a {e sorted}, non-empty array. *)

val sorted : float list -> float array
val median : float list -> float
(** Middle value, or the mean of the two middle values; [nan] when empty. *)

val covered_ns : start:int64 -> stop:int64 -> (int64 * int64) list -> int64
(** Length of the part of [[start, stop)] that the union of the child
    intervals covers (children are clipped to the parent; overlaps count
    once). *)

val self_ns : start:int64 -> stop:int64 -> (int64 * int64) list -> int64
(** A span's self time: its duration minus {!covered_ns} of its children. *)
