let now_ns () = Monotonic_clock.now ()

let words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let ms_of_ns ns = Int64.to_float ns /. 1e6

type span = { start : int64; stop : int64; words : float }

let span f =
  let w0 = words () in
  let t0 = now_ns () in
  let r = f () in
  let t1 = now_ns () in
  let w1 = words () in
  (r, { start = t0; stop = t1; words = w1 -. w0 })

let duration_ns s = Int64.sub s.stop s.start
let duration_ms s = ms_of_ns (duration_ns s)
