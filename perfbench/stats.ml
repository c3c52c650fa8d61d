let rank ~n ~permille = max 1 (((permille * n) + 999) / 1000)
let beyond ~n ~permille = n - rank ~n ~permille
let reportable ~n ~permille = n > 0 && beyond ~n ~permille >= 10

let tail_permille ~n =
  List.find_opt (fun permille -> reportable ~n ~permille) [ 999; 990; 900; 500 ]

let percentile sorted ~permille =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  sorted.(min (n - 1) (rank ~n ~permille - 1))

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let covered_ns ~start ~stop children =
  let clipped =
    List.filter_map
      (fun (s, e) ->
        let s = max s start and e = min e stop in
        if Int64.compare s e < 0 then Some (s, e) else None)
      children
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (s, e) ->
        match cur with
        | None -> (total, Some (s, e))
        | Some (cs, ce) when Int64.compare s ce <= 0 -> (total, Some (cs, max ce e))
        | Some (cs, ce) -> (Int64.add total (Int64.sub ce cs), Some (s, e)))
      (0L, None) clipped
  in
  match last with None -> total | Some (s, e) -> Int64.add total (Int64.sub e s)

let self_ns ~start ~stop children =
  Int64.sub (Int64.sub stop start) (covered_ns ~start ~stop children)
