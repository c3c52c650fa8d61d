(* The benchmark harness's own tests: order statistics, span arithmetic,
   the result line's schema, and a tiny run of every workload. *)

open Perfbench

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

(* --- percentiles and the ten-beyond rule --- *)

let test_rank () =
  check_int "p50 of 100" 50 (Stats.rank ~n:100 ~permille:500);
  check_int "p90 of 100" 90 (Stats.rank ~n:100 ~permille:900);
  check_int "p90 of 101" 91 (Stats.rank ~n:101 ~permille:900);
  check_int "p99 of 1000" 990 (Stats.rank ~n:1000 ~permille:990);
  check_int "p50 of 1" 1 (Stats.rank ~n:1 ~permille:500);
  check_int "beyond p90 of 100" 10 (Stats.beyond ~n:100 ~permille:900)

let test_ten_beyond () =
  check_bool "p90 needs 100 samples" false (Stats.reportable ~n:99 ~permille:900);
  check_bool "p90 at 100" true (Stats.reportable ~n:100 ~permille:900);
  check_bool "p99 at 999" false (Stats.reportable ~n:999 ~permille:990);
  check_bool "p99 at 1000" true (Stats.reportable ~n:1000 ~permille:990);
  let tail n = Stats.tail_permille ~n in
  Alcotest.(check (option int)) "n=15" None (tail 15);
  Alcotest.(check (option int)) "n=20" (Some 500) (tail 20);
  Alcotest.(check (option int)) "n=150" (Some 900) (tail 150);
  Alcotest.(check (option int)) "n=4000" (Some 990) (tail 4000);
  Alcotest.(check (option int)) "n=10000" (Some 999) (tail 10000)

let test_percentile () =
  let a = Stats.sorted (List.init 100 (fun i -> float (100 - i))) in
  check_float "p50" 50. (Stats.percentile a ~permille:500);
  check_float "p90" 90. (Stats.percentile a ~permille:900);
  check_float "p99" 99. (Stats.percentile a ~permille:990);
  check_float "median odd" 2. (Stats.median [ 3.; 1.; 2. ]);
  check_float "median even" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ])

(* --- self time: a span minus the union of its children --- *)

let test_self_time () =
  let self children = Int64.to_int (Stats.self_ns ~start:100L ~stop:200L children) in
  check_int "no children" 100 (self []);
  check_int "disjoint" 70 (self [ (110L, 120L); (150L, 170L) ]);
  check_int "overlap counts once" 75 (self [ (110L, 130L); (120L, 135L) ]);
  check_int "nested counts once" 80 (self [ (110L, 130L); (115L, 120L) ]);
  check_int "clipped to parent" 80 (self [ (50L, 110L); (190L, 250L) ]);
  check_int "outside ignored" 100 (self [ (0L, 50L); (300L, 400L) ]);
  check_int "fully covered" 0 (self [ (100L, 200L) ])

(* --- the result line --- *)

let sample =
  {
    Result_json.correct = true;
    attempted = 1000;
    failed = 0;
    metrics =
      [
        { name = "latency_ms"; value = 1.2034000000000001; unit_ = "ms" };
        { name = "setup_s"; value = 0.1 +. 0.2; unit_ = "s" };
        { name = "words"; value = 29637244.14375; unit_ = "words" };
      ];
  }

let test_round_trip () =
  match Result_json.of_string (Result_json.to_string sample) with
  | Error e -> Alcotest.fail e
  | Ok r ->
    check_bool "identical" true (r = sample);
    check_bool "one line" false (String.contains (Result_json.to_string sample) '\n')

let test_schema_rejects () =
  let bad s = match Result_json.of_string s with Ok _ -> false | Error _ -> true in
  check_bool "extra key" true
    (bad {|{"correct": true, "attempted": 1, "failed": 0, "metrics": {}, "x": 1}|});
  check_bool "missing unit" true
    (bad {|{"correct": true, "attempted": 1, "failed": 0, "metrics": {"a": {"value": 1}}}|});
  check_bool "fractional count" true
    (bad {|{"correct": true, "attempted": 1.5, "failed": 0, "metrics": {}}|});
  check_bool "well formed" false
    (bad {|{"correct": false, "attempted": 2, "failed": 1, "metrics": {"a": {"value": -1e-3, "unit": "ms"}}}|});
  Alcotest.check_raises "non-finite" (Invalid_argument "Result_json: non-finite value")
    (fun () ->
      ignore
        (Result_json.to_string
           { sample with metrics = [ { name = "x"; value = Float.nan; unit_ = "ms" } ] }))

(* --- tiny runs: every workload, untraced and traced --- *)

let declared section =
  let text = In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all in
  match Result_json.parse text with
  | Ok (Result_json.Obj fields) -> (
    match List.assoc_opt section fields with
    | Some (Result_json.Arr items) ->
      List.filter_map
        (function
          | Result_json.Obj kv -> (
            match (List.assoc_opt "name" kv, List.assoc_opt "unit" kv) with
            | Some (Result_json.Str n), Some (Result_json.Str u) -> Some (n, u)
            | _ -> None)
          | _ -> None)
        items
    | _ -> Alcotest.fail ("BENCHMARK.json has no " ^ section))
  | Ok _ | Error _ -> Alcotest.fail "BENCHMARK.json does not parse"

let value (r : Result_json.t) name =
  (List.find (fun (m : Result_json.metric) -> m.name = name) r.metrics).value

let smoke workload ~trace () =
  let report =
    Runner.run { Runner.workload; seed = 3; seconds = 0; trace; size = Workloads.Tiny }
  in
  let r = report.Runner.result in
  check_int "failed_ratio = 0" 0 r.failed;
  check_bool "correct iff nothing failed" (r.failed = 0) r.correct;
  check_bool "attempted" true (r.attempted > 0);
  Alcotest.(check (list (pair string string)))
    "metrics and units are the declared ones"
    (declared (if trace then "per_layer" else "end_to_end"))
    (List.map (fun (m : Result_json.metric) -> (m.name, m.unit_)) r.metrics);
  (match Result_json.of_string (Result_json.to_string r) with
   | Ok back -> check_bool "round trip" true (back = r)
   | Error e -> Alcotest.fail e);
  if trace then begin
    check_float "hooks neutral" 1. (value r "trace.hooks_neutral");
    check_float "replay matches" 1. (value r "trace.replay_faithful")
  end
  else List.iter (fun m -> check_bool (m.Result_json.name ^ " > 0") true (m.value > 0.)) r.metrics

let () =
  let smokes =
    List.concat_map
      (fun w ->
        [
          Alcotest.test_case (w ^ " untraced") `Quick (smoke w ~trace:false);
          Alcotest.test_case (w ^ " traced") `Quick (smoke w ~trace:true);
        ])
      Workloads.names
  in
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "nearest rank" `Quick test_rank;
          Alcotest.test_case "ten beyond" `Quick test_ten_beyond;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "self time" `Quick test_self_time;
        ] );
      ( "result",
        [
          Alcotest.test_case "round trip" `Quick test_round_trip;
          Alcotest.test_case "schema" `Quick test_schema_rejects;
        ] );
      ("smoke", smokes);
    ]
