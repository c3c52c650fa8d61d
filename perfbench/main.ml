(* The benchmark command:
     main.exe --workload NAME --seed N --seconds S --trace 0|1
   prints a human-readable report, then the result as one JSON line. It
   exits 1 when an answer was wrong, 2 on bad arguments. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let specs =
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat " | " Perfbench.Workloads.names);
      ("--seed", Arg.Set_int seed, "N input generator seed");
      ("--seconds", Arg.Set_int seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or per-layer metrics (1)");
    ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse (Arg.align specs) (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if (not (List.mem !workload Perfbench.Workloads.names)) || !seconds < 1
     || (!trace <> 0 && !trace <> 1)
  then begin
    prerr_endline usage;
    exit 2
  end;
  let report =
    Perfbench.Runner.run
      { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace = 1; size = Full }
  in
  List.iter print_endline report.lines;
  print_endline (Perfbench.Result_json.to_string report.result);
  exit (if report.result.correct then 0 else 1)
